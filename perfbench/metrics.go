package main

import (
	"fmt"
	"time"
)

// metricDef names one reported metric and its unit. The two tables
// below are the benchmark's metric surface; BENCHMARK.json lists the
// same names and units, and a test holds the two in step.
type metricDef struct{ name, unit string }

// endToEnd metrics are what a user of the system sees; every workload
// reports each of them. A "job" is one search as its caller sees it: a
// warm Searcher.Search(...).Collect() in process, or a seedservd job
// from submit until its alignments are fetched.
var endToEnd = []metricDef{
	{"setup_s", "s"},         // median set-up: target translation and index, or daemon start and cold jobs
	{"search_s", "s"},        // median job time
	{"recall", "ratio"},      // known-true items reported / known-true items
	{"jobs_per_s", "jobs/s"}, // verified jobs completed per second in the timed window
	{"job_p50_ms", "ms"},     // median job time
	{"job_p99_ms", "ms"},     // 99th-percentile job time, nearest rank
	{"peak_rss_mb", "MB"},    // VmHWM of the process doing the work
}

// perLayer metrics come from the traced pass, which calls each layer's
// public functions in turn and times every call. A layer a workload
// does not exercise reports 0.
var perLayer = []metricDef{
	{"translate.frames_s", "s"},
	{"index.build_s", "s"},
	{"index.entries", "count"},
	{"index.query_s", "s"},
	{"index.filter_s", "s"},
	{"prefilter.run_s", "s"},
	{"prefilter.kept", "count"},
	{"prefilter.dropped", "count"},
	{"prefilter.kept_ratio", "ratio"},
	{"ungapped.run_s", "s"},
	{"ungapped.pairs", "count"},
	{"ungapped.hits", "count"},
	{"ungapped.ns_per_pair", "ns"},
	{"ungapped.hit_ratio", "ratio"},
	{"gapped.run_s", "s"},
	{"gapped.hits", "count"},
	{"gapped.contained", "count"},
	{"gapped.trigger_dropped", "count"},
	{"gapped.dps", "count"},
	{"gapped.dp_cells", "count"},
	{"gapped.ns_per_cell", "ns"},
	{"gapped.match_ratio", "ratio"},
	{"pipeline.serial_s", "s"},
	{"pipeline.overlap", "ratio"},
	{"pipeline.workers1_s", "s"},
	{"pipeline.max_buffered_matches", "count"},
	{"service.submit_ms.p50", "ms"},
	{"service.submit_ms.p99", "ms"},
	{"service.wait_ms.p50", "ms"},
	{"service.wait_ms.p99", "ms"},
	{"service.fetch_ms.p50", "ms"},
	{"service.fetch_ms.p99", "ms"},
	{"service.engine_ms", "ms"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.request_bytes", "bytes"},
	{"error_rate", "ratio"},
}

// outcome is what one run measured, before it is printed.
type outcome struct {
	digest            string // inputs, for provenance
	attempted, failed int
	values            map[string]float64
}

func newOutcome() *outcome { return &outcome{values: make(map[string]float64)} }

// fail records a failed operation and says why on standard error (the
// first few times; a broken build can fail thousands of jobs).
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if o.failed <= 10 {
		logf("FAILED: "+format, args...)
	}
}

// setLayers records the traced pass's layer metrics. search is the
// median warm search time that pipeline.overlap divides by; the
// service.* metrics are set by the caller.
func (o *outcome) setLayers(lp *layerPass, search time.Duration) {
	v := o.values
	v["index.query_s"] = lp.query.Seconds()
	v["index.filter_s"] = lp.filter.Seconds()
	v["prefilter.run_s"] = lp.prefilter.Seconds()
	v["prefilter.kept"] = float64(lp.kept)
	v["prefilter.dropped"] = float64(lp.dropped)
	v["prefilter.kept_ratio"] = ratio(float64(lp.kept), float64(lp.kept+lp.dropped))
	v["ungapped.run_s"] = lp.ungapped.Seconds()
	v["ungapped.pairs"] = float64(lp.pairs)
	v["ungapped.hits"] = float64(lp.rawHits)
	v["ungapped.ns_per_pair"] = ratio(float64(lp.ungapped.Nanoseconds()), float64(lp.pairs))
	v["ungapped.hit_ratio"] = ratio(float64(lp.rawHits), float64(lp.pairs))
	v["gapped.run_s"] = lp.gapped.Seconds()
	v["gapped.hits"] = float64(lp.work.Hits)
	v["gapped.contained"] = float64(lp.work.Contained)
	v["gapped.trigger_dropped"] = float64(lp.work.PreFiltered)
	v["gapped.dps"] = float64(lp.work.Extended)
	v["gapped.dp_cells"] = float64(lp.work.DPCells)
	v["gapped.ns_per_cell"] = ratio(float64(lp.gapped.Nanoseconds()), float64(lp.work.DPCells))
	v["gapped.match_ratio"] = ratio(float64(lp.matches), float64(lp.work.Extended))
	v["pipeline.serial_s"] = lp.serial().Seconds()
	v["pipeline.overlap"] = ratio(lp.serial().Seconds(), search.Seconds())
}

// metricJSON is one printed metric.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultJSON is the benchmark's last line of output.
type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// result selects the end-to-end metrics, or the per-layer ones when
// trace is set. A metric the run did not measure is an error in the
// benchmark, not a zero.
func (o *outcome) result(trace bool) (*resultJSON, error) {
	defs := endToEnd
	if trace {
		defs = perLayer
		o.values["error_rate"] = ratio(float64(o.failed), float64(o.attempted))
	}
	r := &resultJSON{
		Correct:   o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricJSON, len(defs)),
	}
	for _, d := range defs {
		v, ok := o.values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		r.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	return r, nil
}
