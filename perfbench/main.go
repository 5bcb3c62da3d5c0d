// Command perfbench is the repository's benchmark. One command runs a
// named workload, checks every output it produces, and prints the
// workload's metrics by name and unit as the last line of standard
// output, one JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {"search_s": {"value": 4.9, "unit": "s"}, ...}}
//
// Workloads (inputs are generated from -seed; the engine receives only
// the generated inputs):
//
//	tblastn-genome   3,000 proteins against a 2 Mnt genome with 40 planted genes
//	blastp-homologs  512 queries against 20,480 homologs, prefiltered to 50 per query
//	service-blastp   a seedservd child driven by 2 closed-loop clients
//
// With -trace 0 it prints the end-to-end metrics, measured with no
// tracing; with -trace 1 the per-layer metrics of a traced pass that
// calls each layer's public functions in turn. BENCHMARK.json at the
// repository root lists both sets and each workload's rationale.
//
// run.sh builds the benchmark and seedservd from the checkout and
// runs it:
//
//	bash perfbench/run.sh --workload tblastn-genome --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"seedblast/internal/benchfmt"
)

// Workload names.
const (
	wGenome   = "tblastn-genome"
	wHomologs = "blastp-homologs"
	wService  = "service-blastp"
)

// params is one run's configuration.
type params struct {
	workload string
	seed     int64
	seconds  time.Duration // the timed window
	trace    bool
	daemon   string // seedservd binary, for service-blastp
	sizes    sizes
}

// run generates the workload's inputs from the seed and measures it.
func run(ctx context.Context, p params) (*outcome, error) {
	switch p.workload {
	case wGenome:
		in, err := genomeInputs(p.seed, p.sizes)
		if err != nil {
			return nil, err
		}
		return runEngine(ctx, in, p)
	case wHomologs:
		return runEngine(ctx, homologInputs(p.seed, p.sizes), p)
	case wService:
		return runService(ctx, p)
	}
	return nil, fmt.Errorf("unknown workload %q (%s, %s, %s)", p.workload, wGenome, wHomologs, wService)
}

// provenance is printed before the result: where, on what and on which
// inputs the run was measured.
type provenance struct {
	benchfmt.Provenance
	GOMAXPROCS  int     `json:"gomaxprocs"`
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	Seconds     float64 `json:"seconds"`
	Trace       bool    `json:"trace"`
	InputDigest string  `json:"inputDigest"`
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+wGenome+", "+wHomologs+" or "+wService)
		seed     = flag.Int64("seed", 1, "input generator seed")
		seconds  = flag.Float64("seconds", 20, "length of the timed window in seconds")
		trace    = flag.Int("trace", 0, "1 prints the per-layer metrics of the traced pass instead of the end-to-end ones")
		daemon   = flag.String("daemon", "", "seedservd binary ("+wService+")")
	)
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		logf("-seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	p := params{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		daemon:   *daemon,
		sizes:    fullSizes,
	}
	out, err := run(context.Background(), p)
	if err != nil {
		logf("%s: %v", p.workload, err)
		os.Exit(1)
	}
	res, err := out.result(p.trace)
	if err != nil {
		logf("%s: %v", p.workload, err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	err = enc.Encode(struct {
		Provenance provenance `json:"provenance"`
	}{provenance{
		Provenance:  benchfmt.Collect(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Workload:    p.workload,
		Seed:        p.seed,
		Seconds:     *seconds,
		Trace:       p.trace,
		InputDigest: out.digest,
	}})
	if err == nil {
		err = enc.Encode(res)
	}
	if err != nil {
		logf("writing the result: %v", err)
		os.Exit(1)
	}
}
