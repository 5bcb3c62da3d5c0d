package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"seedblast/internal/core"
	"seedblast/internal/index"
	"seedblast/internal/pipeline"
)

// minSearches keeps the median and the slowest search meaningful when
// one search takes a large share of the window (tblastn-genome).
const minSearches = 3

// runEngine runs an in-process workload (tblastn-genome,
// blastp-homologs):
//
//  1. set-up, repeated: build the target (six-frame translation for a
//     genome) and its index;
//  2. one untimed warm-up Search;
//  3. the timed window: back-to-back Search(...).Collect() calls, each
//     checked against the first, for the run's seconds and at least
//     minSearches calls;
//  4. the traced pass, whose alignments and work counters must equal
//     the first timed Search's; with trace, also one Search on one
//     worker and one shard.
func runEngine(ctx context.Context, in *engineInputs, p params) (*outcome, error) {
	s, err := core.NewSearcher(in.opts...)
	if err != nil {
		return nil, err
	}
	o := s.Options()
	out := newOutcome()
	out.digest = in.digest

	var tgt indexedTarget
	setups := make([]float64, 0, p.sizes.SetupReps)
	for range p.sizes.SetupReps {
		tgt = nil
		runtime.GC() // the previous target's memory is not part of this set-up
		t := time.Now()
		tgt = in.newTarget()
		ix, err := index.BuildParallel(tgt.Bank(), o.Seed, o.N, o.Workers)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		tgt.Adopt(ix)
		setups = append(setups, time.Since(t).Seconds())
	}

	qt := core.NewProteinTarget(in.query)
	search := func(s *core.Searcher) ([]core.Match, *core.Summary, time.Duration, error) {
		t := time.Now()
		res := s.Search(ctx, qt, tgt)
		ms, err := res.Collect()
		d := time.Since(t)
		if err != nil {
			return nil, nil, d, err
		}
		sum, err := res.Summary()
		return ms, sum, d, err
	}

	out.attempted++
	if _, _, _, err := search(s); err != nil {
		out.fail("warm-up search: %v", err)
	}

	var (
		first    []core.Match
		firstSum *core.Summary
		times    []time.Duration
	)
	deadline := time.Now().Add(p.seconds)
	for n := 0; n < minSearches || time.Now().Before(deadline); n++ {
		out.attempted++
		ms, sum, d, err := search(s)
		switch {
		case err != nil:
			out.fail("search: %v", err)
			continue
		case first == nil:
			first, firstSum = ms, sum
		case !sameMatches(ms, first):
			out.fail("search %d returned other matches than the first", len(times))
		}
		times = append(times, d)
	}
	if first == nil {
		return nil, fmt.Errorf("no search completed in the timed window")
	}
	logf("%d timed searches: %v", len(times), times)
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	found, total := in.truth(first)
	ms := durationsIn(times, time.Millisecond)
	v := out.values
	v["setup_s"] = median(setups)
	v["search_s"] = median(durationsIn(times, time.Second))
	v["jobs_per_s"] = float64(len(times)) / sumSeconds(times)
	v["job_p50_ms"] = median(ms)
	v["job_p99_ms"] = nearestRank(ms, 0.99)
	v["recall"] = ratio(float64(found), float64(total))
	v["peak_rss_mb"] = rss

	if p.trace {
		// The single-threaded baseline: one worker everywhere, one shard.
		s1, err := core.NewSearcher(slices.Concat(in.opts, []core.Option{core.WithWorkers(1), core.WithPipeline(pipeline.Config{})})...)
		if err != nil {
			return nil, err
		}
		out.attempted++
		ms1, _, d, err := search(s1)
		switch {
		case err != nil:
			out.fail("single-worker search: %v", err)
		case !sameMatches(ms1, first):
			out.fail("single-worker search returned other matches than the sharded one")
		}
		v["pipeline.workers1_s"] = d.Seconds()
	}

	// The traced pass rebuilds the target so that translation and the
	// target index are timed once more, outside set-up.
	tgt = nil
	runtime.GC()
	t := time.Now()
	tgt = in.newTarget()
	frames := time.Since(t)
	if in.genome == nil {
		frames = 0 // a protein target is not translated
	}
	t = time.Now()
	ix1, err := index.BuildParallel(tgt.Bank(), o.Seed, o.N, o.Workers)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	build := time.Since(t)
	out.attempted++
	lp, err := runLayers(in.query, tgt.Bank(), ix1, o)
	if err == nil {
		err = lp.checkAgainst(first, firstSum)
	}
	if err != nil {
		out.fail("traced pass against the first timed search: %v", err)
		lp = &layerPass{}
	}
	out.setLayers(lp, time.Duration(v["search_s"]*float64(time.Second)))
	v["translate.frames_s"] = frames.Seconds()
	v["index.build_s"] = build.Seconds()
	v["index.entries"] = float64(ix1.NumEntries())
	v["pipeline.max_buffered_matches"] = float64(firstSum.Pipeline.MaxBufferedMatches)
	for _, m := range perLayer {
		if strings.HasPrefix(m.name, "service.") {
			v[m.name] = 0 // no service layer in process
		}
	}
	return out, nil
}

func sumSeconds(ds []time.Duration) float64 {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t.Seconds()
}
