package main

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"seedblast/internal/bank"
	"seedblast/internal/core"
	"seedblast/internal/gapped"
	"seedblast/internal/index"
	"seedblast/internal/prefilter"
	"seedblast/internal/ungapped"
)

// layerPass is the traced pass's account of one search, made by
// calling each layer's public function in sequence — the work the
// shard engine does behind Searcher.Search — and timing every call.
type layerPass struct {
	query     time.Duration // index.BuildParallel on each query shard
	prefilter time.Duration // prefilter.Run plus the per-pair Keeps cut
	filter    time.Duration // (*index.Index).FilterSeqs to the survivor union
	ungapped  time.Duration // ungapped.Run
	gapped    time.Duration // gapped.RunWithStats

	kept, dropped int64
	pairs         int64
	rawHits       int // hits ungapped.Run returned
	hits          int // hits left after the Keeps cut: step 3's input
	work          gapped.Stats
	matches       int
	aligns        []gapped.Alignment
}

// serial is the summed time of the pass's per-search layer calls.
func (lp *layerPass) serial() time.Duration {
	return lp.query + lp.prefilter + lp.filter + lp.ungapped + lp.gapped
}

// add folds another pass's times and counts into lp (alignments are
// not kept).
func (lp *layerPass) add(o *layerPass) {
	lp.query += o.query
	lp.prefilter += o.prefilter
	lp.filter += o.filter
	lp.ungapped += o.ungapped
	lp.gapped += o.gapped
	lp.kept += o.kept
	lp.dropped += o.dropped
	lp.pairs += o.pairs
	lp.rawHits += o.rawHits
	lp.hits += o.hits
	lp.matches += o.matches
	addWork(&lp.work, &o.work)
}

func addWork(dst, src *gapped.Stats) {
	dst.Hits += src.Hits
	dst.Contained += src.Contained
	dst.PreFiltered += src.PreFiltered
	dst.Extended += src.Extended
	dst.DPRows += src.DPRows
	dst.DPCells += src.DPCells
}

// runLayers searches q against the target bank b1, whose index ix1 is
// already built, layer by layer under the searcher's options o: per
// query shard it indexes the shard, runs the prefilter and its survivor
// filter when o.MaxCandidates > 0, step 2, the exact per-pair cut, and
// step 3; then it orders the alignments as the engine does. The
// alignments must equal Search's bit for bit.
func runLayers(q, b1 *bank.Bank, ix1 *index.Index, o core.Options) (*layerPass, error) {
	gcfg := o.Gapped
	if gcfg.Workers == 0 {
		gcfg.Workers = o.Workers
	}
	pcfg := prefilter.Config{MaxCandidates: o.MaxCandidates}
	shardSize := o.Pipeline.ShardSize
	lp := &layerPass{}
	for lo := 0; lo < q.Len(); {
		hi := q.Len()
		if shardSize > 0 {
			hi = min(lo+shardSize, hi)
		}
		sh := q
		if lo != 0 || hi != q.Len() {
			sh = bank.New(fmt.Sprintf("%s[%d:%d)", q.Name(), lo, hi))
			for s := lo; s < hi; s++ {
				sh.Add(q.ID(s), q.Seq(s))
			}
		}

		t := time.Now()
		ix0, err := index.BuildParallel(sh, o.Seed, o.N, o.Workers)
		lp.query += time.Since(t)
		if err != nil {
			return nil, fmt.Errorf("index shard %d: %w", lo, err)
		}

		ixSub := ix1
		var pf *prefilter.Result
		if pcfg.Enabled() {
			t = time.Now()
			pf, err = prefilter.Run(sh, o.Seed, ix1, pcfg)
			lp.prefilter += time.Since(t)
			if err != nil {
				return nil, fmt.Errorf("prefilter shard %d: %w", lo, err)
			}
			lp.kept += pf.Kept
			lp.dropped += pf.Dropped
			t = time.Now()
			ixSub = ix1.FilterSeqs(pf.Union)
			lp.filter += time.Since(t)
		}

		t = time.Now()
		r, err := ungapped.Run(ix0, ixSub, ungapped.Config{
			Matrix:    o.Matrix,
			Threshold: o.UngappedThreshold,
			Workers:   o.Workers,
			Kernel:    o.Step2Kernel,
		})
		lp.ungapped += time.Since(t)
		if err != nil {
			return nil, fmt.Errorf("step 2 shard %d: %w", lo, err)
		}
		lp.pairs += r.Pairs
		lp.rawHits += len(r.Hits)
		hits := r.Hits
		if pf != nil {
			t = time.Now()
			kept := hits[:0]
			for _, h := range hits {
				if pf.Keeps(int(h.E0.Seq), h.E1.Seq) {
					kept = append(kept, h)
				}
			}
			hits = kept
			lp.prefilter += time.Since(t)
		}
		for i := range hits {
			hits[i].E0.Seq += uint32(lo)
		}
		lp.hits += len(hits)

		t = time.Now()
		as, gs, err := gapped.RunWithStats(q, b1, hits, gcfg)
		lp.gapped += time.Since(t)
		if err != nil {
			return nil, fmt.Errorf("step 3 shard %d: %w", lo, err)
		}
		addWork(&lp.work, &gs)
		lp.aligns = append(lp.aligns, as...)
		lo = hi
	}
	sort.SliceStable(lp.aligns, func(i, j int) bool {
		a, b := &lp.aligns[i], &lp.aligns[j]
		if a.Seq0 != b.Seq0 {
			return a.Seq0 < b.Seq0
		}
		if a.EValue != b.EValue {
			return a.EValue < b.EValue
		}
		return a.Seq1 < b.Seq1
	})
	lp.matches = len(lp.aligns)
	return lp, nil
}

// checkMatches reports how the pass's alignments differ from a
// Search's matches, compared bit for bit.
func (lp *layerPass) checkMatches(ms []core.Match) error {
	if len(ms) != len(lp.aligns) {
		return fmt.Errorf("layer pass has %d alignments, Search %d", len(lp.aligns), len(ms))
	}
	for i := range ms {
		if !sameAlignment(&ms[i].Alignment, &lp.aligns[i]) {
			return fmt.Errorf("alignment %d differs: layer pass %+v, Search %+v", i, lp.aligns[i], ms[i].Alignment)
		}
	}
	return nil
}

// checkAgainst is checkMatches plus the Search summary's work counters.
func (lp *layerPass) checkAgainst(ms []core.Match, sum *core.Summary) error {
	if err := lp.checkMatches(ms); err != nil {
		return err
	}
	pm := &sum.Pipeline
	switch {
	case sum.Pairs != lp.pairs:
		return fmt.Errorf("pairs: layer pass %d, Search %d", lp.pairs, sum.Pairs)
	case sum.Hits != lp.hits:
		return fmt.Errorf("hits: layer pass %d, Search %d", lp.hits, sum.Hits)
	case sum.GappedWork != lp.work:
		return fmt.Errorf("step-3 work: layer pass %+v, Search %+v", lp.work, sum.GappedWork)
	case pm.PrefilterKept != lp.kept || pm.PrefilterDropped != lp.dropped:
		return fmt.Errorf("prefilter kept/dropped: layer pass %d/%d, Search %d/%d",
			lp.kept, lp.dropped, pm.PrefilterKept, pm.PrefilterDropped)
	}
	return nil
}

// sameMatches reports whether two searches returned the same matches,
// alignments compared bit for bit.
func sameMatches(a, b []core.Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameAlignment(&a[i].Alignment, &b[i].Alignment) || a[i].Query != b[i].Query || a[i].Subject != b[i].Subject {
			return false
		}
	}
	return true
}

func sameAlignment(a, b *gapped.Alignment) bool {
	return a.Seq0 == b.Seq0 && a.Seq1 == b.Seq1 && a.Score == b.Score && a.Q == b.Q && a.S == b.S &&
		a.BitScore == b.BitScore && a.EValue == b.EValue && slices.Equal(a.Ops, b.Ops)
}
