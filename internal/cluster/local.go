package cluster

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"seedblast/internal/bank"
	"seedblast/internal/core"
	"seedblast/internal/gapped"
	"seedblast/internal/pipeline"
	"seedblast/internal/stats"
)

// LocalConfig tunes the in-process scatter-gather.
type LocalConfig struct {
	// Partitioner cuts the subject bank into volumes. Nil means
	// SizeBalanced.
	Partitioner Partitioner
	// Volumes is how many volumes to cut. Zero means GOMAXPROCS
	// (capped at the subject sequence count by the partitioner).
	Volumes int
	// Parallel bounds how many volumes are compared at once. Zero
	// means all of them.
	Parallel int
}

// Local runs the cluster's scatter-gather inside one process: the
// subject bank is partitioned exactly like the distributed
// coordinator's, but each volume runs through its own pipeline engine
// via core.CompareContext instead of a remote worker — the
// single-binary multi-socket deployment, and the reference
// implementation the HTTP path is equivalence-tested against. A Local
// is safe for concurrent use.
type Local struct {
	cfg LocalConfig
}

// NewLocal returns an in-process scatter-gather runner.
func NewLocal(cfg LocalConfig) *Local {
	if cfg.Partitioner == nil {
		cfg.Partitioner = SizeBalanced{}
	}
	if cfg.Volumes <= 0 {
		cfg.Volumes = runtime.GOMAXPROCS(0)
	}
	return &Local{cfg: cfg}
}

// LocalResult is the merged outcome of an in-process scatter-gather
// run.
type LocalResult struct {
	// Alignments are globally numbered and ranked exactly as a
	// single-node core.Compare over the unpartitioned bank.
	Alignments []gapped.Alignment
	Hits       int
	Pairs      int64
	GappedWork gapped.Stats

	// Volumes is the partition used; PerVolume[i] is volume i's engine
	// accounting (its skew across volumes is the load-balance signal),
	// and Metrics merges them (aggregate work, not elapsed time).
	Volumes   []Volume
	PerVolume []pipeline.Metrics
	Metrics   pipeline.Metrics
}

// Compare partitions the subject bank and runs one comparison per
// volume, each with the full bank's search-space geometry, then
// merges. Options semantics match core.Compare; a caller-provided
// SubjectIndex is rejected (it describes the unpartitioned bank, and
// silently dropping it would hide the performance regression).
func (l *Local) Compare(pctx context.Context, query, subject *bank.Bank, opt core.Options) (*LocalResult, error) {
	if query == nil || subject == nil {
		return nil, fmt.Errorf("cluster: Compare needs both banks")
	}
	if opt.SubjectIndex != nil {
		return nil, fmt.Errorf("cluster: SubjectIndex is whole-bank; it cannot be reused across volumes")
	}
	lens := make([]int, subject.Len())
	for i := range lens {
		lens[i] = len(subject.Seq(i))
	}
	vols := l.cfg.Partitioner.Partition(lens, l.cfg.Volumes)
	if err := checkPartition(lens, vols); err != nil {
		return nil, fmt.Errorf("%w (partitioner %q)", err, l.cfg.Partitioner.Name())
	}
	opt.SearchSpaceOverride = stats.SearchSpace{DBLen: subject.TotalResidues(), DBSeqs: subject.Len()}

	parallel := l.cfg.Parallel
	if parallel <= 0 || parallel > len(vols) {
		parallel = len(vols)
	}

	ctx, cancel := context.WithCancel(pctx)
	defer cancel()
	var (
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}

	perVol := make([]*core.Result, len(vols))
	sem := make(chan struct{}, parallel)
	var wg sync.WaitGroup
	for vi := range vols {
		wg.Add(1)
		go func(vi int) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				return
			}
			defer func() { <-sem }()
			sub := bank.New(fmt.Sprintf("%s/vol%d", subject.Name(), vi))
			for _, gi := range vols[vi].Seqs {
				sub.Add(subject.ID(gi), subject.Seq(gi))
			}
			res, err := core.CompareContext(ctx, query, sub, opt)
			if err != nil {
				fail(fmt.Errorf("cluster: volume %d: %w", vi, err))
				return
			}
			perVol[vi] = res
		}(vi)
	}
	wg.Wait()
	if perr := pctx.Err(); perr != nil {
		return nil, perr
	}
	if firstErr != nil {
		return nil, firstErr
	}

	out := &LocalResult{Volumes: vols, PerVolume: make([]pipeline.Metrics, len(vols))}
	aligns := make([][]gapped.Alignment, len(vols))
	for vi, res := range perVol {
		aligns[vi] = res.Alignments
		out.Hits += res.Hits
		out.Pairs += res.Pairs
		out.GappedWork.Add(res.GappedWork)
		out.PerVolume[vi] = res.Pipeline
		out.Metrics.Merge(&res.Pipeline)
	}
	out.Alignments = MergeAlignments(vols, aligns)
	return out, nil
}
