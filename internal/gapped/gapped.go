// Package gapped implements step 3 of the paper's algorithm: hits
// surviving the ungapped filter are extended with a banded affine-gap
// local alignment around the seed diagonal, scored with gapped
// Karlin-Altschul statistics, filtered at the configured E-value
// (the paper compares against tblastn at E ≤ 10⁻³) and de-duplicated
// so each similarity region is reported once.
package gapped

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"seedblast/internal/align"
	"seedblast/internal/bank"
	"seedblast/internal/matrix"
	"seedblast/internal/stats"
	"seedblast/internal/ungapped"
)

// Alignment is one reported similarity region between a bank-0 and a
// bank-1 sequence.
type Alignment struct {
	Seq0, Seq1 int // sequence numbers in their banks
	Score      int
	BitScore   float64
	EValue     float64
	Q          Span // range in the bank-0 sequence
	S          Span // range in the bank-1 sequence
	Ops        []align.Op
}

// Span is a half-open residue range.
type Span struct{ Start, End int }

// Len returns the span length.
func (s Span) Len() int { return s.End - s.Start }

// Config parameterises the gapped stage.
type Config struct {
	Matrix *matrix.Matrix
	Gaps   align.GapParams
	Band   int // half-width of the alignment band around the seed diagonal
	// GapTrigger is the raw score a cheap ungapped X-drop extension of
	// the hit must reach before the banded dynamic programming runs, as
	// in NCBI BLAST. Zero disables the pre-filter.
	GapTrigger int
	// XDrop is the X-drop used by the pre-filter extension.
	XDrop     int
	Params    stats.Params // gapped Karlin-Altschul parameters
	MaxEValue float64
	// SearchSpace fixes the database geometry E-values are computed
	// against. The zero value derives n from the subject bank passed to
	// Run — correct for a whole-bank comparison. A coordinator that
	// scatters volumes of a larger bank sets the full bank's geometry
	// here so each volume's E-values (and the MaxEValue cut) match an
	// unpartitioned run exactly.
	SearchSpace stats.SearchSpace
	// Traceback records alignment operations for reporting. The
	// traceback DP runs unbanded over the subject window, so it is
	// slower and can find alignments that escape the band.
	Traceback bool
	Workers   int // 0 means GOMAXPROCS
}

// DefaultConfig returns the stage defaults: BLOSUM62, BLAST gap costs,
// band 16, gap trigger 41 (NCBI's default, in raw BLOSUM62 units),
// published gapped statistics and the paper's E ≤ 10⁻³.
func DefaultConfig() Config {
	return Config{
		Matrix:     matrix.BLOSUM62,
		Gaps:       align.DefaultGaps,
		Band:       16,
		GapTrigger: 41,
		XDrop:      16,
		Params:     stats.GappedBLOSUM62,
		MaxEValue:  1e-3,
	}
}

// Stats describes the work the gapped stage performed; the simulated
// gap-extension operator (the paper's future-work second FPGA design)
// derives its cycle count from these.
//
// Every hit lands in exactly one of Contained, PreFiltered and
// Extended, so Hits == Contained + PreFiltered + Extended.
type Stats struct {
	Hits int // hits received from step 2
	// Contained counts hits skipped without a DP: the seed lies inside
	// an already-reported alignment, or on a diagonal the pair has
	// already extended (whose DP would return the same result again).
	Contained   int
	PreFiltered int   // dropped by the gap-trigger pre-filter
	Extended    int   // banded DPs actually run
	DPRows      int64 // Σ query lengths over extended DPs
	DPCells     int64 // Σ query length × band width over extended DPs
}

// Add folds o's counts into st.
func (st *Stats) Add(o Stats) {
	st.Hits += o.Hits
	st.Contained += o.Contained
	st.PreFiltered += o.PreFiltered
	st.Extended += o.Extended
	st.DPRows += o.DPRows
	st.DPCells += o.DPCells
}

// Run extends hits into alignments. b0 and b1 are the banks the hits'
// entries refer to. Results are de-duplicated per sequence pair and
// sorted by (Seq0, EValue, Seq1), ties broken by (Q, S) ranges.
func Run(b0, b1 *bank.Bank, hits []ungapped.Hit, cfg Config) ([]Alignment, error) {
	as, _, err := RunWithStats(b0, b1, hits, cfg)
	return as, err
}

// RunWithStats is Run plus work statistics.
func RunWithStats(b0, b1 *bank.Bank, hits []ungapped.Hit, cfg Config) ([]Alignment, Stats, error) {
	if cfg.Matrix == nil {
		return nil, Stats{}, fmt.Errorf("gapped: matrix is required")
	}
	if cfg.Band <= 0 {
		return nil, Stats{}, fmt.Errorf("gapped: band must be positive, got %d", cfg.Band)
	}
	if cfg.MaxEValue <= 0 {
		return nil, Stats{}, fmt.Errorf("gapped: MaxEValue must be positive, got %g", cfg.MaxEValue)
	}
	if err := cfg.SearchSpace.Validate(); err != nil {
		return nil, Stats{}, fmt.Errorf("gapped: %w", err)
	}

	// Group hits by sequence pair, preserving deterministic order.
	type pairKey struct{ s0, s1 uint32 }
	groups := make(map[pairKey][]ungapped.Hit)
	var order []pairKey
	for _, h := range hits {
		k := pairKey{h.E0.Seq, h.E1.Seq}
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], h)
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(order) {
		workers = max(len(order), 1)
	}
	space := cfg.SearchSpace
	if space.IsZero() {
		space = stats.SearchSpace{DBLen: b1.TotalResidues(), DBSeqs: b1.Len()}
	}

	type groupResult struct {
		as []Alignment
		st Stats
	}
	results := make([]groupResult, len(order))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &worker{al: align.NewAligner(cfg.Matrix, cfg.Gaps)}
			for gi := range next {
				k := order[gi]
				results[gi].as, results[gi].st = w.extendGroup(
					b0.Seq(int(k.s0)), b1.Seq(int(k.s1)),
					int(k.s0), int(k.s1), groups[k], &cfg, space)
			}
		}()
	}
	for gi := range order {
		next <- gi
	}
	close(next)
	wg.Wait()

	var out []Alignment
	var stats Stats
	for _, r := range results {
		out = append(out, r.as...)
		stats.Add(r.st)
	}
	sortAlignments(out)
	return out, stats, nil
}

// sortAlignments puts alignments in Run's output order.
func sortAlignments(as []Alignment) {
	slices.SortFunc(as, func(a, b Alignment) int {
		return cmp.Or(cmp.Compare(a.Seq0, b.Seq0), cmp.Compare(a.EValue, b.EValue),
			cmp.Compare(a.Seq1, b.Seq1), compareRanges(&a, &b))
	})
}

// compareRanges orders alignments by (Q.Start, Q.End, S.Start, S.End),
// the tie-break that makes the output order independent of the order
// the sorts receive equal-score alignments in.
func compareRanges(a, b *Alignment) int {
	return cmp.Or(cmp.Compare(a.Q.Start, b.Q.Start), cmp.Compare(a.Q.End, b.Q.End),
		cmp.Compare(a.S.Start, b.S.Start), cmp.Compare(a.S.End, b.S.End))
}

// worker is one step-3 goroutine's reusable state.
type worker struct {
	al    *align.Aligner
	diags []int // diagonals (sPos − qPos) already extended in the current pair
}

// extendGroup processes all hits of one (seq0, seq1) pair: hits whose
// seed lands inside an alignment already found on a nearby diagonal are
// skipped (BLAST's containment rule), as are hits on a diagonal the pair
// has already extended; the others are extended with a banded local
// alignment around their diagonal.
func (w *worker) extendGroup(q, s []byte, seq0, seq1 int,
	hits []ungapped.Hit, cfg *Config, space stats.SearchSpace) ([]Alignment, Stats) {
	var found []Alignment
	st := Stats{Hits: len(hits)}
	w.diags = w.diags[:0]
	for _, h := range hits {
		qPos, sPos := int(h.E0.Off), int(h.E1.Off)
		if contained(found, qPos, sPos, cfg.Band) {
			st.Contained++
			continue
		}
		// extendOne's result depends on the diagonal alone, so a second
		// DP on it would return the earlier result: already in found,
		// or rejected.
		d := sPos - qPos
		if slices.Contains(w.diags, d) {
			st.Contained++
			continue
		}
		// Cheap pre-filter: an ungapped X-drop extension anchored at the
		// seed's first residue must reach the gap trigger before the
		// banded DP is paid for (NCBI's two-stage extension). Chance
		// hits from the ungapped window filter rarely extend.
		if cfg.GapTrigger > 0 {
			ext := align.ExtendUngapped(q, s, qPos, sPos, 1, cfg.XDrop, cfg.Matrix)
			if ext.Score < cfg.GapTrigger {
				st.PreFiltered++
				continue
			}
		}
		w.diags = append(w.diags, d)
		st.Extended++
		st.DPRows += int64(len(q))
		st.DPCells += int64(len(q)) * int64(2*cfg.Band+1)
		if a, ok := extendOne(w.al, q, s, d, cfg, space); ok {
			a.Seq0, a.Seq1 = seq0, seq1
			found = append(found, a)
		}
	}
	return dedup(found), st
}

// extendOne aligns the full query against a subject window around
// diagonal d (sPos − qPos) and reports the alignment, in subject
// coordinates, when it passes the E-value cut. The banded DP scores
// first; start recovery runs only for alignments that are kept.
func extendOne(al *align.Aligner, q, s []byte, d int, cfg *Config, space stats.SearchSpace) (Alignment, bool) {
	slack := cfg.Band + 8
	winStart := max(0, d-slack)
	winEnd := min(len(s), d+len(q)+slack)
	window := s[winStart:winEnd]
	diag := d - winStart

	var loc align.Local
	var ops []align.Op
	if cfg.Traceback {
		loc, ops = al.Traceback(q, window)
	} else {
		loc = al.LocalBandedEnd(q, window, diag, cfg.Band)
	}
	if loc.Score <= 0 {
		return Alignment{}, false
	}
	ev := cfg.Params.EValueIn(loc.Score, len(q), space)
	if ev > cfg.MaxEValue {
		return Alignment{}, false
	}
	if !cfg.Traceback {
		loc = al.LocalBandedStart(q, window, diag, cfg.Band, loc)
	}
	return Alignment{
		Score:    loc.Score,
		BitScore: cfg.Params.BitScore(loc.Score),
		EValue:   ev,
		Q:        Span{loc.AStart, loc.AEnd},
		S:        Span{loc.BStart + winStart, loc.BEnd + winStart},
		Ops:      ops,
	}, true
}

// contained reports whether the seed (qPos, sPos) lies inside an
// already-reported alignment on a nearby diagonal.
func contained(found []Alignment, qPos, sPos, band int) bool {
	for i := range found {
		a := &found[i]
		if qPos >= a.Q.Start && qPos < a.Q.End &&
			sPos >= a.S.Start && sPos < a.S.End {
			d := (sPos - qPos) - (a.S.Start - a.Q.Start)
			if d >= -band && d <= band {
				return true
			}
		}
	}
	return false
}

// dedup removes alignments whose query and subject ranges are both
// contained in a higher-scoring alignment of the same pair, or in an
// equal-scoring one that sorts first by ranges. The stable sort keeps
// the first of identical alignments, so dropping a repeat of an earlier
// alignment cannot change the result.
func dedup(as []Alignment) []Alignment {
	if len(as) <= 1 {
		return as
	}
	slices.SortStableFunc(as, func(a, b Alignment) int {
		return cmp.Or(cmp.Compare(b.Score, a.Score), compareRanges(&a, &b))
	})
	var out []Alignment
	for _, a := range as {
		keep := true
		for _, b := range out {
			if a.Q.Start >= b.Q.Start && a.Q.End <= b.Q.End &&
				a.S.Start >= b.S.Start && a.S.End <= b.S.End {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, a)
		}
	}
	return out
}
