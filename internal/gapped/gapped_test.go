package gapped

import (
	"fmt"
	"reflect"
	"testing"

	"seedblast/internal/align"
	"seedblast/internal/alphabet"
	"seedblast/internal/bank"
	"seedblast/internal/index"
	"seedblast/internal/matrix"
	"seedblast/internal/seed"
	"seedblast/internal/stats"
	"seedblast/internal/ungapped"
)

// runPipelineUpTo2 indexes two banks and runs step 2, returning
// everything step 3 needs.
func runPipelineUpTo2(t *testing.T, b0, b1 *bank.Bank, threshold int) []ungapped.Hit {
	t.Helper()
	model := seed.Default()
	ix0, err := index.Build(b0, model, 8)
	if err != nil {
		t.Fatal(err)
	}
	ix1, err := index.Build(b1, model, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ungapped.Run(ix0, ix1, ungapped.Config{Matrix: matrix.BLOSUM62, Threshold: threshold})
	if err != nil {
		t.Fatal(err)
	}
	return res.Hits
}

func homologPair(t *testing.T) (*bank.Bank, *bank.Bank) {
	t.Helper()
	rng := bank.NewRNG(7)
	ancestor := bank.RandomProtein(rng, 180)
	b0 := bank.New("q")
	b0.Add("query", ancestor)
	b0.Add("noise", bank.RandomProtein(rng, 180))
	b1 := bank.New("s")
	b1.Add("subject", bank.MutateProtein(rng, ancestor, 0.2))
	b1.Add("decoy", bank.RandomProtein(rng, 180))
	return b0, b1
}

func TestRunFindsHomolog(t *testing.T) {
	b0, b1 := homologPair(t)
	hits := runPipelineUpTo2(t, b0, b1, 25)
	if len(hits) == 0 {
		t.Fatal("step 2 produced no hits for a 80%-identical pair")
	}
	cfg := DefaultConfig()
	as, err := Run(b0, b1, hits, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(as) == 0 {
		t.Fatal("no gapped alignments")
	}
	top := as[0]
	if top.Seq0 != 0 || top.Seq1 != 0 {
		t.Errorf("top alignment is %d vs %d, want the homolog pair 0/0", top.Seq0, top.Seq1)
	}
	if top.EValue > 1e-3 {
		t.Errorf("homolog E-value %g too weak", top.EValue)
	}
	if top.Q.Len() < 100 {
		t.Errorf("alignment covers only %d residues", top.Q.Len())
	}
}

func TestRunRespectsEValueCutoff(t *testing.T) {
	b0, b1 := homologPair(t)
	hits := runPipelineUpTo2(t, b0, b1, 25)
	cfg := DefaultConfig()
	cfg.MaxEValue = 1e-300 // impossible
	as, err := Run(b0, b1, hits, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 0 {
		t.Errorf("%d alignments passed an impossible cutoff", len(as))
	}
}

func TestRunDedupsPerPair(t *testing.T) {
	// A long shared region yields many seed hits; the pair must still be
	// reported a bounded number of times (not once per seed).
	b0, b1 := homologPair(t)
	hits := runPipelineUpTo2(t, b0, b1, 25)
	if len(hits) < 3 {
		t.Skip("not enough hits to test dedup")
	}
	as, err := Run(b0, b1, hits, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, a := range as {
		if a.Seq0 == 0 && a.Seq1 == 0 {
			count++
		}
	}
	if count > 2 {
		t.Errorf("homolog pair reported %d times (hits: %d)", count, len(hits))
	}
}

func TestRunTracebackOps(t *testing.T) {
	b0, b1 := homologPair(t)
	hits := runPipelineUpTo2(t, b0, b1, 25)
	cfg := DefaultConfig()
	cfg.Traceback = true
	as, err := Run(b0, b1, hits, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(as) == 0 {
		t.Fatal("no alignments")
	}
	a := as[0]
	if len(a.Ops) == 0 {
		t.Fatal("traceback requested but no ops")
	}
	// Ops must consume exactly the reported spans.
	var qc, sc int
	for _, op := range a.Ops {
		switch op.Kind {
		case 'M':
			qc += op.Len
			sc += op.Len
		case 'I':
			sc += op.Len
		case 'D':
			qc += op.Len
		}
	}
	if qc != a.Q.Len() || sc != a.S.Len() {
		t.Errorf("ops consume (%d,%d), spans are (%d,%d)", qc, sc, a.Q.Len(), a.S.Len())
	}
}

func TestRunDeterministicAcrossWorkers(t *testing.T) {
	b0, b1 := homologPair(t)
	hits := runPipelineUpTo2(t, b0, b1, 22)
	var ref []Alignment
	for _, workers := range []int{1, 2, 5} {
		cfg := DefaultConfig()
		cfg.Workers = workers
		as, err := Run(b0, b1, hits, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = as
			continue
		}
		if len(as) != len(ref) {
			t.Fatalf("workers=%d: %d alignments, want %d", workers, len(as), len(ref))
		}
		for i := range as {
			if as[i].Score != ref[i].Score || as[i].Seq0 != ref[i].Seq0 ||
				as[i].Seq1 != ref[i].Seq1 || as[i].Q != ref[i].Q || as[i].S != ref[i].S {
				t.Fatalf("workers=%d: alignment %d differs", workers, i)
			}
		}
	}
}

func TestRunValidation(t *testing.T) {
	b := bank.New("b")
	b.Add("s", alphabet.MustEncodeProtein("ARND"))
	cfg := DefaultConfig()
	cfg.Matrix = nil
	if _, err := Run(b, b, nil, cfg); err == nil {
		t.Error("nil matrix accepted")
	}
	cfg = DefaultConfig()
	cfg.Band = 0
	if _, err := Run(b, b, nil, cfg); err == nil {
		t.Error("zero band accepted")
	}
	cfg = DefaultConfig()
	cfg.MaxEValue = 0
	if _, err := Run(b, b, nil, cfg); err == nil {
		t.Error("zero cutoff accepted")
	}
}

func TestRunEmptyHits(t *testing.T) {
	b := bank.New("b")
	b.Add("s", alphabet.MustEncodeProtein("ARND"))
	as, err := Run(b, b, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 0 {
		t.Error("alignments from no hits")
	}
}

func TestSpanLen(t *testing.T) {
	if (Span{3, 10}).Len() != 7 {
		t.Error("Span.Len wrong")
	}
}

func TestRandomBanksFewFalsePositives(t *testing.T) {
	// Unrelated random banks at the default cutoff: chance alignments at
	// E ≤ 10⁻³ should essentially never appear at this scale.
	rng := bank.NewRNG(1234)
	b0 := bank.New("r0")
	b1 := bank.New("r1")
	for i := 0; i < 5; i++ {
		b0.Add(string(rune('a'+i)), bank.RandomProtein(rng, 200))
		b1.Add(string(rune('A'+i)), bank.RandomProtein(rng, 200))
	}
	hits := runPipelineUpTo2(t, b0, b1, 25)
	as, err := Run(b0, b1, hits, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(as) > 1 {
		t.Errorf("%d chance alignments passed E ≤ 1e-3", len(as))
	}
}

func TestDedupRemovesContainedAlignments(t *testing.T) {
	as := []Alignment{
		{Seq0: 0, Seq1: 0, Score: 100, Q: Span{0, 100}, S: Span{0, 100}},
		{Seq0: 0, Seq1: 0, Score: 40, Q: Span{10, 50}, S: Span{10, 50}},     // contained
		{Seq0: 0, Seq1: 0, Score: 60, Q: Span{150, 220}, S: Span{150, 220}}, // disjoint
	}
	out := dedup(as)
	if len(out) != 2 {
		t.Fatalf("dedup kept %d alignments, want 2", len(out))
	}
	if out[0].Score != 100 || out[1].Score != 60 {
		t.Errorf("wrong survivors: %+v", out)
	}
}

func TestDedupKeepsPartialOverlaps(t *testing.T) {
	as := []Alignment{
		{Score: 100, Q: Span{0, 100}, S: Span{0, 100}},
		{Score: 80, Q: Span{50, 150}, S: Span{50, 150}}, // overlaps but not contained
	}
	if out := dedup(as); len(out) != 2 {
		t.Fatalf("partial overlap wrongly removed: %d", len(out))
	}
}

func TestDedupSingleton(t *testing.T) {
	as := []Alignment{{Score: 10}}
	if len(dedup(as)) != 1 || len(dedup(nil)) != 0 {
		t.Error("trivial dedup cases wrong")
	}
}

func TestGapTriggerDisabledExtendsEverything(t *testing.T) {
	b0, b1 := homologPair(t)
	hits := runPipelineUpTo2(t, b0, b1, 25)
	on := DefaultConfig()
	off := DefaultConfig()
	off.GapTrigger = 0
	asOn, stOn, err := RunWithStats(b0, b1, hits, on)
	if err != nil {
		t.Fatal(err)
	}
	asOff, stOff, err := RunWithStats(b0, b1, hits, off)
	if err != nil {
		t.Fatal(err)
	}
	if stOff.PreFiltered != 0 {
		t.Error("disabled trigger still pre-filtered")
	}
	if stOff.Extended < stOn.Extended {
		t.Error("disabled trigger should extend at least as many hits")
	}
	// The homolog must be found either way.
	if len(asOn) == 0 || len(asOff) == 0 {
		t.Error("homolog lost")
	}
	if asOn[0].Score != asOff[0].Score {
		t.Errorf("top score differs with/without trigger: %d vs %d",
			asOn[0].Score, asOff[0].Score)
	}
}

func TestStatsAccounting(t *testing.T) {
	b0, b1 := homologPair(t)
	hits := runPipelineUpTo2(t, b0, b1, 25)
	_, st, err := RunWithStats(b0, b1, hits, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if st.Hits != len(hits) {
		t.Errorf("Hits = %d, want %d", st.Hits, len(hits))
	}
	if st.Contained+st.PreFiltered+st.Extended != st.Hits {
		t.Errorf("funnel does not partition the hits: %+v", st)
	}
	if st.Extended > 0 && st.DPCells <= st.DPRows {
		t.Errorf("DP volume inconsistent: %+v", st)
	}
}

// refExtendGroup is extendGroup as it was before the per-pair diagonal
// memo and score-first start recovery: every hit that is neither
// contained nor pre-filtered pays for the full DP, start recovery
// included, even on a diagonal the pair has already extended. It
// returns each hit's fate ('c' contained, 'p' pre-filtered, 'e'
// extended) and diagonal for funnel.
func refExtendGroup(al *align.Aligner, q, s []byte, seq0, seq1 int,
	hits []ungapped.Hit, cfg *Config, space stats.SearchSpace) ([]Alignment, []hitFate) {
	var found []Alignment
	fates := make([]hitFate, len(hits))
	for i, h := range hits {
		qPos, sPos := int(h.E0.Off), int(h.E1.Off)
		fates[i] = hitFate{kind: 'c', diag: sPos - qPos}
		if contained(found, qPos, sPos, cfg.Band) {
			continue
		}
		fates[i].kind = 'p'
		if cfg.GapTrigger > 0 {
			ext := align.ExtendUngapped(q, s, qPos, sPos, 1, cfg.XDrop, cfg.Matrix)
			if ext.Score < cfg.GapTrigger {
				continue
			}
		}
		fates[i].kind = 'e'
		slack := cfg.Band + 8
		winStart := max(0, sPos-qPos-slack)
		winEnd := min(len(s), sPos+(len(q)-qPos)+slack)
		window := s[winStart:winEnd]
		diag := (sPos - winStart) - qPos
		var loc align.Local
		var ops []align.Op
		if cfg.Traceback {
			loc, ops = al.Traceback(q, window)
		} else {
			loc = al.LocalBanded(q, window, diag, cfg.Band)
		}
		if loc.Score <= 0 {
			continue
		}
		ev := cfg.Params.EValueIn(loc.Score, len(q), space)
		if ev > cfg.MaxEValue {
			continue
		}
		found = append(found, Alignment{
			Seq0:     seq0,
			Seq1:     seq1,
			Score:    loc.Score,
			BitScore: cfg.Params.BitScore(loc.Score),
			EValue:   ev,
			Q:        Span{loc.AStart, loc.AEnd},
			S:        Span{loc.BStart + winStart, loc.BEnd + winStart},
			Ops:      ops,
		})
	}
	return dedup(found), fates
}

type hitFate struct {
	kind byte
	diag int
}

// funnel counts one pair's hit fates into Stats. With memo, a hit that
// the reference extended or pre-filtered on a diagonal it had already
// extended counts as Contained instead, as the diagonal memo skips it.
func funnel(fates []hitFate, qLen int, cfg *Config, memo bool) Stats {
	st := Stats{Hits: len(fates)}
	extended := make(map[int]bool)
	for _, f := range fates {
		switch {
		case f.kind == 'c' || memo && extended[f.diag]:
			st.Contained++
		case f.kind == 'p':
			st.PreFiltered++
		default:
			extended[f.diag] = true
			st.Extended++
			st.DPRows += int64(qLen)
			st.DPCells += int64(qLen) * int64(2*cfg.Band+1)
		}
	}
	return st
}

// refRun is RunWithStats over refExtendGroup, serially. It returns the
// reference's own funnel and the funnel the memo must report.
func refRun(b0, b1 *bank.Bank, hits []ungapped.Hit, cfg Config) (as []Alignment, plain, memo Stats) {
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
	space := stats.SearchSpace{DBLen: b1.TotalResidues(), DBSeqs: b1.Len()}
	al := align.NewAligner(cfg.Matrix, cfg.Gaps)
	for _, k := range order {
		q := b0.Seq(int(k.s0))
		pas, fates := refExtendGroup(al, q, b1.Seq(int(k.s1)),
			int(k.s0), int(k.s1), groups[k], &cfg, space)
		as = append(as, pas...)
		plain.Add(funnel(fates, len(q), &cfg, false))
		memo.Add(funnel(fates, len(q), &cfg, true))
	}
	sortAlignments(as)
	return as, plain, memo
}

// memoWorkload is a hit set with planted homologs (one of them a
// tandem duplicate, so one pair aligns on two diagonals), two planted
// segments too short to pass the E-value cut (their DPs are rejected) and
// many repeated diagonals: step 2's hits plus, for a third of them, a
// copy slid along the diagonal and an exact repeat, in shuffled order.
func memoWorkload(t *testing.T) (*bank.Bank, *bank.Bank, []ungapped.Hit) {
	rng := bank.NewRNG(11)
	b0 := bank.New("q")
	b1 := bank.New("s")
	for i := 0; i < 8; i++ {
		anc := bank.RandomProtein(rng, 120+30*i)
		b0.Add(fmt.Sprintf("q%d", i), anc)
		switch i {
		case 0, 1:
			b1.Add(fmt.Sprintf("h%d", i), bank.InsertIndels(rng, bank.MutateProtein(rng, anc, 0.3), 0.02))
		case 2:
			dup := append(bank.MutateProtein(rng, anc, 0.2), bank.RandomProtein(rng, 40)...)
			b1.Add("tandem", append(dup, bank.MutateProtein(rng, anc, 0.25)...))
		case 3, 4:
			short := append(bank.RandomProtein(rng, 80), anc[20:29]...)
			b1.Add(fmt.Sprintf("short%d", i), append(short, bank.RandomProtein(rng, 80)...))
		default:
			b1.Add(fmt.Sprintf("r%d", i), bank.RandomProtein(rng, 200))
		}
	}
	hits := runPipelineUpTo2(t, b0, b1, 18)
	n := len(hits)
	for i := 0; i < n; i += 3 {
		h := hits[i]
		hits = append(hits, h)
		k := uint32(1 + rng.Intn(5))
		if int(h.E0.Off+k) < len(b0.Seq(int(h.E0.Seq))) && int(h.E1.Off+k) < len(b1.Seq(int(h.E1.Seq))) {
			h.E0.Off += k
			h.E1.Off += k
			hits = append(hits, h)
		}
	}
	rng.Shuffle(len(hits), func(i, j int) { hits[i], hits[j] = hits[j], hits[i] })
	return b0, b1, hits
}

func TestRunMatchesPreMemoReference(t *testing.T) {
	b0, b1, hits := memoWorkload(t)
	for _, traceback := range []bool{false, true} {
		for _, trigger := range []int{DefaultConfig().GapTrigger, 0} {
			cfg := DefaultConfig()
			cfg.Traceback = traceback
			cfg.GapTrigger = trigger
			want, refSt, wantSt := refRun(b0, b1, hits, cfg)
			if len(want) == 0 {
				t.Fatalf("traceback=%v trigger=%d: the reference found no alignments", traceback, trigger)
			}
			if wantSt.Extended >= refSt.Extended || wantSt.Contained+wantSt.PreFiltered+wantSt.Extended != len(hits) {
				t.Fatalf("traceback=%v trigger=%d: no repeated diagonal to skip, or a broken funnel: reference %+v, memo %+v",
					traceback, trigger, refSt, wantSt)
			}
			for _, workers := range []int{1, 2, 4} {
				cfg.Workers = workers
				got, st, err := RunWithStats(b0, b1, hits, cfg)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("traceback=%v trigger=%d workers=%d", traceback, trigger, workers)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: alignments differ from the reference\ngot  %+v\nwant %+v", name, got, want)
				}
				if st != wantSt {
					t.Errorf("%s: funnel %+v, want %+v (the reference ran %d DPs)", name, st, wantSt, refSt.Extended)
				}
			}
		}
	}
}

func TestDedupIgnoresInputOrderOfTies(t *testing.T) {
	// Equal scores: the lower-starting alignment contains the other, so
	// it must survive alone whichever order the two arrive in.
	big := Alignment{Score: 50, Q: Span{0, 60}, S: Span{0, 60}}
	small := Alignment{Score: 50, Q: Span{10, 40}, S: Span{10, 40}}
	for _, in := range [][]Alignment{{big, small}, {small, big}} {
		out := dedup(in)
		if len(out) != 1 || out[0].Q != big.Q {
			t.Errorf("dedup(%v) = %v, want only %v", in, out, big.Q)
		}
	}
}

// BenchmarkGappedRun measures step 3 on a chance-hit-dominated hit set,
// the tblastn shape: 40 queries against long random subjects and two
// planted homologs, with step 2's threshold lowered to 30 so that most
// hits are chance ones that die at the gap trigger or the E-value cut.
// It reports ns per step-2 hit.
func BenchmarkGappedRun(b *testing.B) {
	rng := bank.NewRNG(5)
	b0 := bank.New("q")
	b1 := bank.New("s")
	for i := 0; i < 40; i++ {
		q := bank.RandomProtein(rng, 340)
		b0.Add(fmt.Sprintf("q%d", i), q)
		if i%20 == 0 {
			b1.Add(fmt.Sprintf("h%d", i), bank.MutateProtein(rng, q, 0.3))
		}
	}
	for i := 0; i < 20; i++ {
		b1.Add(fmt.Sprintf("r%d", i), bank.RandomProtein(rng, 3000))
	}
	model := seed.Default()
	ix0, err := index.Build(b0, model, 8)
	if err != nil {
		b.Fatal(err)
	}
	ix1, err := index.Build(b1, model, 8)
	if err != nil {
		b.Fatal(err)
	}
	res, err := ungapped.Run(ix0, ix1, ungapped.Config{Matrix: matrix.BLOSUM62, Threshold: 30, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Workers = 1
	for b.Loop() {
		if _, _, err := RunWithStats(b0, b1, res.Hits, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(len(res.Hits)*b.N), "ns/hit")
}
