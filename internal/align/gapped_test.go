package align

import (
	"strings"
	"testing"
	"testing/quick"

	"seedblast/internal/alphabet"
	"seedblast/internal/matrix"
)

// naiveAffine is an independent full three-matrix affine local
// alignment used as the reference implementation in tests.
func naiveAffine(a, b []byte, m *matrix.Matrix, gap GapParams) int {
	n0, n1 := len(a), len(b)
	const ninf = -1 << 28
	H := mkMat(n0+1, n1+1, 0)
	E := mkMat(n0+1, n1+1, ninf) // gap in a (horizontal)
	F := mkMat(n0+1, n1+1, ninf) // gap in b (vertical)
	best := 0
	for i := 1; i <= n0; i++ {
		for j := 1; j <= n1; j++ {
			E[i][j] = maxInt(H[i][j-1]-gap.Open-gap.Extend, E[i][j-1]-gap.Extend)
			F[i][j] = maxInt(H[i-1][j]-gap.Open-gap.Extend, F[i-1][j]-gap.Extend)
			h := H[i-1][j-1] + m.Score(a[i-1], b[j-1])
			h = maxInt(h, E[i][j])
			h = maxInt(h, F[i][j])
			h = maxInt(h, 0)
			H[i][j] = h
			best = maxInt(best, h)
		}
	}
	return best
}

func mkMat(r, c, fill int) [][]int {
	m := make([][]int, r)
	for i := range m {
		m[i] = make([]int, c)
		for j := range m[i] {
			m[i][j] = fill
		}
	}
	return m
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func randSeqs(raw0, raw1 []byte) (a, b []byte) {
	a = make([]byte, len(raw0))
	b = make([]byte, len(raw1))
	for i, r := range raw0 {
		a[i] = r % alphabet.NumStandardAA
	}
	for i, r := range raw1 {
		b[i] = r % alphabet.NumStandardAA
	}
	return a, b
}

func TestLocalMatchesNaive(t *testing.T) {
	al := NewAligner(matrix.BLOSUM62, DefaultGaps)
	f := func(raw0, raw1 [20]byte) bool {
		a, b := randSeqs(raw0[:], raw1[:])
		return al.Local(a, b).Score == naiveAffine(a, b, matrix.BLOSUM62, DefaultGaps)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLocalMatchesNaiveCheapGaps(t *testing.T) {
	gaps := GapParams{Open: 2, Extend: 1}
	al := NewAligner(matrix.BLOSUM62, gaps)
	f := func(raw0, raw1 [16]byte) bool {
		a, b := randSeqs(raw0[:], raw1[:])
		return al.Local(a, b).Score == naiveAffine(a, b, matrix.BLOSUM62, gaps)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLocalIdentity(t *testing.T) {
	al := NewAligner(matrix.NewMatchMismatch(3, -2), GapParams{Open: 5, Extend: 1})
	s := alphabet.MustEncodeProtein("ARNDCQEGH")
	loc := al.Local(s, s)
	if loc.Score != 27 {
		t.Errorf("identity score = %d, want 27", loc.Score)
	}
	if loc.AStart != 0 || loc.AEnd != 9 || loc.BStart != 0 || loc.BEnd != 9 {
		t.Errorf("identity span = %+v", loc)
	}
}

func TestLocalEmptyAndNoMatch(t *testing.T) {
	al := NewAligner(matrix.NewMatchMismatch(1, -1), DefaultGaps)
	if loc := al.Local(nil, nil); loc.Score != 0 {
		t.Error("empty alignment nonzero")
	}
	a := alphabet.MustEncodeProtein("AAAA")
	b := alphabet.MustEncodeProtein("RRRR")
	if loc := al.Local(a, b); loc.Score != 0 {
		t.Errorf("all-mismatch score = %d", loc.Score)
	}
}

func TestLocalFindsGappedAlignment(t *testing.T) {
	// Two identical halves with an insertion in b: score must beat the
	// ungapped alternative by paying one gap.
	al := NewAligner(matrix.NewMatchMismatch(2, -2), GapParams{Open: 3, Extend: 1})
	a := alphabet.MustEncodeProtein("WWWWWWKKKKKK")
	b := alphabet.MustEncodeProtein("WWWWWWAAAKKKKKK")
	loc := al.Local(a, b)
	want := 12*2 - (3 + 3*1) // 12 matches, one gap of length 3
	if loc.Score != want {
		t.Errorf("gapped score = %d, want %d", loc.Score, want)
	}
}

func TestLocalStartRecovery(t *testing.T) {
	al := NewAligner(matrix.NewMatchMismatch(2, -3), DefaultGaps)
	a := alphabet.MustEncodeProtein("DDDDWWWWWW")
	b := alphabet.MustEncodeProtein("RRRRRWWWWWW")
	loc := al.Local(a, b)
	if loc.AStart != 4 || loc.BStart != 5 {
		t.Errorf("start = (%d,%d), want (4,5)", loc.AStart, loc.BStart)
	}
	if loc.AEnd != 10 || loc.BEnd != 11 {
		t.Errorf("end = (%d,%d), want (10,11)", loc.AEnd, loc.BEnd)
	}
}

func TestLocalBandedWideBandEqualsLocal(t *testing.T) {
	al := NewAligner(matrix.BLOSUM62, DefaultGaps)
	f := func(raw0, raw1 [18]byte) bool {
		a, b := randSeqs(raw0[:], raw1[:])
		full := al.Local(a, b)
		banded := al.LocalBanded(a, b, 0, len(a)+len(b))
		return full.Score == banded.Score
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLocalBandedRespectsBand(t *testing.T) {
	// With band 0 around diagonal 0 only the main diagonal is reachable:
	// the score equals the best clamped segment of pairwise scores.
	al := NewAligner(matrix.NewMatchMismatch(3, -3), GapParams{Open: 1, Extend: 1})
	a := alphabet.MustEncodeProtein("AAAAAA")
	b := alphabet.MustEncodeProtein("AAARAA")
	loc := al.LocalBandedEnd(a, b, 0, 0)
	// Best diagonal segment: all six pairs, 5 matches − 1 mismatch = 12.
	if loc.Score != 12 {
		t.Errorf("band-0 score = %d, want 12", loc.Score)
	}
	// Skipping the R with a cheap gap scores 5·3 − 2 = 13 but needs to
	// leave the diagonal, which band 0 forbids.
	wide := al.LocalBanded(a, b, 0, 3)
	if wide.Score != 13 {
		t.Errorf("wider band score = %d, want 13", wide.Score)
	}
}

func TestLocalBandedOffsetDiagonal(t *testing.T) {
	al := NewAligner(matrix.NewMatchMismatch(2, -2), DefaultGaps)
	// Match lies on diagonal +3.
	a := alphabet.MustEncodeProtein("WWWWW")
	b := alphabet.MustEncodeProtein("RRRWWWWW")
	loc := al.LocalBanded(a, b, 3, 1)
	if loc.Score != 10 {
		t.Errorf("offset-diag score = %d, want 10", loc.Score)
	}
	if loc.AStart != 0 || loc.BStart != 3 {
		t.Errorf("start = (%d,%d), want (0,3)", loc.AStart, loc.BStart)
	}
}

func TestLocalBandedStartRecoveryProperty(t *testing.T) {
	al := NewAligner(matrix.BLOSUM62, DefaultGaps)
	f := func(raw0, raw1 [22]byte, bandRaw uint8) bool {
		a, b := randSeqs(raw0[:], raw1[:])
		band := int(bandRaw%10) + 1
		loc := al.LocalBanded(a, b, 0, band)
		if loc.Score == 0 {
			return true
		}
		// Realigning the recovered sub-ranges must reproduce the score.
		sub := al.LocalBanded(a[loc.AStart:loc.AEnd], b[loc.BStart:loc.BEnd],
			loc.BStart-loc.AStart+ /*shift to window*/ loc.AStart-loc.BStart, band)
		return sub.Score >= loc.Score
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestLocalBandedStartAfterEndProperty(t *testing.T) {
	// Two aligners so that the split calls and LocalBanded never share
	// scratch rows: leftovers from one call must not leak into the next.
	al, ref := NewAligner(matrix.BLOSUM62, DefaultGaps), NewAligner(matrix.BLOSUM62, DefaultGaps)
	f := func(raw0 [40]byte, raw1 [48]byte, la, lb, diagRaw, bandRaw uint8) bool {
		a, b := randSeqs(raw0[:1+int(la)%40], raw1[:1+int(lb)%48])
		// Diagonals from fully left of the matrix to fully right of it,
		// so the band can start outside, leave early or never enter.
		diag := int(diagRaw)%(len(a)+len(b)+8) - len(a) - 4
		band := int(bandRaw) % 12 // band 0 included
		end := al.LocalBandedEnd(a, b, diag, band)
		got := al.LocalBandedStart(a, b, diag, band, end)
		want := ref.LocalBanded(a, b, diag, band)
		if got != want {
			t.Logf("a=%v b=%v diag=%d band=%d: end+start %+v, LocalBanded %+v", a, b, diag, band, got, want)
			return false
		}
		if got.Score == 0 {
			return got == Local{}
		}
		// The recovered rectangle holds the whole alignment: realigning
		// it under the same band (shifted into its coordinates) gives
		// back exactly the score, and the start cell lies in the band.
		sub := ref.LocalBandedEnd(a[got.AStart:got.AEnd], b[got.BStart:got.BEnd],
			diag-(got.BStart-got.AStart), band)
		startDiag := got.BStart - got.AStart
		return got.AEnd == end.AEnd && got.BEnd == end.BEnd && got.Score == end.Score &&
			sub.Score == got.Score && startDiag >= diag-band && startDiag <= diag+band
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestTracebackScoreMatchesLocal(t *testing.T) {
	al := NewAligner(matrix.BLOSUM62, DefaultGaps)
	f := func(raw0, raw1 [20]byte) bool {
		a, b := randSeqs(raw0[:], raw1[:])
		full := al.Local(a, b)
		loc, ops := al.Traceback(a, b)
		if loc.Score != full.Score {
			return false
		}
		if loc.Score == 0 {
			return ops == nil
		}
		return opsScore(a, b, loc, ops, matrix.BLOSUM62, DefaultGaps) == loc.Score
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// opsScore recomputes an alignment's score from its operations; -1<<30
// if the ops do not span the Local ranges exactly.
func opsScore(a, b []byte, loc Local, ops []Op, m *matrix.Matrix, gap GapParams) int {
	i, j, score := loc.AStart, loc.BStart, 0
	for _, op := range ops {
		switch op.Kind {
		case OpAligned:
			for k := 0; k < op.Len; k++ {
				score += m.Score(a[i], b[j])
				i++
				j++
			}
		case OpInsB:
			score -= gap.Open + gap.Extend*op.Len
			j += op.Len
		case OpDelB:
			score -= gap.Open + gap.Extend*op.Len
			i += op.Len
		}
	}
	if i != loc.AEnd || j != loc.BEnd {
		return -1 << 30
	}
	return score
}

func TestTracebackGappedOps(t *testing.T) {
	al := NewAligner(matrix.NewMatchMismatch(2, -2), GapParams{Open: 3, Extend: 1})
	a := alphabet.MustEncodeProtein("WWWWWWKKKKKK")
	b := alphabet.MustEncodeProtein("WWWWWWAAAKKKKKK")
	loc, ops := al.Traceback(a, b)
	if got := opsScore(a, b, loc, ops, al.m, al.gap); got != loc.Score {
		t.Errorf("ops score %d != loc score %d", got, loc.Score)
	}
	// Must contain exactly one insertion run of length 3.
	var ins int
	for _, op := range ops {
		if op.Kind == OpInsB {
			ins += op.Len
		}
	}
	if ins != 3 {
		t.Errorf("insertion length = %d, want 3", ins)
	}
}

func TestFormatAlignment(t *testing.T) {
	al := NewAligner(matrix.BLOSUM62, DefaultGaps)
	a := alphabet.MustEncodeProtein("MKVLILAC")
	b := alphabet.MustEncodeProtein("MKVLVLAC")
	loc, ops := al.Traceback(a, b)
	out := FormatAlignment(a, b, loc, ops, matrix.BLOSUM62)
	if !strings.Contains(out, "MKVLILAC") || !strings.Contains(out, "MKVLVLAC") {
		t.Errorf("alignment text missing sequences:\n%s", out)
	}
	if !strings.Contains(out, "MKVL") {
		t.Errorf("midline missing identities:\n%s", out)
	}
	if !strings.Contains(out, "+") {
		t.Errorf("midline should mark positive I/V substitution:\n%s", out)
	}
}

func TestAlignerScratchReuse(t *testing.T) {
	// Repeated calls with shrinking/growing sizes must not corrupt results.
	al := NewAligner(matrix.BLOSUM62, DefaultGaps)
	a := alphabet.MustEncodeProtein("MKVLILACDEFGHIKLMN")
	b := alphabet.MustEncodeProtein("MKVLVLACDEFGHIKLMN")
	first := al.Local(a, b).Score
	al.Local(a[:4], b[:4])
	al.LocalBanded(a, b, 0, 3)
	second := al.Local(a, b).Score
	if first != second {
		t.Errorf("scratch reuse changed result: %d vs %d", first, second)
	}
}
