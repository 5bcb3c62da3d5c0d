// Package core implements the paper's primary contribution: a
// bank-vs-bank protein comparison pipeline structured so that the
// dominant computation is a small critical section suitable for
// hardware acceleration. The pipeline has three steps (§2.1):
//
//	step 1  indexing           — both banks indexed by subset seed
//	step 2  ungapped extension — all seed pairs scored over W+2N windows
//	step 3  gapped extension   — surviving pairs aligned with gaps
//
// Step 2 runs either on the CPU engine (package ungapped), on the
// simulated RASC-100 accelerator (package hwsim), or fanned out across
// both (EngineMulti); results are bit-identical between engines.
// Compare executes the steps through the streaming shard engine
// (package pipeline): bank 0 flows through the stages in shards over
// bounded channels, so host gapped extension overlaps device ungapped
// extension. The zero Options.Pipeline runs one shard and reproduces
// the historical batch behaviour (kept verbatim as CompareBatch)
// bit-identically. CompareGenome adds the tblastn-style workflow: the
// genome is translated into its six reading frames and alignments are
// mapped back to nucleotide coordinates.
package core

import (
	"context"
	"fmt"
	"time"

	"seedblast/internal/align"
	"seedblast/internal/bank"
	"seedblast/internal/gapped"
	"seedblast/internal/hwsim"
	"seedblast/internal/index"
	"seedblast/internal/matrix"
	"seedblast/internal/pipeline"
	"seedblast/internal/seed"
	"seedblast/internal/stats"
	"seedblast/internal/translate"
	"seedblast/internal/ungapped"
)

// Engine selects where step 2 runs.
type Engine int

// Engines.
const (
	EngineCPU   Engine = iota // parallel software engine
	EngineRASC                // simulated RASC-100 accelerator
	EngineMulti               // shards fanned out across CPU and RASC
)

// String names the engine.
func (e Engine) String() string {
	switch e {
	case EngineCPU:
		return "cpu"
	case EngineRASC:
		return "rasc"
	case EngineMulti:
		return "multi"
	default:
		return fmt.Sprintf("engine(%d)", int(e))
	}
}

// ParseEngine resolves an engine name, the inverse of Engine.String;
// the empty string means cpu.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "", "cpu":
		return EngineCPU, nil
	case "rasc":
		return EngineRASC, nil
	case "multi":
		return EngineMulti, nil
	}
	return EngineCPU, fmt.Errorf("core: unknown engine %q (want cpu, rasc or multi)", s)
}

// RASCOptions configures the simulated accelerator when Engine is
// EngineRASC. Zero values take the paper's defaults.
type RASCOptions struct {
	NumPEs       int     // default 192
	NumFPGAs     int     // default 1 (the paper's main tables use one FPGA)
	SlotSize     int     // default 8
	FIFODepth    int     // default 64
	ClockHz      float64 // default 100 MHz
	DMABandwidth float64 // default 3.2 GB/s
	DMALatency   float64 // default 2 µs
	// OffloadGapped enables the paper's future-work configuration
	// (§5): the second FPGA carries a gap-extension operator, so step 3
	// is also simulated in hardware. Requires NumFPGAs == 1 for step 2
	// (the other FPGA is busy with gapped extension).
	OffloadGapped bool
}

func (r RASCOptions) withDefaults() RASCOptions {
	if r.NumPEs == 0 {
		r.NumPEs = 192
	}
	if r.NumFPGAs == 0 {
		r.NumFPGAs = 1
	}
	if r.SlotSize == 0 {
		r.SlotSize = 8
	}
	if r.FIFODepth == 0 {
		r.FIFODepth = 64
	}
	if r.ClockHz == 0 {
		r.ClockHz = 100e6
	}
	if r.DMABandwidth == 0 {
		r.DMABandwidth = 3.2e9
	}
	if r.DMALatency == 0 {
		r.DMALatency = 2e-6
	}
	return r
}

// Options parameterises the pipeline. The zero value is not valid; use
// DefaultOptions and override fields.
type Options struct {
	Seed              seed.Model
	N                 int // neighbourhood extension; windows are W+2N
	Matrix            *matrix.Matrix
	UngappedThreshold int
	Gapped            gapped.Config
	Engine            Engine
	RASC              RASCOptions
	Workers           int // CPU engine parallelism; 0 = GOMAXPROCS
	// Step2Kernel selects the CPU step-2 inner-loop implementation.
	// The zero value (ungapped.KernelAuto) uses the blocked
	// lane-parallel kernel whenever the matrix and window length fit
	// its arithmetic bounds; results are bit-identical across kernels.
	Step2Kernel ungapped.Kernel
	// Pipeline tunes the streaming shard engine: shard size and how
	// many shards each stage runs in flight. The zero value processes
	// bank 0 as one shard, reproducing the batch path bit-identically.
	Pipeline pipeline.Config
	// MaxCandidates enables the two-stage prefilter: before step 2,
	// each query's subjects are ranked by hashed-seed diagonal-band
	// score and only the top MaxCandidates survive into ungapped and
	// gapped extension. Zero (the default) disables the stage and the
	// pipeline is bit-identical to one without it. E-values are
	// unaffected either way — the statistics still use the full
	// subject bank's geometry — so enabling it trades sensitivity
	// (pairs beyond the top K are never extended) for throughput.
	// Ignored by CompareBatch, which stays the exhaustive reference.
	MaxCandidates int
	// GeneticCode selects the translation table for genome modes
	// (tblastn/blastx/tblastx); nil means the standard code. Bacterial
	// and vertebrate-mitochondrial codes are provided by package
	// translate.
	GeneticCode *translate.Code
	// SearchSpaceOverride fixes the database geometry used for E-value
	// statistics instead of deriving it from the subject bank. The
	// cluster layer sets it to the full bank's geometry when this run
	// compares against one volume of a partitioned bank, so reported
	// E-values — and the Gapped.MaxEValue significance cut — are
	// bit-identical to an unpartitioned run. The zero value keeps the
	// historical behaviour (n = subject bank total residues). It takes
	// precedence over any Gapped.SearchSpace already set.
	SearchSpaceOverride stats.SearchSpace
	// SubjectIndex optionally provides a prebuilt step-1 index of the
	// subject bank (bank 1). It must have been built from the same
	// subject contents with the same Seed and N. The engine rejects
	// mismatched key space, N, or bank shape (sequence count / total
	// residues); full content identity is the caller's responsibility —
	// the comparison service guarantees it by keying its cache on
	// index.Fingerprint. Nil means build (and time) it per call.
	SubjectIndex *index.Index
}

// code resolves the genetic code option.
func (o *Options) code() *translate.Code {
	if o.GeneticCode != nil {
		return o.GeneticCode
	}
	return translate.StandardCode
}

// gappedConfig resolves the step-3 configuration. Fields the caller
// set are preserved; only unset (zero) fields that have no meaningful
// zero value are filled from gapped.DefaultConfig: the matrix, the
// band, the E-value cutoff, the gap costs and the statistical
// parameters. GapTrigger, XDrop and Traceback keep their zero values
// because zero is meaningful there (pre-filter disabled, no
// traceback). An explicit Gapped.Workers wins over Options.Workers.
func (o *Options) gappedConfig() gapped.Config {
	g := o.Gapped
	def := gapped.DefaultConfig()
	if g.Matrix == nil {
		g.Matrix = def.Matrix
	}
	if g.Band == 0 {
		g.Band = def.Band
	}
	if g.MaxEValue == 0 {
		g.MaxEValue = def.MaxEValue
	}
	if g.Params == (stats.Params{}) {
		g.Params = def.Params
	}
	if g.Gaps == (align.GapParams{}) {
		g.Gaps = def.Gaps
	}
	if g.Workers == 0 {
		g.Workers = o.Workers
	}
	if !o.SearchSpaceOverride.IsZero() {
		g.SearchSpace = o.SearchSpaceOverride
	}
	return g
}

// DefaultOptions returns the pipeline defaults: the W=4 subset seed,
// N=14 (32-residue windows), BLOSUM62, ungapped threshold 38 and the
// gapped stage at E ≤ 10⁻³.
func DefaultOptions() Options {
	return Options{
		Seed:              seed.Default(),
		N:                 14,
		Matrix:            matrix.BLOSUM62,
		UngappedThreshold: 38,
		Gapped:            gapped.DefaultConfig(),
	}
}

// StepTimes records per-step durations. For the RASC engine, Ungapped
// is the simulated accelerator time (cycles at the configured clock
// plus DMA), not host wall time. On a streaming run with several
// shards in flight the steps overlap, so their sum can exceed the wall
// time reported in Result.Pipeline.Wall.
type StepTimes struct {
	Index    time.Duration
	Ungapped time.Duration
	Gapped   time.Duration
}

// Total sums the three steps.
func (st StepTimes) Total() time.Duration {
	return st.Index + st.Ungapped + st.Gapped
}

// Fractions returns each step's share of the total, in step order
// (the quantity Tables 1 and 7 report).
func (st StepTimes) Fractions() [3]float64 {
	tot := st.Total().Seconds()
	if tot == 0 {
		return [3]float64{}
	}
	return [3]float64{
		st.Index.Seconds() / tot,
		st.Ungapped.Seconds() / tot,
		st.Gapped.Seconds() / tot,
	}
}

// Result is the outcome of a bank-vs-bank comparison: the materialized
// alignments plus the search Summary (work counters, timings, device
// reports, engine accounting), whose fields are promoted.
type Result struct {
	Alignments []gapped.Alignment
	Summary
}

// Compare runs the full three-step pipeline on two protein banks
// through the streaming shard engine. With the zero Options.Pipeline
// the run is a single shard and the Result is bit-identical to
// CompareBatch; with sharding enabled the alignment set is identical
// up to order normalisation (the engine sorts stably by
// (Seq0, EValue, Seq1)).
//
// Compare is the v1 entry point, kept as a thin adapter over the v2
// Searcher API (equivalence-tested bit-identical, ordering included);
// new callers should construct a Searcher and stream.
func Compare(b0, b1 *bank.Bank, opt Options) (*Result, error) {
	return CompareContext(context.Background(), b0, b1, opt)
}

// CompareContext is Compare with cancellation: when ctx is cancelled
// the engine shuts every stage down promptly and returns ctx's error.
func CompareContext(ctx context.Context, b0, b1 *bank.Bank, opt Options) (*Result, error) {
	s, err := SearcherFromOptions(opt)
	if err != nil {
		return nil, err
	}
	tgt := NewProteinTarget(b1)
	if err := adoptSubjectIndex(&opt, tgt, tgt.Adopt); err != nil {
		return nil, err
	}
	return collectResult(s.Search(ctx, NewProteinTarget(b0), tgt))
}

// backendFor builds the step-2 backend for the selected engine.
func backendFor(opt *Options) (pipeline.Backend, error) {
	cpu := &pipeline.CPUBackend{
		Matrix:    opt.Matrix,
		Threshold: opt.UngappedThreshold,
		Workers:   opt.Workers,
		Kernel:    opt.Step2Kernel,
	}
	switch opt.Engine {
	case EngineCPU:
		return cpu, nil
	case EngineRASC, EngineMulti:
		dev, err := buildDevice(opt, opt.Seed.Width()+2*opt.N)
		if err != nil {
			return nil, err
		}
		rasc := &pipeline.RASCBackend{Device: dev}
		if opt.Engine == EngineRASC {
			return rasc, nil
		}
		return pipeline.NewMultiBackend(cpu, rasc)
	default:
		return nil, fmt.Errorf("core: unknown engine %v", opt.Engine)
	}
}

// CompareBatch is the historical monolithic driver: both indexes built
// up front, all of step 2 run to completion, then all of step 3. It is
// retained as the reference implementation the streaming engine is
// equivalence-tested and benchmarked against. New callers should use
// Compare.
func CompareBatch(b0, b1 *bank.Bank, opt Options) (*Result, error) {
	if opt.Seed == nil || opt.Matrix == nil {
		return nil, fmt.Errorf("core: Seed and Matrix are required (use DefaultOptions)")
	}
	if opt.N < 0 {
		return nil, fmt.Errorf("core: negative neighbourhood %d", opt.N)
	}

	// Step 1: index both banks (parallel build unless the caller pinned
	// Workers to 1 for sequential-profile measurements).
	t0 := time.Now()
	ix0, err := index.BuildParallel(b0, opt.Seed, opt.N, opt.Workers)
	if err != nil {
		return nil, fmt.Errorf("core: indexing bank 0: %w", err)
	}
	ix1 := opt.SubjectIndex
	if ix1 == nil {
		var err error
		ix1, err = index.BuildParallel(b1, opt.Seed, opt.N, opt.Workers)
		if err != nil {
			return nil, fmt.Errorf("core: indexing bank 1: %w", err)
		}
	} else if err := pipeline.MatchesRequest(ix1, b1, opt.Seed, opt.N); err != nil {
		// Same acceptance rule as the streaming engine, so the reference
		// and streaming paths never diverge on which indexes they take.
		return nil, fmt.Errorf("core: provided subject index %w", err)
	}
	res := &Result{Summary: Summary{Stats0: ix0.Stats(), Stats1: ix1.Stats()}}
	res.Times.Index = time.Since(t0)

	// Step 2: ungapped extension on the selected engine.
	var hits []ungapped.Hit
	switch opt.Engine {
	case EngineCPU:
		t1 := time.Now()
		r, err := ungapped.Run(ix0, ix1, ungapped.Config{
			Matrix:    opt.Matrix,
			Threshold: opt.UngappedThreshold,
			Workers:   opt.Workers,
			Kernel:    opt.Step2Kernel,
		})
		if err != nil {
			return nil, fmt.Errorf("core: step 2: %w", err)
		}
		res.Times.Ungapped = time.Since(t1)
		hits = r.Hits
		res.Pairs = r.Pairs
	case EngineRASC:
		dev, err := buildDevice(&opt, ix0.SubLen())
		if err != nil {
			return nil, err
		}
		rep, err := dev.RunStep2(ix0, ix1)
		if err != nil {
			return nil, fmt.Errorf("core: step 2 (rasc): %w", err)
		}
		res.Device = rep
		res.Times.Ungapped = time.Duration(rep.Seconds * float64(time.Second))
		hits = rep.Hits
		res.Pairs = rep.Pairs
	default:
		return nil, fmt.Errorf("core: engine %v not supported by the batch path", opt.Engine)
	}
	res.Hits = len(hits)

	// Step 3: gapped extension on the host (or, in the future-work
	// configuration, timed as if on the second FPGA's gap operator).
	t2 := time.Now()
	gcfg := opt.gappedConfig()
	as, gstats, err := gapped.RunWithStats(b0, b1, hits, gcfg)
	if err != nil {
		return nil, fmt.Errorf("core: step 3: %w", err)
	}
	res.Times.Gapped = time.Since(t2)
	res.Alignments = as
	res.GappedWork = gstats
	if opt.Engine == EngineRASC && opt.RASC.OffloadGapped {
		gop := hwsim.DefaultGapOp(gcfg.Band)
		if opt.RASC.ClockHz != 0 {
			gop.ClockHz = opt.RASC.ClockHz
		}
		rep, err := gop.EstimateStep3(gstats)
		if err != nil {
			return nil, fmt.Errorf("core: step 3 (gap operator): %w", err)
		}
		res.GapDevice = rep
		res.Times.Gapped = time.Duration(rep.Seconds * float64(time.Second))
	}
	return res, nil
}

func buildDevice(opt *Options, subLen int) (*hwsim.Device, error) {
	r := opt.RASC.withDefaults()
	psc := hwsim.PSCConfig{
		NumPEs:    r.NumPEs,
		SlotSize:  r.SlotSize,
		FIFODepth: r.FIFODepth,
		SubLen:    subLen,
		Threshold: opt.UngappedThreshold,
		Matrix:    opt.Matrix,
	}
	cfg := hwsim.DeviceConfig{
		PSC:          psc,
		NumFPGAs:     r.NumFPGAs,
		ClockHz:      r.ClockHz,
		DMABandwidth: r.DMABandwidth,
		DMALatency:   r.DMALatency,
		SharedLink:   true,
	}
	return hwsim.NewDevice(cfg)
}

// GenomeMatch is an alignment mapped back to genome coordinates.
type GenomeMatch struct {
	gapped.Alignment
	Protein  int // bank-0 sequence number (same as Alignment.Seq0)
	Frame    translate.Frame
	NucStart int // forward-strand nucleotide interval [NucStart, NucEnd)
	NucEnd   int
}

// GenomeResult extends Result with genome-coordinate matches.
type GenomeResult struct {
	Result
	Matches   []GenomeMatch
	GenomeLen int
}

// CompareGenome runs the tblastn-style workflow: the genome is
// translated into its six reading frames (step 0 of the paper's
// workflow), each frame becomes a subject sequence, and alignments are
// reported in both protein and genome coordinates.
func CompareGenome(proteins *bank.Bank, genome []byte, opt Options) (*GenomeResult, error) {
	return CompareGenomeContext(context.Background(), proteins, genome, opt)
}

// Code resolves the options' genetic code (the standard code when
// GeneticCode is nil).
func (o *Options) Code() *translate.Code { return o.code() }

// FrameBank translates a genome into its six reading frames under the
// options' genetic code and returns them as the subject bank
// CompareGenome compares against. The translation is deterministic, so
// an index built from this bank is reusable (via Options.SubjectIndex)
// across every CompareGenome call with the same genome, code, seed and
// N — the comparison service caches genome frame indexes this way.
func FrameBank(genome []byte, opt Options) *bank.Bank {
	return frameBank(opt.code().SixFrames(genome))
}

// frameBank is the one place a frame set becomes a subject bank;
// FrameBank (the service's cached-index build) and CompareGenomeContext
// must construct identical banks or a cached genome index would
// silently mismatch.
func frameBank(frames [6]translate.FrameTranslation) *bank.Bank {
	fbank := bank.New("genome-frames")
	for _, ft := range frames {
		fbank.Add(ft.Frame.String(), ft.Protein)
	}
	return fbank
}

// CompareGenomeContext is CompareGenome with cancellation. Like
// Compare, it is a thin adapter over the v2 Searcher API: the genome
// becomes a GenomeTarget (which owns the six-frame translation and the
// coordinate mapping) and the collected matches are reshaped into the
// v1 result.
func CompareGenomeContext(ctx context.Context, proteins *bank.Bank, genome []byte, opt Options) (*GenomeResult, error) {
	s, err := SearcherFromOptions(opt)
	if err != nil {
		return nil, err
	}
	tgt := NewGenomeTarget(genome, opt.GeneticCode)
	if err := adoptSubjectIndex(&opt, tgt, tgt.Adopt); err != nil {
		return nil, err
	}
	res := s.Search(ctx, NewProteinTarget(proteins), tgt)
	ms, err := res.Collect()
	if err != nil {
		return nil, err
	}
	sum, err := res.Summary()
	if err != nil {
		return nil, err
	}
	return GenomeResultFrom(ms, sum, len(genome)), nil
}
