// Package seedblast is a Go reproduction of "Implementing Protein
// Seed-Based Comparison Algorithm on the SGI RASC-100 Platform"
// (Nguyen, Cornu, Lavenier — RAW/IPDPS 2009): a tblastn-class
// bank-vs-bank protein/genome comparison pipeline whose critical
// section (seed-pair ungapped extension) can execute either on a
// parallel CPU engine or on a cycle-level simulation of the paper's
// PSC operator on the SGI RASC-100 FPGA accelerator.
//
// The package is a facade over the internal packages. The primary
// entry point is the v2 search API (search.go): a Searcher built once
// from functional options, reusable indexed Targets for every
// comparison shape (protein bank, genome, DNA queries), and one
// Search call with streaming results. The v1 entry points (Compare,
// CompareGenome, …) remain as deprecated bit-identical adapters. The
// facade also exposes the workload generators the experiments use,
// FASTA I/O helpers and the sequential BLAST-style baseline. See
// DESIGN.md for the system inventory (including the v1→v2 migration
// table) and EXPERIMENTS.md for the paper-vs-measured record.
package seedblast

import (
	"context"
	"fmt"

	"seedblast/internal/alphabet"
	"seedblast/internal/bank"
	"seedblast/internal/blast"
	"seedblast/internal/core"
	"seedblast/internal/pipeline"
	"seedblast/internal/seed"
	"seedblast/internal/seqio"
	"seedblast/internal/translate"
	"seedblast/internal/ungapped"
)

// Core pipeline types, re-exported.
type (
	// Options parameterises the pipeline; start from DefaultOptions.
	Options = core.Options
	// RASCOptions configures the simulated accelerator.
	RASCOptions = core.RASCOptions
	// Result is a bank-vs-bank comparison outcome.
	Result = core.Result
	// GenomeResult is a protein-bank-vs-genome (tblastn) outcome.
	GenomeResult = core.GenomeResult
	// GenomeMatch is one alignment in genome coordinates.
	GenomeMatch = core.GenomeMatch
	// StepTimes records per-step durations.
	StepTimes = core.StepTimes
	// Engine selects where step 2 runs.
	Engine = core.Engine
	// Kernel selects the CPU step-2 inner-loop implementation (see
	// Options.Step2Kernel and WithStep2Kernel). Results are
	// bit-identical across kernels; only throughput differs.
	Kernel = ungapped.Kernel
	// Bank is an ordered set of protein sequences.
	Bank = bank.Bank
	// PipelineConfig tunes the streaming shard engine (shard size,
	// shards in flight, per-stage concurrency); see Options.Pipeline.
	PipelineConfig = pipeline.Config
	// PipelineMetrics is the streaming engine's per-run accounting,
	// reported in Result.Pipeline.
	PipelineMetrics = pipeline.Metrics
)

// Engine values.
const (
	// EngineCPU runs step 2 on the parallel software engine.
	EngineCPU = core.EngineCPU
	// EngineRASC runs step 2 on the simulated RASC-100 accelerator.
	EngineRASC = core.EngineRASC
	// EngineMulti fans shards out across the CPU and RASC backends —
	// the paper's multicore-plus-FPGA dispatch, answered greedily.
	EngineMulti = core.EngineMulti
)

// Kernel values.
const (
	// KernelAuto (the zero value) picks the blocked kernel whenever
	// the matrix and window length fit its arithmetic bounds, falling
	// back to scalar otherwise.
	KernelAuto = ungapped.KernelAuto
	// KernelScalar forces the scalar reference inner loop.
	KernelScalar = ungapped.KernelScalar
	// KernelBlocked requests the blocked lane-parallel inner loop; it
	// still falls back to scalar when the workload's score bound does
	// not fit its int16 lanes.
	KernelBlocked = ungapped.KernelBlocked
)

// ParseKernel parses "auto", "scalar" or "blocked" (the CLI/service
// spelling) into a Kernel.
func ParseKernel(s string) (Kernel, error) { return ungapped.ParseKernel(s) }

// ParseEngine parses "cpu", "rasc" or "multi" (the CLI/service engine
// selector names, Engine.String's inverse); "" means cpu.
func ParseEngine(s string) (Engine, error) { return core.ParseEngine(s) }

// DefaultOptions returns the paper's defaults: W=4 subset seed, N=14,
// BLOSUM62, ungapped threshold 38, gapped stage at E ≤ 10⁻³.
func DefaultOptions() Options { return core.DefaultOptions() }

// Compare runs the three-step pipeline on two protein banks through
// the streaming shard engine (batch-identical with the zero
// Options.Pipeline).
//
// Deprecated: use NewSearcher and Search with two ProteinTargets; the
// adapter is pinned bit-identical (matches and order) by equivalence
// tests. See DESIGN.md's v1→v2 migration table.
func Compare(b0, b1 *Bank, opt Options) (*Result, error) {
	return core.Compare(b0, b1, opt)
}

// CompareContext is Compare with cancellation: cancelling ctx shuts
// the engine's stages down promptly and returns ctx's error.
//
// Deprecated: use NewSearcher and Search with two ProteinTargets.
func CompareContext(ctx context.Context, b0, b1 *Bank, opt Options) (*Result, error) {
	return core.CompareContext(ctx, b0, b1, opt)
}

// CompareGenome runs the tblastn-style workflow: proteins against a
// six-frame-translated genome, with matches in genome coordinates.
//
// Deprecated: use NewSearcher and Search against a GenomeTarget, which
// owns the six-frame translation, its reusable index and the
// genome-coordinate mapping (Match.Subject).
func CompareGenome(proteins *Bank, genome []byte, opt Options) (*GenomeResult, error) {
	return core.CompareGenome(proteins, genome, opt)
}

// CompareGenomeContext is CompareGenome with cancellation.
//
// Deprecated: use NewSearcher and Search against a GenomeTarget.
func CompareGenomeContext(ctx context.Context, proteins *Bank, genome []byte, opt Options) (*GenomeResult, error) {
	return core.CompareGenomeContext(ctx, proteins, genome, opt)
}

// BLAST-family modes beyond tblastn (the paper's conclusion: the PSC
// design "can be directly reused for implementing blastp, blastx, and
// tblastx").
type (
	// DNAQueryResult is the outcome of CompareDNAQueries (blastx).
	DNAQueryResult = core.DNAQueryResult
	// DNAQueryMatch is one blastx alignment.
	DNAQueryMatch = core.DNAQueryMatch
	// GenomePairResult is the outcome of CompareGenomes (tblastx).
	GenomePairResult = core.GenomePairResult
	// GenomePairMatch is one tblastx alignment.
	GenomePairMatch = core.GenomePairMatch
)

// CompareDNAQueries implements blastx: DNA queries are six-frame
// translated and searched against a protein bank.
//
// Deprecated: use NewSearcher and Search with a DNATarget query side
// against a ProteinTarget; Match.Query carries the frame and
// nucleotide coordinates.
func CompareDNAQueries(queries [][]byte, proteins *Bank, opt Options) (*DNAQueryResult, error) {
	return core.CompareDNAQueries(queries, proteins, opt)
}

// CompareGenomes implements tblastx: both nucleotide sequences are
// six-frame translated and compared protein-wise.
//
// Deprecated: use NewSearcher and Search with two GenomeTargets.
func CompareGenomes(genome0, genome1 []byte, opt Options) (*GenomePairResult, error) {
	return core.CompareGenomes(genome0, genome1, opt)
}

// Workload generation, re-exported for examples and experiments.
type (
	// ProteinConfig parameterises GenerateProteins.
	ProteinConfig = bank.ProteinConfig
	// GenomeConfig parameterises GenerateGenome.
	GenomeConfig = bank.GenomeConfig
	// PlantedGene records where a gene was planted in a synthetic genome.
	PlantedGene = bank.PlantedGene
	// FamilyConfig parameterises GenerateFamilyBenchmark.
	FamilyConfig = bank.FamilyConfig
	// FamilyBenchmark is the sensitivity/selectivity workload.
	FamilyBenchmark = bank.FamilyBenchmark
)

// GenerateProteins creates a synthetic protein bank (Robinson
// background composition), standing in for the paper's NR subsets.
func GenerateProteins(cfg ProteinConfig) *Bank { return bank.GenerateProteins(cfg) }

// GenerateGenome creates a synthetic genome with planted mutated
// genes, standing in for the paper's Human chromosome 1.
func GenerateGenome(cfg GenomeConfig) ([]byte, []PlantedGene, error) {
	return bank.GenerateGenome(cfg)
}

// GenerateFamilyBenchmark creates the family workload behind the
// paper's ROC50/AP evaluation (Table 6).
func GenerateFamilyBenchmark(cfg FamilyConfig) (*FamilyBenchmark, error) {
	return bank.GenerateFamilyBenchmark(cfg)
}

// NewBank returns an empty protein bank.
func NewBank(name string) *Bank { return bank.New(name) }

// LoadProteinFASTA reads a protein bank from a FASTA file.
func LoadProteinFASTA(name, path string) (*Bank, error) {
	return bank.LoadFASTA(name, path)
}

// LoadGenomeFASTA reads a genome from a FASTA file, concatenating all
// records into one encoded nucleotide sequence.
func LoadGenomeFASTA(path string) ([]byte, error) {
	recs, err := seqio.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var genome []byte
	for _, r := range recs {
		dna, err := alphabet.EncodeDNA(string(r.Seq))
		if err != nil {
			return nil, fmt.Errorf("seedblast: record %s: %w", r.ID, err)
		}
		genome = append(genome, dna...)
	}
	return genome, nil
}

// WriteProteinFASTA writes a protein bank to a FASTA file.
func WriteProteinFASTA(path string, b *Bank) error {
	return seqio.WriteFile(path, b.Records()...)
}

// Baseline, re-exported.
type (
	// BaselineConfig holds the sequential BLAST-style baseline's
	// parameters.
	BaselineConfig = blast.Config
	// BaselineMatch is one baseline alignment.
	BaselineMatch = blast.Match
	// BaselineGenomeMatch is a baseline alignment in genome coordinates.
	BaselineGenomeMatch = blast.GenomeMatch
)

// DefaultBaselineConfig returns tblastn-like defaults.
func DefaultBaselineConfig() BaselineConfig { return blast.DefaultConfig() }

// Baseline runs the sequential BLAST-style search over protein banks.
func Baseline(queries, subjects *Bank, cfg BaselineConfig) ([]BaselineMatch, error) {
	return blast.Search(queries, subjects, cfg)
}

// BaselineGenome runs the baseline tblastn over a genome.
func BaselineGenome(queries *Bank, genome []byte, cfg BaselineConfig) ([]BaselineGenomeMatch, error) {
	return blast.SearchGenome(queries, genome, cfg)
}

// GeneticCode is a codon translation table; see Options.GeneticCode.
type GeneticCode = translate.Code

// GeneticCodeByName resolves a genetic code by name or NCBI table
// number: "standard"/"1", "bacterial"/"11",
// "vertebrate-mitochondrial"/"mito"/"2".
func GeneticCodeByName(name string) (*GeneticCode, error) {
	return translate.CodeByName(name)
}

// SeedModel maps fixed-width residue windows to index keys; see
// Options.Seed.
type SeedModel = seed.Model

// ExactSeed returns the classic BLAST-style exact word seed of width w
// (key space 20^w).
func ExactSeed(w int) SeedModel { return seed.Exact(w) }

// SubsetSeed builds a subset seed (Peterlongo et al.) from per-position
// partition specs. Each spec is either the keyword "exact" (identity),
// "murphy10" (the Murphy-Wallqvist-Levy 10-class reduction), "any"
// (one class: position is a don't-care), or an explicit comma-separated
// partition such as "LVIM,C,A,G,ST,P,FYW,EDNQ,KR,H".
func SubsetSeed(name string, specs ...string) (SeedModel, error) {
	parts := make([]seed.Partition, len(specs))
	for i, s := range specs {
		switch s {
		case "exact":
			parts[i] = seed.Identity()
		case "murphy10":
			parts[i] = seed.Murphy10()
		case "any":
			p, err := seed.NewPartition("ARNDCQEGHILKMFPSTWYV")
			if err != nil {
				return nil, err
			}
			p.Label = "any"
			parts[i] = p
		default:
			p, err := seed.NewPartition(s)
			if err != nil {
				return nil, err
			}
			parts[i] = p
		}
	}
	return seed.NewSubset(name, parts...)
}

// EncodeProtein converts amino-acid letters to the internal encoding.
func EncodeProtein(s string) ([]byte, error) { return alphabet.EncodeProtein(s) }

// EncodeDNA converts nucleotide letters to the internal encoding.
func EncodeDNA(s string) ([]byte, error) { return alphabet.EncodeDNA(s) }

// DecodeProtein converts encoded residues back to letters.
func DecodeProtein(codes []byte) string { return alphabet.DecodeProtein(codes) }
