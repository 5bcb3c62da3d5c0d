package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"

	"seedblast/internal/alphabet"
	"seedblast/internal/bank"
	"seedblast/internal/core"
	"seedblast/internal/index"
	"seedblast/internal/pipeline"
	"seedblast/internal/service"
)

// sizes fixes every workload's input shape. The benchmark runs
// fullSizes; tests run a shrunk copy through the same code.
type sizes struct {
	// tblastn-genome: Proteins proteins against a GenomeLen-nt genome
	// with Planted genes, searched in shards of GenomeShard proteins.
	Proteins, GenomeLen, Planted, GenomeShard int
	// blastp-homologs: Queries queries against Subjects homologs,
	// prefiltered to MaxCandidates per query, in shards of
	// HomologShard queries.
	Queries, Subjects, MaxCandidates, HomologShard int
	// service-blastp: Banks subject banks of BankSeqs sequences; a pool
	// of Pool distinct jobs of JobQueries queries each; TracedJobs
	// jobs in the traced client pass.
	Banks, BankSeqs, Pool, JobQueries, TracedJobs int
	// SetupReps is how many times a run repeats its set-up; setup_s is
	// the median.
	SetupReps int
}

var fullSizes = sizes{
	Proteins: 3000, GenomeLen: 2_000_000, Planted: 40, GenomeShard: 200,
	Queries: 512, Subjects: 20_480, MaxCandidates: 50, HomologShard: 64,
	Banks: 4, BankSeqs: 64, Pool: 64, JobQueries: 4, TracedJobs: 1024,
	SetupReps: 7,
}

// Sequence lengths. The genome workload's proteins take
// bank.GenerateProteins' default mean (330 aa).
const (
	homologQueryLen = 120 // blastp-homologs queries: 120 ± 20 aa
	homologQueryJit = 20
	serviceQueryLen = 120 // service-blastp queries: fragments of subjects
	serviceSubjLen  = 300 // service-blastp subjects: 300 ± 50 aa
	serviceSubjJit  = 50
)

// inflight is the shard engine's queue depth for both in-process
// workloads (seedcmp's default).
const inflight = 2

// engineInputs is an in-process search workload: a protein query bank
// against one target (a genome or a protein bank), the searcher
// options, and the ground truth recall is scored against.
type engineInputs struct {
	query    *bank.Bank
	genome   []byte     // tblastn-genome target
	subjects *bank.Bank // blastp-homologs target
	opts     []core.Option
	// truth scores a search's matches: known-true items found and the
	// total known-true items.
	truth func(ms []core.Match) (found, total int)
	// digest identifies the generated inputs.
	digest string
}

// indexedTarget is a search target that can take a prebuilt index.
type indexedTarget interface {
	core.Target
	Adopt(*index.Index)
}

// newTarget builds the workload's target; for a genome this is the
// six-frame translation.
func (in *engineInputs) newTarget() indexedTarget {
	if in.genome != nil {
		return core.NewGenomeTarget(in.genome, nil)
	}
	return core.NewProteinTarget(in.subjects)
}

// genomeInputs generates tblastn-genome: synthetic proteins and a
// genome with some of them planted, reverse-translated at 20%
// substitution. Truth is the planted genes: a gene counts as found
// when a match of its protein overlaps its nucleotide interval.
func genomeInputs(seed int64, sz sizes) (*engineInputs, error) {
	proteins := bank.GenerateProteins(bank.ProteinConfig{N: sz.Proteins, Seed: seed})
	genome, genes, err := bank.GenerateGenome(bank.GenomeConfig{
		Length:       sz.GenomeLen,
		Source:       proteins,
		PlantCount:   sz.Planted,
		PlantSubRate: 0.2,
		Seed:         seed + 1,
	})
	if err != nil {
		return nil, fmt.Errorf("tblastn-genome inputs: %w", err)
	}
	if len(genes) == 0 {
		return nil, fmt.Errorf("tblastn-genome inputs: no gene could be planted")
	}
	h := sha256.New()
	hashBank(h, proteins)
	h.Write(genome)
	return &engineInputs{
		query:  proteins,
		genome: genome,
		opts:   []core.Option{core.WithPipeline(pipeline.Config{ShardSize: sz.GenomeShard, InFlight: inflight})},
		truth: func(ms []core.Match) (int, int) {
			found := 0
			for _, g := range genes {
				for i := range ms {
					m := &ms[i]
					if m.Seq0 == g.ProteinIdx && m.Subject.NucStart < g.Start+g.NucLen && g.Start < m.Subject.NucEnd {
						found++
						break
					}
				}
			}
			return found, len(genes)
		},
		digest: hex.EncodeToString(h.Sum(nil)),
	}, nil
}

// homologInputs generates blastp-homologs: random queries and a
// redundant subject bank in which subject i is query i mod Queries
// with 10–50% of its residues substituted. Truth is the (query,
// homolog) pairs.
func homologInputs(seed int64, sz sizes) *engineInputs {
	rng := bank.NewRNG(seed)
	queries := bank.New("queries")
	for i := 0; i < sz.Queries; i++ {
		n := homologQueryLen + rng.Intn(2*homologQueryJit+1) - homologQueryJit
		queries.Add(fmt.Sprintf("q%04d", i), bank.RandomProtein(rng, n))
	}
	subjects := bank.New("subjects")
	for i := 0; i < sz.Subjects; i++ {
		rate := 0.1 + 0.4*rng.Float64()
		subjects.Add(fmt.Sprintf("s%05d", i), bank.MutateProtein(rng, queries.Seq(i%sz.Queries), rate))
	}
	h := sha256.New()
	hashBank(h, queries)
	hashBank(h, subjects)
	return &engineInputs{
		query:    queries,
		subjects: subjects,
		opts: []core.Option{
			core.WithMaxCandidates(sz.MaxCandidates),
			core.WithPipeline(pipeline.Config{ShardSize: sz.HomologShard, InFlight: inflight}),
		},
		truth: func(ms []core.Match) (int, int) {
			seen := make(map[[2]int]bool)
			for i := range ms {
				if ms[i].Seq1%sz.Queries == ms[i].Seq0 {
					seen[[2]int{ms[i].Seq0, ms[i].Seq1}] = true
				}
			}
			return len(seen), sz.Subjects
		},
		digest: hex.EncodeToString(h.Sum(nil)),
	}
}

// poolEntry is one distinct service-blastp job: its wire request, the
// same banks decoded for in-process runs, and the true (query,
// subject) pairs — each query is a mutated fragment of one subject.
type poolEntry struct {
	req      *service.JobRequestJSON
	bankIdx  int
	query    *bank.Bank
	subjects *bank.Bank
	truth    map[[2]string]bool
	size     int // encoded request bytes
	// matches is the in-process reference search; want is the same in
	// the service's wire encoding.
	matches []core.Match
	want    []service.AlignmentJSON
}

// serviceInputs generates service-blastp: Banks fixed subject banks
// and a pool of Pool distinct jobs, job i searching JobQueries fresh
// queries against bank i mod Banks. Each query is a 120-aa window of a
// random subject of that bank with 20–30% of its residues substituted.
func serviceInputs(seed int64, sz sizes) ([]*poolEntry, string, error) {
	rng := bank.NewRNG(seed)
	banks := make([]*bank.Bank, sz.Banks)
	wire := make([][]service.SequenceJSON, sz.Banks)
	for b := range banks {
		banks[b] = bank.New(fmt.Sprintf("bank%d", b))
		for s := 0; s < sz.BankSeqs; s++ {
			n := serviceSubjLen + rng.Intn(2*serviceSubjJit+1) - serviceSubjJit
			seq := bank.RandomProtein(rng, n)
			id := fmt.Sprintf("b%ds%02d", b, s)
			banks[b].Add(id, seq)
			wire[b] = append(wire[b], service.SequenceJSON{ID: id, Seq: alphabet.DecodeProtein(seq)})
		}
	}
	h := sha256.New()
	pool := make([]*poolEntry, sz.Pool)
	for i := range pool {
		b := i % sz.Banks
		e := &poolEntry{
			req:      &service.JobRequestJSON{Subject: wire[b]},
			bankIdx:  b,
			query:    bank.New("query"),
			subjects: banks[b],
			truth:    make(map[[2]string]bool),
		}
		for q := 0; q < sz.JobQueries; q++ {
			src := rng.Intn(sz.BankSeqs)
			parent := banks[b].Seq(src)
			off := rng.Intn(len(parent) - serviceQueryLen + 1)
			frag := bank.MutateProtein(rng, parent[off:off+serviceQueryLen], 0.2+0.1*rng.Float64())
			id := fmt.Sprintf("j%dq%d", i, q)
			e.query.Add(id, frag)
			e.req.Query = append(e.req.Query, service.SequenceJSON{ID: id, Seq: alphabet.DecodeProtein(frag)})
			e.truth[[2]string{id, banks[b].ID(src)}] = true
		}
		raw, err := json.Marshal(e.req)
		if err != nil {
			return nil, "", fmt.Errorf("service-blastp inputs: %w", err)
		}
		e.size = len(raw)
		h.Write(raw)
		pool[i] = e
	}
	return pool, hex.EncodeToString(h.Sum(nil)), nil
}

// hashBank feeds a bank's ids and residues into h, length-prefixed.
func hashBank(h hash.Hash, b *bank.Bank) {
	var n [8]byte
	for i := 0; i < b.Len(); i++ {
		for _, field := range [][]byte{[]byte(b.ID(i)), b.Seq(i)} {
			binary.LittleEndian.PutUint64(n[:], uint64(len(field)))
			h.Write(n[:])
			h.Write(field)
		}
	}
}
