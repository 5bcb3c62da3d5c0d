//lint:file-ignore SA1019 this file deliberately exercises the deprecated v1 adapters to pin them against v2

package seedblast_test

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"reflect"
	"sort"
	"strings"
	"testing"

	"seedblast"
	"seedblast/internal/core"
	"seedblast/internal/gapped"
	"seedblast/internal/stats"
	"seedblast/internal/translate"
	"seedblast/internal/ungapped"
)

// Compile-time exhaustiveness gate for the v2 facade: every exported
// v2 symbol must round-trip through its internal counterpart. A facade
// alias that drifts from its core type, or a constructor whose
// signature no longer matches, fails this file at build time — before
// any test runs. (The apidiff CI gate guards the other direction:
// accidental breaking changes to this surface.)
var (
	// Type aliases: assignability in both directions proves identity.
	_ core.Match        = seedblast.Match{}
	_ seedblast.Match   = core.Match{}
	_ core.Locus        = seedblast.Locus{}
	_ seedblast.Locus   = core.Locus{}
	_ core.Summary      = seedblast.Summary{}
	_ seedblast.Summary = core.Summary{}
	_ *core.Searcher    = (*seedblast.Searcher)(nil)
	_ *core.Results     = (*seedblast.Results)(nil)
	_ core.Option       = seedblast.Option(nil)

	_ core.Target      = (*seedblast.ProteinTarget)(nil)
	_ core.Target      = (*seedblast.GenomeTarget)(nil)
	_ core.Target      = (*seedblast.DNATarget)(nil)
	_ seedblast.Target = core.Target(nil)

	_ gapped.Alignment  = seedblast.Alignment{}
	_ gapped.Span       = seedblast.Span{}
	_ translate.Frame   = seedblast.Frame(0)
	_ stats.SearchSpace = seedblast.SearchSpace{}
	_ gapped.Config     = seedblast.GappedConfig{}

	// Constructors and option setters: exact signature matches.
	_ func(...seedblast.Option) (*seedblast.Searcher, error)       = seedblast.NewSearcher
	_ func(*seedblast.Bank) *seedblast.ProteinTarget               = seedblast.NewProteinTarget
	_ func([]byte, *seedblast.GeneticCode) *seedblast.GenomeTarget = seedblast.NewGenomeTarget
	_ func([][]byte, *seedblast.GeneticCode) *seedblast.DNATarget  = seedblast.NewDNATarget

	// v1-shape bridges.
	_ func([]seedblast.Match, *seedblast.Summary) *seedblast.Result            = seedblast.ResultFrom
	_ func([]seedblast.Match, *seedblast.Summary, int) *seedblast.GenomeResult = seedblast.GenomeResultFrom

	_ seedblast.Option                                = seedblast.WithOptions(seedblast.Options{})
	_ func(seedblast.SeedModel) seedblast.Option      = seedblast.WithSeed
	_ func(int) seedblast.Option                      = seedblast.WithNeighborhood
	_ func(*seedblast.Matrix) seedblast.Option        = seedblast.WithMatrix
	_ func(int) seedblast.Option                      = seedblast.WithUngappedThreshold
	_ func(seedblast.Engine) seedblast.Option         = seedblast.WithEngine
	_ func(seedblast.RASCOptions) seedblast.Option    = seedblast.WithRASC
	_ func(int) seedblast.Option                      = seedblast.WithWorkers
	_ func(seedblast.Kernel) seedblast.Option         = seedblast.WithStep2Kernel
	_ ungapped.Kernel                                 = seedblast.KernelBlocked
	_ seedblast.Kernel                                = ungapped.KernelScalar
	_ func(string) (seedblast.Kernel, error)          = seedblast.ParseKernel
	_ func(string) (seedblast.Engine, error)          = seedblast.ParseEngine
	_ func(int) seedblast.Option                      = seedblast.WithMaxCandidates
	_ func(seedblast.PipelineConfig) seedblast.Option = seedblast.WithPipeline
	_ func(seedblast.GappedConfig) seedblast.Option   = seedblast.WithGapped
	_ func(float64) seedblast.Option                  = seedblast.WithMaxEValue
	_ func(bool) seedblast.Option                     = seedblast.WithTraceback
	_ func(seedblast.SearchSpace) seedblast.Option    = seedblast.WithSearchSpace
	_ func(*seedblast.GeneticCode) seedblast.Option   = seedblast.WithGeneticCode
)

// The Search entry point and the streaming result surface, asserted
// by use (method sets cannot be asserted by assignment alone).
func TestV2FacadeSearchSurface(t *testing.T) {
	proteins := seedblast.GenerateProteins(seedblast.ProteinConfig{N: 4, MeanLen: 80, Seed: 71})
	genome, _, err := seedblast.GenerateGenome(seedblast.GenomeConfig{
		Length: 15_000, Source: proteins, PlantCount: 2, Seed: 72,
	})
	if err != nil {
		t.Fatal(err)
	}

	searcher, err := seedblast.NewSearcher(seedblast.WithMaxEValue(10))
	if err != nil {
		t.Fatal(err)
	}
	target := seedblast.NewGenomeTarget(genome, nil)
	results := searcher.Search(context.Background(), seedblast.NewProteinTarget(proteins), target)

	var streamed []seedblast.Match
	for m, err := range results.Matches() {
		if err != nil {
			t.Fatal(err)
		}
		streamed = append(streamed, m)
	}
	if len(streamed) == 0 {
		t.Fatal("v2 facade search found nothing")
	}
	sum, err := results.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Pairs == 0 || sum.Hits == 0 {
		t.Errorf("summary counters empty: %+v", sum)
	}

	// Collect on a fresh Results must equal the streamed sequence, and
	// both must match the deprecated v1 adapter bit-for-bit.
	collected, err := searcher.Search(context.Background(), seedblast.NewProteinTarget(proteins), target).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(collected) != len(streamed) {
		t.Fatalf("Collect returned %d matches, stream %d", len(collected), len(streamed))
	}
	opt := seedblast.DefaultOptions()
	opt.Gapped.MaxEValue = 10
	legacy, err := seedblast.CompareGenome(proteins, genome, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(legacy.Matches) != len(streamed) {
		t.Fatalf("legacy adapter returned %d matches, v2 %d", len(legacy.Matches), len(streamed))
	}
	for i := range streamed {
		if !reflect.DeepEqual(streamed[i].Alignment, legacy.Matches[i].Alignment) {
			t.Fatalf("match %d diverges between v2 and the legacy adapter:\n got %+v\nwant %+v",
				i, streamed[i].Alignment, legacy.Matches[i].Alignment)
		}
	}
}

// The facade re-exports exactly core's option setters: the top-level
// With* functions of the root package and of internal/core are the same
// set of names, so a setter added on one side without the other fails
// here (the signature gate above then pins each re-export's type).
func TestFacadeReexportsEveryCoreSetter(t *testing.T) {
	coreSetters, facadeSetters := withFuncs(t, "internal/core"), withFuncs(t, ".")
	if len(coreSetters) == 0 {
		t.Fatal("no With* setters found in internal/core")
	}
	if !reflect.DeepEqual(coreSetters, facadeSetters) {
		t.Errorf("With* setters differ:\n core:   %v\n facade: %v", coreSetters, facadeSetters)
	}
}

// withFuncs lists the top-level With* functions declared in the
// non-test files of the package in dir, sorted.
func withFuncs(t *testing.T, dir string) []string {
	t.Helper()
	fset := token.NewFileSet()
	notTest := func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }
	pkgs, err := parser.ParseDir(fset, dir, notTest, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "With") {
					names = append(names, fd.Name.Name)
				}
			}
		}
	}
	sort.Strings(names)
	return names
}
