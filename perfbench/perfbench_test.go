package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// testSizes shrinks every workload so a run takes well under a second
// of engine time, while each layer still does real work.
var testSizes = sizes{
	Proteins: 60, GenomeLen: 60_000, Planted: 4, GenomeShard: 20,
	Queries: 24, Subjects: 480, MaxCandidates: 8, HomologShard: 8,
	Banks: 2, BankSeqs: 16, Pool: 8, JobQueries: 4, TracedJobs: 40,
	SetupReps: 2,
}

var workloads = []string{wGenome, wHomologs, wService}

// inputDigest generates a workload's inputs for seed and returns
// their digest: the same seed must give the same digest.
func inputDigest(workload string, seed int64, sz sizes) (string, error) {
	switch workload {
	case wGenome:
		in, err := genomeInputs(seed, sz)
		if err != nil {
			return "", err
		}
		return in.digest, nil
	case wHomologs:
		return homologInputs(seed, sz).digest, nil
	case wService:
		_, d, err := serviceInputs(seed, sz)
		return d, err
	}
	return "", fmt.Errorf("unknown workload %q", workload)
}

func TestInputDigestDependsOnlyOnSeed(t *testing.T) {
	for _, w := range workloads {
		a, err := inputDigest(w, 7, testSizes)
		if err != nil {
			t.Fatal(err)
		}
		b, err := inputDigest(w, 7, testSizes)
		if err != nil {
			t.Fatal(err)
		}
		c, err := inputDigest(w, 8, testSizes)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%s: seed 7 gave digests %s and %s", w, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 both gave digest %s", w, a)
		}
	}
}

// spec is the part of BENCHMARK.json the benchmark must agree with.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) *spec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return &s
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	s := loadSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloads)
	}
	for _, c := range []struct {
		name string
		json []specMetric
		defs []metricDef
	}{{"end_to_end", s.EndToEnd, endToEnd}, {"per_layer", s.PerLayer, perLayer}} {
		var want []specMetric
		for _, d := range c.defs {
			want = append(want, specMetric{d.name, d.unit})
		}
		if !slices.Equal(c.json, want) {
			t.Errorf("BENCHMARK.json %s\n  %v\nbenchmark reports\n  %v", c.name, c.json, want)
		}
	}
}

// buildDaemon builds seedservd for the service workload.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "seedservd")
	out, err := exec.Command("go", "build", "-o", bin, "seedblast/cmd/seedservd").CombinedOutput()
	if err != nil {
		t.Fatalf("building seedservd: %v\n%s", err, out)
	}
	return bin
}

// TestShrunkRuns runs every workload twice on shrunk inputs: each run
// must check out correct and report every metric with its unit, and
// the work counts must repeat exactly.
func TestShrunkRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	daemon := buildDaemon(t)
	counts := []string{"ungapped.pairs", "gapped.dps", "gapped.dp_cells", "prefilter.kept", "recall"}
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			var runs [2]map[string]float64
			for i := range runs {
				out, err := run(context.Background(), params{
					workload: w,
					seed:     3,
					seconds:  200 * time.Millisecond,
					trace:    true,
					daemon:   daemon,
					sizes:    testSizes,
				})
				if err != nil {
					t.Fatal(err)
				}
				for _, trace := range []bool{false, true} {
					res, err := out.result(trace)
					if err != nil {
						t.Fatal(err)
					}
					if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
						t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d", trace, res.Correct, res.Attempted, res.Failed)
					}
					defs := endToEnd
					if trace {
						defs = perLayer
					}
					if len(res.Metrics) != len(defs) {
						t.Errorf("trace=%v: %d metrics, want %d", trace, len(res.Metrics), len(defs))
					}
					for _, d := range defs {
						if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
							t.Errorf("trace=%v: metric %s = %+v, want unit %s", trace, d.name, m, d.unit)
						}
					}
				}
				for _, name := range []string{"setup_s", "search_s", "recall", "jobs_per_s", "job_p50_ms", "job_p99_ms", "peak_rss_mb", "gapped.dps"} {
					if out.values[name] <= 0 {
						t.Errorf("%s = %v, want > 0", name, out.values[name])
					}
				}
				runs[i] = out.values
			}
			for _, name := range counts {
				if runs[0][name] != runs[1][name] {
					t.Errorf("%s: %v then %v on the same seed", name, runs[0][name], runs[1][name])
				}
			}
			if w == wHomologs && (runs[0]["prefilter.kept"] == 0 || runs[0]["prefilter.dropped"] == 0) {
				t.Errorf("prefilter kept %v and dropped %v: the cut did not bind", runs[0]["prefilter.kept"], runs[0]["prefilter.dropped"])
			}
		})
	}
}
