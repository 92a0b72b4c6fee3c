package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"cds"
	"cds/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json from the current code")

// TestMain lets the test binary serve as the host-speed probe process a
// run starts, as the benchmark binary does.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == probeArg {
		os.Exit(probeMain(os.Stdin, os.Stdout))
	}
	os.Exit(m.Run())
}

// referenceSeeds are the seeds golden.json pins beyond the seed-free rows.
var referenceSeeds = []int64{1, 2}

// computeGolden derives the references from the facade.
func computeGolden(t *testing.T) *golden {
	t.Helper()
	defer cds.SetResultCaching(cds.SetResultCaching(false))
	ctx := context.Background()
	g := &golden{Rows: map[string]outcome{}, Synthetic: map[string]map[string]outcome{}, Corpus: map[string]string{}}
	for _, seed := range referenceSeeds {
		inputs, err := table1Inputs(seed)
		if err != nil {
			t.Fatal(err)
		}
		syn := map[string]outcome{}
		for i, in := range inputs {
			cmp, _ := cds.CompareAllCtx(ctx, in.pa, in.part)
			if i < len(workloads.All()) {
				g.Rows[in.name] = outcomeOf(cmp)
			} else {
				syn[in.name] = outcomeOf(cmp)
			}
		}
		g.Synthetic[fmt.Sprint(seed)] = syn

		c := newCorpus(&run{}, seed)
		records := make([]corpusRecord, digestOps)
		for i := range records {
			records[i] = c.op(i)
		}
		g.Corpus[fmt.Sprint(seed)] = corpusDigest(records)
	}
	return g
}

// TestGolden keeps testdata/golden.json in step with the code; -update
// rewrites it.
func TestGolden(t *testing.T) {
	got := computeGolden(t)
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join("testdata", "golden.json"), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("testdata/golden.json is stale; the scheduler's answers changed (rerun with -update only if the change is meant)")
	}
}

// definition reads BENCHMARK.json from the repository root.
func definition(t *testing.T) (e2e, layers []boundDef) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		EndToEnd []boundDef `json:"end_to_end"`
		PerLayer []boundDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	return def.EndToEnd, def.PerLayer
}

// TestDefinitionMatches keeps the metric lists in the code and in
// BENCHMARK.json the same, names and units in order.
func TestDefinitionMatches(t *testing.T) {
	e2e, layers := definition(t)
	for _, tc := range []struct {
		code []metricDef
		file []boundDef
	}{{endToEnd, e2e}, {perLayer, layers}} {
		if len(tc.code) != len(tc.file) {
			t.Fatalf("code lists %d metrics, BENCHMARK.json %d", len(tc.code), len(tc.file))
		}
		for i, d := range tc.code {
			if d.name != tc.file[i].Name || d.unit != tc.file[i].Unit {
				t.Errorf("metric %d: code %s [%s], BENCHMARK.json %s [%s]", i, d.name, d.unit, tc.file[i].Name, tc.file[i].Unit)
			}
		}
	}
}

// TestWorkloads runs every workload for 0.4 s, untraced and traced, and
// checks that every metric prints with its unit and a finite value (a
// traced fleet-zipf run also its layer extras) and that the correctness
// checks pass.
func TestWorkloads(t *testing.T) {
	e2e, layers := definition(t)
	for _, w := range workloadList {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, traced), func(t *testing.T) {
				cfg := config{workload: w.name, seed: 1, seconds: 0.4, trace: traced,
					spans: filepath.Join(t.TempDir(), "spans.jsonl")}
				r, err := newRun(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer r.close()
				if err := w.run(r); err != nil {
					t.Fatal(err)
				}
				res := r.finish()
				if !res.Correct || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failures=%v", res.Correct, res.Attempted, res.Failures)
				}
				defs := e2e
				if traced {
					defs = layers
					if err := r.rec.write(cfg.spans); err != nil {
						t.Fatal(err)
					}
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("metric %s: %+v (present %v), want unit %s and a finite value", d.Name, m, ok, d.Unit)
					}
				}
				if traced && w.name == "fleet-zipf" {
					for _, d := range fleetLayers {
						if m, ok := res.Extra[d.name]; !ok || m.Unit != d.unit {
							t.Errorf("extra %s: %+v (present %v), want unit %s", d.name, m, ok, d.unit)
						}
					}
				}
				if !traced {
					for _, name := range []string{"setup_s", "ops_per_s", "p50_ms", "allocs_per_op", "peak_rss_mb"} {
						if res.Metrics[name].Value <= 0 {
							t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
						}
					}
				}
			})
		}
	}
}

func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		q    float64
		n    int
		want bool
	}{
		{0.99, 999, false}, {0.99, 1000, true}, {0.999, 9999, false}, {0.999, 10000, true}, {0.5, 20, true}, {0.5, 19, false},
	} {
		if got := supported(tc.q, tc.n); got != tc.want {
			t.Errorf("supported(%v, %d) = %v, want %v", tc.q, tc.n, got, tc.want)
		}
	}
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if p := percentile(s, 0.99); p != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", p)
	}
	if p := percentile(s, 0.5); p != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", p)
	}
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(values, n=4).
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		in        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
	} {
		q1, m, q3 := quartiles(tc.in)
		if q1 != tc.q1 || m != tc.m || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.in, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
}

// TestArrivalsSeeded: the same seed gives the same schedule, its rate is
// the one asked for, and every due time lies inside the phase.
func TestArrivalsSeeded(t *testing.T) {
	a := arrivals(rand.New(rand.NewSource(7)), 1000, 5*time.Second)
	b := arrivals(rand.New(rand.NewSource(7)), 1000, 5*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different arrival schedules")
	}
	if c := arrivals(rand.New(rand.NewSource(8)), 1000, 5*time.Second); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds, same arrival schedule")
	}
	if n := len(a); n < 4700 || n > 5300 {
		t.Errorf("%d arrivals in 5 s at 1000/s", n)
	}
	for i, d := range a {
		if d < 0 || d >= 5*time.Second || (i > 0 && d < a[i-1]) {
			t.Fatalf("arrival %d at %v out of order or outside the phase", i, d)
		}
	}
}

// TestZipfDraw: the key draw is seeded and skewed — the hottest key is
// the most frequent and a few keys carry most of the traffic.
func TestZipfDraw(t *testing.T) {
	draw := func(seed int64) []int {
		f := &fleetRig{zipf: rand.NewZipf(rand.New(rand.NewSource(seed)), fleetZipfS, 1, fleetKeys-1)}
		keys := make([]int, 20000)
		for i := range keys {
			keys[i] = f.next().key
		}
		return keys
	}
	a, b := draw(3), draw(3)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different key draws")
	}
	count := map[int]int{}
	for _, k := range a {
		if k < 0 || k >= fleetKeys {
			t.Fatalf("key %d outside [0, %d)", k, fleetKeys)
		}
		count[k]++
	}
	for k, n := range count {
		if k != 0 && n > count[0] {
			t.Errorf("key %d drawn %d times, more than the hottest key's %d", k, n, count[0])
		}
	}
	top := 0
	for k := 0; k < 512; k++ {
		top += count[k]
	}
	if share := float64(top) / float64(len(a)); share < 0.6 {
		t.Errorf("the 512 hottest keys carry %.2f of the draws, want most", share)
	}
}

func TestJudgeMetric(t *testing.T) {
	same := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		name        string
		a, b        []float64
		lowerBetter bool
		bound       float64
		want        string
	}{
		{"unchanged", same, []float64{101, 100, 100, 99, 101}, true, 0.05, "unchanged"},
		{"worse latency", same, []float64{120, 121, 119, 120, 122}, true, 0.05, "worse"},
		{"improved latency", same, []float64{80, 81, 79, 80, 82}, true, 0.05, "improved"},
		{"worse throughput", same, []float64{80, 81, 79, 80, 82}, false, 0.05, "worse"},
		{"improved throughput", same, []float64{120, 121, 119, 120, 122}, false, 0.05, "improved"},
		{"noisy", []float64{50, 150, 100, 60, 140}, []float64{130, 70, 100, 145, 55}, true, 0.05, "unresolved"},
		{"noisy but every run better", []float64{150, 200, 170, 160, 190}, []float64{100, 140, 120, 110, 130}, true, 0.05, "improved"},
		{"within bound", same, []float64{104, 105, 103, 104, 106}, true, 0.05, "unchanged"},
	} {
		if got := judgeMetric(tc.a, tc.b, tc.lowerBetter, tc.bound).verdict; got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestJudgeFailures: a change that fails more operations is worse even
// when its latency samples, which leave failures out, read better.
func TestJudgeFailures(t *testing.T) {
	runs := func(failed ...int64) []*result {
		var out []*result
		for _, f := range failed {
			out = append(out, &result{Attempted: 1000, Failed: f})
		}
		return out
	}
	for _, tc := range []struct {
		name string
		a, b []*result
		want string
	}{
		{"none failed", runs(0, 0, 0), runs(0, 0, 0), "unchanged"},
		{"fails a share", runs(0, 0, 0), runs(20, 25, 30), "worse"},
		{"within the bound", runs(0, 0, 0), runs(1, 0, 1), "unchanged"},
		{"fewer failures", runs(10, 10, 10), runs(0, 0, 0), "unchanged"},
	} {
		if _, _, got := judgeFailures(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCoveredUnionsParallelChildren(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	kids := []span{{Start: 10, End: 40}, {Start: 20, End: 50}, {Start: 70, End: 80}, {Start: 90, End: 120}}
	if got := covered(parent, kids); got != 40+10+10 {
		t.Errorf("covered = %d, want 60", got)
	}
}
