package main

// bench compare A B applies the acceptance rule for a performance claim
// to two sets of runs (A the parent, B the change), per workload and
// end-to-end metric:
//
//   - improved: B wins at least nine tenths of the run pairs (ties count
//     for neither) and the medians differ, in B's favour, by more than
//     A's own spread (the distance between its quartiles);
//   - unresolved: either side's spread, as a share of its median, is
//     wider than the metric's bound, so a change of that size cannot be
//     told from noise — unless every B run reads better than every A run;
//   - worse: B's median is worse than A's by more than the bound;
//   - unchanged: otherwise.
//
// Directions and bounds come from BENCHMARK.json, and only the workloads
// it lists are judged. Each workload also gets
// a failed/attempted row: B is worse when the share of its operations
// that failed exceeds A's by more than failBound. Failed requests are left
// out of the latency samples, so without this row a change that fails
// slow requests fast would read as a latency gain. The exit status is 1
// when any pair is worse.

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchmarkDef is the part of BENCHMARK.json compare reads.
type benchmarkDef struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []boundDef `json:"end_to_end"`
}

// gates reports whether BENCHMARK.json lists the workload.
func (d *benchmarkDef) gates(workload string) bool {
	for _, w := range d.Workloads {
		if w.Name == workload {
			return true
		}
	}
	return false
}

type boundDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchmark(path string) (*benchmarkDef, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def benchmarkDef
	if err := json.Unmarshal(data, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &def, nil
}

// loadRuns reads the untraced runs in a results file, or in every .json
// file of a directory (in name order), grouped by workload in file order.
func loadRuns(path string) (map[string][]*result, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		files, err = filepath.Glob(filepath.Join(path, "*.json"))
		if err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	runs := map[string][]*result{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rf resultsFile
		if err := json.Unmarshal(data, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		for _, res := range rf.Runs {
			if !res.Trace {
				runs[res.Workload] = append(runs[res.Workload], res)
			}
		}
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no untraced runs", path)
	}
	return runs, nil
}

// judgement is the outcome of comparing one metric on one workload.
type judgement struct {
	q1A, medA, q3A float64
	q1B, medB, q3B float64
	delta          float64 // relative change of the median, positive = worse
	winShare       float64 // share of pairs B wins
	verdict        string
}

// judgeMetric compares metric samples a (parent) and b (change).
func judgeMetric(a, b []float64, lowerBetter bool, bound float64) judgement {
	var j judgement
	j.q1A, j.medA, j.q3A = quartiles(a)
	j.q1B, j.medB, j.q3B = quartiles(b)
	better := func(x, y float64) bool { // x reads better than y
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	j.delta = relative(j.medB-j.medA, j.medA)
	if !lowerBetter {
		j.delta = -j.delta
	}
	pairs, wins := min(len(a), len(b)), 0
	for i := 0; i < pairs; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	if pairs > 0 {
		j.winShare = float64(wins) / float64(pairs)
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	spread := math.Max(relative(j.q3A-j.q1A, j.medA), relative(j.q3B-j.q1B, j.medB))
	gain := j.medA - j.medB
	if !lowerBetter {
		gain = -gain
	}
	switch {
	case j.winShare >= 0.9 && gain > j.q3A-j.q1A:
		j.verdict = "improved"
	case spread > bound && !allBetter:
		j.verdict = "unresolved"
	case j.delta > bound:
		j.verdict = "worse"
	default:
		j.verdict = "unchanged"
	}
	return j
}

// failBound is how far, as an absolute share, B's failed/attempted may
// exceed A's before the workload counts as worse.
const failBound = 0.001

// judgeFailures compares the share of operations that failed over all of
// each side's runs.
func judgeFailures(a, b []*result) (shareA, shareB float64, verdict string) {
	share := func(runs []*result) float64 {
		var failed, attempted int64
		for _, r := range runs {
			failed += r.Failed
			attempted += r.Attempted
		}
		return ratio(failed, attempted)
	}
	shareA, shareB = share(a), share(b)
	if shareB > shareA+failBound {
		return shareA, shareB, "worse"
	}
	return shareA, shareB, "unchanged"
}

func relative(d, base float64) float64 {
	if base == 0 {
		if d == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return d / math.Abs(base)
}

func compareMain(argv []string, w io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	defPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition: each metric's direction and bound")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare [-benchmark BENCHMARK.json] A B (results files or directories)")
		return 2
	}
	def, err := loadBenchmark(*defPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	a, err := loadRuns(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	b, err := loadRuns(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	worse := false
	fmt.Fprintf(w, "%-16s %-14s %-8s %12s %12s %8s %6s %6s  %s\n",
		"workload", "metric", "unit", "median A", "median B", "worse", "wins", "bound", "verdict")
	for _, wl := range sortedKeys(a) {
		if len(b[wl]) == 0 {
			fmt.Fprintf(w, "%-16s (no runs in B)\n", wl)
			continue
		}
		if !def.gates(wl) {
			fmt.Fprintf(w, "%-16s (not in BENCHMARK.json: not judged)\n", wl)
			continue
		}
		for _, m := range def.EndToEnd {
			j := judgeMetric(values(a[wl], m.Name), values(b[wl], m.Name), m.Better == "lower", m.Bound)
			worse = worse || j.verdict == "worse"
			fmt.Fprintf(w, "%-16s %-14s %-8s %12.4g %12.4g %+7.2f%% %5.0f%% %5.1f%%  %s  (A q1-q3 %.4g-%.4g, B %.4g-%.4g, n=%d/%d)\n",
				wl, m.Name, m.Unit, j.medA, j.medB, 100*j.delta, 100*j.winShare, 100*m.Bound, strings.ToUpper(j.verdict[:1])+j.verdict[1:],
				j.q1A, j.q3A, j.q1B, j.q3B, len(a[wl]), len(b[wl]))
		}
		fa, fb, verdict := judgeFailures(a[wl], b[wl])
		worse = worse || verdict == "worse"
		fmt.Fprintf(w, "%-16s %-14s %-8s %12.4g %12.4g %+8.4f %6s %6.3f  %s\n",
			wl, "failed", "share", fa, fb, fb-fa, "", failBound, strings.ToUpper(verdict[:1])+verdict[1:])
	}
	if worse {
		return 1
	}
	return 0
}

func values(runs []*result, name string) []float64 {
	out := make([]float64, 0, len(runs))
	for _, r := range runs {
		out = append(out, r.Metrics[name].Value)
	}
	return out
}
