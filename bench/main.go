// Command bench is the repository's end-to-end benchmark. It drives the
// scheduler stack through four workloads, prints every metric by name
// with its unit, checks every output it measures and exits non-zero on a
// wrong answer.
//
//	bench -workload table1|verified-corpus|fleet-zipf|tenants-miss|all
//	      [-seed N] [-seconds S] [-trace 0|1] [-spans FILE]
//	      [-repeat N] [-out FILE]
//	bench compare [-benchmark BENCHMARK.json] A B
//
// A single workload runs in this process; -workload all and -repeat run
// each workload in a fresh child process, because the comparison cache,
// the analysis cache and expvar are process-global and one workload would
// otherwise warm the next. The last line of standard output is one JSON
// object: correct, attempted, failed and metrics (the end-to-end metrics,
// or with -trace 1 the per-layer metrics).
//
// See README.md for the workloads, the metrics and how to read them.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// procs pins every measured process to the same parallelism, whatever the
// host offers, so two runs of the benchmark compete for the same share.
const procs = 2

// metricDef names a metric and its unit. The lists below mirror
// BENCHMARK.json; a test keeps them in step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload
// prints all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "ops/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"allocs_per_op", "objects"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the metrics of single layers that BENCHMARK.json lists,
// printed by a traced run: each is exercised by at least one workload the
// benchmark gates. A layer a workload never calls reports 0.
var perLayer = []metricDef{
	{"core.schedule_ms.basic", "ms"},
	{"core.schedule_ms.ds", "ms"},
	{"core.schedule_ms.cds", "ms"},
	{"core.allocate_ms", "ms"},
	{"core.allocs_per_call.schedule", "objects"},
	{"core.allocs_per_call.allocate", "objects"},
	{"sim.eval_calls_per_op", "count"},
	{"sim.eval_ms", "ms"},
	{"sim.run_ms", "ms"},
	{"sim.run_stream_ms", "ms"},
	{"tenant.schedule_ms", "ms"},
	{"verify.schedule_ms", "ms"},
	{"verify.stream_ms", "ms"},
	{"verify.fairness_ms", "ms"},
	{"extract.analyze_ms", "ms"},
	{"extract.cache_hit_ratio", "ratio"},
	{"spec.build_ms", "ms"},
	{"stream.plan_ms", "ms"},
	{"stream.reuse_ratio", "ratio"},
	{"serve.miss_ms.p50", "ms"},
	{"serve.worker_ms", "ms"},
	{"spec.parse_ms", "ms"},
	{"serve.shed_ratio", "ratio"},
	{"serve.queue_depth_max", "count"},
	{"serve.tenant_p99_ms.t1", "ms"},
	{"serve.tenant_p99_ms.t2", "ms"},
	{"serve.tenant_p99_ms.t4", "ms"},
	{"harness.gen_late_p99_ms", "ms"},
	{"harness.trace_overhead_pct", "%"},
}

// fleetLayers are the layer metrics only fleet-zipf exercises. It is not
// gated (see README.md), so a traced run prints them as extras.
var fleetLayers = []metricDef{
	{"rescache.hit_ratio", "ratio"},
	{"rescache.evictions_per_req", "count"},
	{"serve.hit_ms.p50", "ms"},
	{"cluster.forward_ms", "ms"},
	{"cluster.attempts_per_req", "count"},
}

// layerUnit is the unit of a per-layer metric.
func layerUnit(name string) string {
	for _, d := range append(append([]metricDef(nil), perLayer...), fleetLayers...) {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

// workload is one benchmark input set.
type workload struct {
	name string
	run  func(r *run) error
}

var workloadList = []workload{
	{"table1", runTable1},
	{"verified-corpus", runCorpus},
	{"fleet-zipf", runFleet},
	{"tenants-miss", runTenants},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloadList {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one measured value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run of one workload produced.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Extra     map[string]metric `json:"extra,omitempty"`
	Failures  []string          `json:"failures,omitempty"`
}

// line is the last line of standard output, the summary a caller parses.
type line struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// resultPrefix marks the line carrying the full result, which a parent
// process reads from its children.
const resultPrefix = "result "

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spans    string
}

// duration is the measured time of one run.
func (c config) duration() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// args renders the config as child-process flags.
func (c config) args() []string {
	tr := "0"
	if c.trace {
		tr = "1"
	}
	return []string{"-workload", c.workload, "-seed", fmt.Sprint(c.seed),
		"-seconds", fmt.Sprint(c.seconds), "-trace", tr, "-spans", c.spans}
}

func main() {
	runtime.GOMAXPROCS(procs)
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:], os.Stdout))
		case probeArg:
			os.Exit(probeMain(os.Stdin, os.Stdout))
		}
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(argv []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var cfg config
	var trace, repeat int
	var out string
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: table1, verified-corpus, fleet-zipf, tenants-miss or all")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 15, "measured seconds per run on the reference host; sizes the offline workloads' fixed work")
	fs.IntVar(&trace, "trace", 0, "1 records spans and prints the per-layer metrics")
	fs.StringVar(&cfg.spans, "spans", "", "span file of a traced run (default spans/<workload>-s<seed>.jsonl beside the binary)")
	fs.IntVar(&repeat, "repeat", 1, "runs of each workload, each in a fresh process")
	fs.StringVar(&out, "out", "", "also write the full results, with a host header, to this JSON file")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	if cfg.seconds <= 0 || repeat < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive, -repeat at least 1, -trace 0 or 1")
		return 2
	}
	var names []string
	if cfg.workload == "all" {
		for _, w := range workloadList {
			names = append(names, w.name)
		}
	} else if _, ok := findWorkload(cfg.workload); ok {
		names = []string{cfg.workload}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown -workload %q\n", cfg.workload)
		return 2
	}

	var results []*result
	if len(names) == 1 && repeat == 1 {
		res, err := runOne(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		results = append(results, res)
		report(os.Stdout, res)
	} else {
		for i := 0; i < repeat; i++ {
			for _, name := range names {
				c := cfg
				c.workload = name
				res, err := runChild(c, true)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 1
				}
				results = append(results, res)
			}
		}
		summarize(os.Stdout, results)
	}
	if out != "" {
		if err := writeResults(out, results); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	for _, res := range results {
		if !res.Correct {
			return 1
		}
	}
	return 0
}

// runOne runs one workload in this process. A traced run first measures
// the same workload untraced in a child process, so the tracing overhead
// compares two otherwise identical fresh processes.
func runOne(cfg config) (*result, error) {
	w, _ := findWorkload(cfg.workload)
	if cfg.spans == "" {
		cfg.spans = spanPath(cfg.workload, cfg.seed)
	}
	var untraced *result
	if cfg.trace {
		c := cfg
		c.trace = false
		var err error
		if untraced, err = runChild(c, false); err != nil {
			return nil, err
		}
	}
	r, err := newRun(cfg)
	if err != nil {
		return nil, err
	}
	defer r.close()
	if err := w.run(r); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if cfg.trace {
		r.traceOverhead(untraced)
		if err := r.rec.write(cfg.spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return r.finish(), nil
}

// runChild runs one workload in a fresh process of this binary and reads
// back its full result. echo copies the child's report to standard output.
func runChild(cfg config, echo bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, cfg.args()...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", procs))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var res *result
	var perr error
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		text := sc.Text()
		if rest, ok := strings.CutPrefix(text, resultPrefix); ok {
			res = &result{}
			perr = json.Unmarshal([]byte(rest), res)
			continue
		}
		if echo && !strings.HasPrefix(text, "{") {
			fmt.Println(text)
		}
	}
	werr := cmd.Wait()
	switch {
	case perr != nil:
		return nil, fmt.Errorf("%s child: reading its result: %w", cfg.workload, perr)
	case res == nil:
		return nil, fmt.Errorf("%s child printed no result: %v", cfg.workload, werr)
	}
	return res, nil
}

// report prints one run: every metric with its unit, the extras, the
// failed checks, the full result line and the summary line.
func report(w io.Writer, res *result) {
	verdict := "passed"
	if !res.Correct {
		verdict = "FAILED"
	}
	mode := ""
	if res.Trace {
		mode = " (traced)"
	}
	fmt.Fprintf(w, "workload %s seed %d%s: %d attempted, %d failed, checks %s\n",
		res.Workload, res.Seed, mode, res.Attempted, res.Failed, verdict)
	defs := endToEnd
	if res.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		m := res.Metrics[d.name]
		fmt.Fprintf(w, "  %-31s %14.4f %s\n", d.name, m.Value, m.Unit)
	}
	for _, name := range sortedKeys(res.Extra) {
		m := res.Extra[name]
		fmt.Fprintf(w, "  %-31s %14.4f %s\n", name, m.Value, m.Unit)
	}
	for _, f := range res.Failures {
		fmt.Fprintf(os.Stderr, "check failed: %s: %s\n", res.Workload, f)
	}
	full, _ := json.Marshal(res)
	fmt.Fprintf(w, "%s%s\n", resultPrefix, full)
	last, _ := json.Marshal(line{res.Correct, res.Attempted, res.Failed, res.Metrics})
	fmt.Fprintf(w, "%s\n", last)
}

// summarize prints the results of several child runs and a last line that
// folds them together, metric names prefixed by workload and run number.
func summarize(w io.Writer, results []*result) {
	all := line{Correct: true, Metrics: map[string]metric{}}
	seen := map[string]int{}
	for _, res := range results {
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		seen[res.Workload]++
		for name, m := range res.Metrics {
			all.Metrics[fmt.Sprintf("%s#%d/%s", res.Workload, seen[res.Workload], name)] = m
		}
	}
	fmt.Fprintf(w, "%d runs, %d attempted, %d failed, correct=%v\n", len(results), all.Attempted, all.Failed, all.Correct)
	last, _ := json.Marshal(all)
	fmt.Fprintf(w, "%s\n", last)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// header describes the host and build a results file was measured on.
type header struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Commit     string `json:"commit"`
}

// resultsFile is what -out writes and compare reads.
type resultsFile struct {
	Header header    `json:"header"`
	Runs   []*result `json:"runs"`
}

func hostHeader() header {
	h := header{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Commit:     "unknown",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty {
			h.Commit += "+modified"
		}
	}
	return h
}

func writeResults(path string, results []*result) error {
	data, err := json.MarshalIndent(resultsFile{Header: hostHeader(), Runs: results}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing results: %w", err)
	}
	return nil
}
