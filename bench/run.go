package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"cds"
	"cds/internal/core"
)

const (
	// A run builds its inputs (and servers) at least setupRepeats times,
	// and more while the builds so far took less than setupBudget, up to
	// maxSetupRepeats. One build of a tenth of a second varied by about a
	// tenth within a run on a shared VM, more than its scaling removes,
	// so only the median of many is steady.
	setupRepeats    = 5
	maxSetupRepeats = 25
	setupBudget     = 4 * time.Second

	// maxFailures bounds how many failed checks a run lists one by one.
	maxFailures = 20

	// A closed loop pauses every probeEvery, an open-loop phase every
	// serviceChunk, to read the host's speed for probeSlice. On a shared
	// VM the speed swings within a few hundred milliseconds, so the
	// readings have to be close together.
	probeEvery   = 100 * time.Millisecond
	serviceChunk = time.Second
	probeSlice   = 20 * time.Millisecond

	// The resident set is sampled every rssEvery of a measured window;
	// its rssQuantile is the reported peak.
	rssEvery    = 100 * time.Millisecond
	rssQuantile = 0.9

	// maxStretch bounds a fixed amount of work on a slow host: the loop
	// stops after this many times the run's nominal length.
	maxStretch = 3
)

// run is the state of one workload run: its settings, the recorder of a
// traced run (nil otherwise), the host-speed readings and the result
// being filled in.
type run struct {
	cfg     config
	d       time.Duration
	rec     *recorder
	speed   *speedometer
	res     *result
	e2e     map[string]float64 // end-to-end metrics, timings at the reference speed
	raw     map[string]float64 // the end-to-end timings as measured
	layers  map[string]float64
	dropped int
}

// newRun starts a run and its probe process; close stops the probe.
func newRun(cfg config) (*run, error) {
	speed, err := startSpeedometer()
	if err != nil {
		return nil, err
	}
	r := &run{
		cfg:    cfg,
		d:      cfg.duration(),
		speed:  speed,
		e2e:    map[string]float64{},
		raw:    map[string]float64{},
		layers: map[string]float64{},
		res: &result{
			Workload: cfg.workload,
			Seed:     cfg.seed,
			Seconds:  cfg.seconds,
			Trace:    cfg.trace,
			Extra:    map[string]metric{},
		},
	}
	if cfg.trace {
		r.rec = newRecorder()
	}
	return r, nil
}

func (r *run) close() { r.speed.close() }

// ops is how many operations a closed-loop workload that runs perSecond
// of them on the reference host does in the run's measured time.
func (r *run) ops(perSecond float64) int {
	return max(int(r.cfg.seconds*perSecond), 1)
}

// fail records a failed check.
func (r *run) fail(format string, args ...any) {
	if len(r.res.Failures) >= maxFailures {
		r.dropped++
		return
	}
	r.res.Failures = append(r.res.Failures, fmt.Sprintf(format, args...))
}

// failOp counts a failed operation and records why.
func (r *run) failOp(format string, args ...any) {
	r.res.Failed++
	r.fail(format, args...)
}

// extra records a metric beside BENCHMARK.json's lists. Timings are given at
// the reference speed.
func (r *run) extra(name string, v float64, unit string) { r.res.Extra[name] = metric{v, unit} }

// finish assembles the result: the end-to-end metrics of an untraced run
// or the per-layer metrics of a traced one, every name present, and the
// rest as extras. The recorders have already put the end-to-end timings
// at the reference speed; per-layer timings are scaled here by the run's
// median host speed.
func (r *run) finish() *result {
	if r.dropped > 0 {
		r.res.Failures = append(r.res.Failures, fmt.Sprintf("... and %d more", r.dropped))
	}
	if r.speed.err != nil || len(r.speed.readings) == 0 {
		r.res.Failures = append(r.res.Failures, fmt.Sprintf("no host speed to scale the timings by: %v", r.speed.err))
	}
	r.res.Correct = len(r.res.Failures) == 0
	scale := r.speed.scale()
	r.extra("host_speed", scale, "ratio")
	defs, vals := endToEnd, r.e2e
	if r.cfg.trace {
		defs, vals = perLayer, map[string]float64{}
		for name, v := range r.layers {
			vals[name] = scaled(v, layerUnit(name), scale)
		}
		for _, d := range endToEnd {
			if v, ok := r.e2e[d.name]; ok {
				r.extra("traced."+d.name, v, d.unit)
			}
		}
		for _, d := range fleetLayers {
			if v, ok := vals[d.name]; ok {
				r.extra(d.name, v, d.unit)
			}
		}
	} else {
		for _, d := range endToEnd {
			if v, ok := r.raw[d.name]; ok {
				r.extra("raw."+d.name, v, d.unit)
			}
		}
	}
	r.res.Metrics = map[string]metric{}
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.res.Correct = false
			r.res.Failures = append(r.res.Failures, fmt.Sprintf("metric %s is not finite", d.name))
			v = 0
		}
		r.res.Metrics[d.name] = metric{v, d.unit}
	}
	return r.res
}

// scaled converts a value measured on a host running at scale times the
// reference speed to the reference host: times shrink on a slow host,
// rates grow. Values in other units are returned as they are.
func scaled(v float64, unit string, scale float64) float64 {
	switch unit {
	case "s", "ms":
		return v * scale
	case "ops/s":
		return v / scale
	}
	return v
}

// traceOverhead compares the traced run's throughput with the untraced
// child's, both at the reference speed.
func (r *run) traceOverhead(untraced *result) {
	if base := untraced.Metrics["ops_per_s"].Value; base > 0 {
		r.layers["harness.trace_overhead_pct"] = 100 * (base - r.e2e["ops_per_s"]) / base
	}
	if !untraced.Correct {
		r.fail("untraced child run failed its checks: %v", untraced.Failures)
	}
}

// setup builds a run's inputs (and servers) several times, closing every
// build but the last, and reports the median build time as setup_s. The
// host's speed is read before each build and after the last; each build
// is scaled by the mean of the readings around it.
func setup[T any](r *run, build func() (T, func(), error)) (T, func(), error) {
	var v T
	var closeFn func()
	var times, raw []float64
	var spent time.Duration
	before := r.speed.read(probeSlice)
	for i := 0; i < maxSetupRepeats && (i < setupRepeats || spent < setupBudget); i++ {
		if closeFn != nil {
			closeFn()
		}
		runtime.GC()
		t0 := time.Now()
		val, c, err := build()
		if err != nil {
			return v, nil, err
		}
		d := time.Since(t0)
		spent += d
		v, closeFn = val, c
		after := r.speed.read(probeSlice)
		raw = append(raw, d.Seconds())
		times = append(times, d.Seconds()*(before+after)/2)
		before = after
	}
	r.e2e["setup_s"], r.raw["setup_s"] = median(times), median(raw)
	return v, closeFn, nil
}

// window measures a stretch of the run: allocations per operation and the
// resident set. start it after set-up and warm-up, stop it after the last
// measured operation.
type window struct {
	allocs uint64
	rss    *poller
}

// startWindow collects the set-up's garbage and returns the freed memory
// to the OS, so the resident set the window samples is the measured
// operations' alone and not the set-up's, whose repeats vary in number.
func startWindow() window {
	debug.FreeOSMemory()
	return window{allocs: heapAllocs(), rss: poll(rssEvery, rssMiB)}
}

// stop records allocs_per_op over the window's operations, and as
// peak_rss_mb the rssQuantile of the resident set sampled every rssEvery.
// The true high-water mark moved by up to a tenth from run to run, with
// where a collection cycle happened to fall.
func (w window) stop(r *run, ops int) {
	allocs := heapAllocs() - w.allocs
	if ops > 0 {
		r.e2e["allocs_per_op"] = float64(allocs) / float64(ops)
	}
	r.e2e["peak_rss_mb"] = percentile(w.rss.halt(), rssQuantile)
}

// closedLoop runs op for indices 0..n-1, one caller, and records
// throughput, latency and allocations. The work is fixed, so two commits
// run the same operations; only a host so slow that the loop overruns
// maxStretch times the run's length cuts it short. The loop runs in
// chunks of probeEvery; between chunks it pauses, outside the timed
// operations, to read the host's speed, and each chunk's latencies are
// scaled by the mean of the readings on either side of it. op reports a
// failed operation by returning an error.
func (r *run) closedLoop(n int, op func(i int) error) {
	lat := make(samples, 0, n)
	raw := make(samples, 0, n)
	w := startWindow()
	deadline := time.Now().Add(maxStretch * r.d)
	before := r.speed.read(probeSlice)
	for i := 0; i < n; {
		if time.Now().After(deadline) {
			fmt.Fprintf(os.Stderr, "note: %s stopped after %d of %d operations, at %v\n", r.cfg.workload, i, n, maxStretch*r.d)
			break
		}
		from := len(raw)
		for stop := time.Now().Add(probeEvery); i < n && time.Now().Before(stop); i++ {
			t := time.Now()
			if err := op(i); err != nil {
				r.failOp("op %d: %v", i, err)
			}
			raw = append(raw, time.Since(t))
		}
		after := r.speed.read(probeSlice)
		lat = append(lat, raw[from:].scaledBy((before+after)/2)...)
		before = after
	}
	w.stop(r, len(lat))
	r.res.Attempted += int64(len(lat))
	r.latency(lat, raw, "")
}

// latency records throughput and the percentiles of a closed loop's
// per-operation latencies, at the reference speed and as measured, and
// the sample count. Throughput is operations per second spent in them.
func (r *run) latency(lat, raw samples, suffix string) {
	r.e2e["ops_per_s"], r.raw["ops_per_s"] = lat.busyRate(), raw.busyRate()
	r.e2e["p50_ms"], r.raw["p50_ms"] = lat.pct(0.5), raw.pct(0.5)
	r.e2e["p99_ms"], r.raw["p99_ms"] = lat.pct(0.99), raw.pct(0.99)
	r.tail(lat, suffix)
}

// tail records the sample count behind a latency summary and, when the
// sample supports it, the p99.9 (at least ten samples beyond).
func (r *run) tail(s samples, suffix string) {
	r.extra("samples"+suffix, float64(len(s)), "count")
	if !supported(0.99, len(s)) {
		fmt.Fprintf(os.Stderr, "note: %s p99_ms%s rests on %d samples, fewer than %d beyond the percentile\n",
			r.cfg.workload, suffix, len(s), minTail)
	}
	if supported(0.999, len(s)) {
		r.extra("p999_ms"+suffix, percentile(sortedMS(s), 0.999), "ms")
	}
}

// layersFromSpans turns the recorded spans into the per-layer metrics
// every traced workload shares.
func (r *run) layersFromSpans() {
	st := aggregate(r.rec.snapshot())
	get := func(name string) *layerStat {
		if s := st[name]; s != nil {
			return s
		}
		return &layerStat{}
	}
	for _, k := range []string{"basic", "ds", "cds"} {
		r.layers["core.schedule_ms."+k] = get("core.schedule." + k).meanSelfMS()
	}
	for metricName, spanName := range map[string]string{
		"core.allocate_ms":   "core.allocate",
		"sim.eval_ms":        "sim.eval",
		"sim.run_ms":         "sim.run",
		"sim.run_stream_ms":  "sim.run_stream",
		"tenant.schedule_ms": "tenant.schedule",
		"verify.schedule_ms": "verify.schedule",
		"verify.stream_ms":   "verify.stream",
		"verify.fairness_ms": "verify.fairness",
		"extract.analyze_ms": "extract.analyze",
		"spec.build_ms":      "spec.build",
		"stream.plan_ms":     "stream.plan",
		"serve.worker_ms":    "serve.worker",
	} {
		r.layers[metricName] = get(spanName).meanMS()
	}
	if n := get("cds.compare").n; n > 0 {
		r.layers["sim.eval_calls_per_op"] = float64(get("sim.eval").n) / float64(n)
	}
	r.layers["cluster.forward_ms"] = get("cluster.route").meanSelfMS()
	worker := get("serve.worker")
	r.layers["serve.hit_ms.p50"] = median(worker.tags["hit"])
	r.layers["serve.miss_ms.p50"] = median(worker.tags["miss"])
}

// compareInput is one (machine, partition) point a comparison runs on.
type compareInput struct {
	pa   cds.Arch
	part *cds.Part
}

// attributeAllocs is a serial pass over inputs that charges heap
// allocations to the two core stages a comparison spends most of them in:
// scheduling (averaged over the three schedulers) and allocation replay.
// Serial, because the allocation counter is process-wide.
func (r *run) attributeAllocs(ctx context.Context, inputs []compareInput) {
	var sched, alloc uint64
	var nSched, nAlloc int
	for _, in := range inputs {
		for _, kind := range kinds {
			a0 := heapAllocs()
			s, err := mirrorScheduler(kind, nil, 0, 0).ScheduleCtx(ctx, in.pa, in.part)
			a1 := heapAllocs()
			sched += a1 - a0
			nSched++
			if err != nil {
				continue
			}
			if _, err := core.Allocate(s, true); err == nil {
				alloc += heapAllocs() - a1
				nAlloc++
			}
		}
	}
	r.layers["core.allocs_per_call.schedule"] = mean(float64(sched), nSched)
	r.layers["core.allocs_per_call.allocate"] = mean(float64(alloc), nAlloc)
}
