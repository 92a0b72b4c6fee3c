// Command stream replays an arrival log through the online scheduler:
// segments are planned incrementally with the Complete Data Scheduler
// (unchanged segments reuse their fingerprint-memoized schedules), the
// stitched schedule executes under the streaming simulator with and
// without context prefetch, both executions are audited against the
// prefetch invariant family, and the result is compared against the
// static CDS schedule of the merged offline application — the cost of
// going online, and how much of it prefetch buys back.
//
// Usage:
//
//	stream -log app.stream.json                       # replay a JSON arrival log
//	stream -gen 7 -index 3                            # replay a generated bursty scenario
//	stream -log app.stream.json -format svg -out diff.svg   # static/serialized/prefetch Gantt diff
//	stream -log app.stream.json -json                 # machine-readable replay report
//
// Formats mirror cmd/trace: diff (default when -out is set), summary,
// chrome and svg; the exported artifact stacks the static schedule, the
// serialized online baseline and the prefetching executor.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"cds"
	"cds/internal/sim"
	"cds/internal/stream"
	"cds/internal/trace"
	"cds/internal/verify"
	"cds/internal/workloads"
)

func main() {
	logPath := flag.String("log", "", "JSON arrival log to replay")
	gen := flag.Int64("gen", -1, "generate the arrival scenario from this corpus seed instead of -log")
	index := flag.Int("index", 0, "scenario index within the -gen seed's stream")
	format := flag.String("format", "", "trace export format: diff, summary, chrome or svg (default diff when -out is set)")
	out := flag.String("out", "", "write the trace artifact to this file")
	jsonOut := flag.Bool("json", false, "emit the replay report as JSON on stdout")
	memo := flag.Int("memo", 0, "segment memo bound (0 = default)")
	timeout := flag.Duration("timeout", 0, "abort after this duration (0 = no limit)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if err := run(ctx, *logPath, *gen, *index, *format, *out, *jsonOut, *memo); err != nil {
		fmt.Fprintf(os.Stderr, "stream: %v\n", err)
		os.Exit(1)
	}
}

// report is the machine-readable replay outcome (-json).
type report struct {
	Name     string    `json:"name"`
	Segments []segment `json:"segments"`
	// Makespans of the three executions of the same workload.
	StaticCycles   int `json:"static_cycles"`
	SerialCycles   int `json:"serial_cycles"`
	PrefetchCycles int `json:"prefetch_cycles"`
	// Hoisted context traffic under prefetch.
	PrefetchedBursts int `json:"prefetched_bursts"`
	PrefetchedBusy   int `json:"prefetched_busy"`
	// Verified reports that both streamed executions passed the prefetch
	// invariant family (the replay fails otherwise).
	Verified bool `json:"verified"`
}

type segment struct {
	Name        string `json:"name"`
	At          int    `json:"at"`
	Fingerprint string `json:"fingerprint"`
	RF          int    `json:"rf"`
	Visits      int    `json:"visits"`
}

func run(ctx context.Context, logPath string, gen int64, index int, format, out string, jsonOut bool, memoSize int) error {
	lg, err := load(logPath, gen, index)
	if err != nil {
		return err
	}

	start := time.Now()
	plan, err := stream.NewPlanner(memoSize).Plan(ctx, lg)
	if err != nil {
		return err
	}
	planDur := time.Since(start)

	serialRes, serialTL, err := plan.Trace(false, plan.Name+"/serialized")
	if err != nil {
		return err
	}
	preRes, preTL, err := plan.Trace(true, plan.Name+"/prefetch")
	if err != nil {
		return err
	}
	for _, v := range []struct {
		opts sim.StreamOpts
		res  *sim.Result
		tl   *trace.Timeline
	}{
		{plan.Opts(false), serialRes, serialTL},
		{plan.Opts(true), preRes, preTL},
	} {
		if err := verify.StreamTimeline(plan.Schedule, v.opts, v.res, v.tl); err != nil {
			return err
		}
	}

	// The offline yardstick: static CDS over the merged application.
	merged, err := lg.Merged()
	if err != nil {
		return err
	}
	part, pa, err := merged.Build()
	if err != nil {
		return err
	}
	static, err := cds.RunCtx(ctx, cds.CDS, pa, part)
	if err != nil {
		return err
	}
	_, staticTL, err := sim.Trace(static.Schedule)
	if err != nil {
		return err
	}
	staticTL.Label = plan.Name + "/static"

	rep := report{
		Name:             plan.Name,
		StaticCycles:     static.Timing.TotalCycles,
		SerialCycles:     serialRes.TotalCycles,
		PrefetchCycles:   preRes.TotalCycles,
		PrefetchedBursts: preRes.PrefetchCount,
		PrefetchedBusy:   preRes.PrefetchCycles,
		Verified:         true,
	}
	for _, s := range plan.Segments {
		rep.Segments = append(rep.Segments, segment{
			Name:        s.Name,
			At:          s.At,
			Fingerprint: fmt.Sprintf("%x", s.Fingerprint[:6]),
			RF:          s.RF,
			Visits:      s.Schedule.NumVisits(),
		})
	}

	if out != "" {
		if format == "" {
			format = "diff"
		}
		if err := trace.ExportFile(out, format, staticTL, serialTL, preTL); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "stream: wrote %s (%s)\n", out, format)
	}

	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}

	fmt.Printf("%s: %d segments, %d visits, planned in %s (%d replanned, %d reused)\n",
		rep.Name, len(plan.Segments), plan.Schedule.NumVisits(), planDur.Round(time.Microsecond),
		plan.Replanned, plan.Reused)
	fmt.Printf("%-24s %8s %14s %4s %7s\n", "segment", "arrives", "fingerprint", "rf", "visits")
	for _, s := range rep.Segments {
		fmt.Printf("%-24s %8d %14s %4d %7d\n", s.Name, s.At, s.Fingerprint, s.RF, s.Visits)
	}
	online := float64(rep.SerialCycles-rep.StaticCycles) / float64(rep.StaticCycles) * 100
	won := float64(rep.SerialCycles-rep.PrefetchCycles) / float64(rep.SerialCycles) * 100
	fmt.Printf("static CDS (offline):     %8d cycles\n", rep.StaticCycles)
	fmt.Printf("streamed, serialized:     %8d cycles  (+%.1f%% online cost)\n", rep.SerialCycles, online)
	fmt.Printf("streamed, prefetch:       %8d cycles  (%.1f%% of the baseline won back, %d bursts / %d cycles hoisted)\n",
		rep.PrefetchCycles, won, rep.PrefetchedBursts, rep.PrefetchedBusy)
	fmt.Printf("prefetch invariants:      pass\n")
	return nil
}

func load(logPath string, gen int64, index int) (*stream.Log, error) {
	switch {
	case logPath != "" && gen >= 0:
		return nil, fmt.Errorf("use either -log or -gen, not both")
	case logPath != "":
		raw, err := os.ReadFile(logPath)
		if err != nil {
			return nil, err
		}
		return stream.ParseLog(raw)
	case gen >= 0:
		a := workloads.GenArrivals(gen, index)
		return stream.Split(a.Spec, a.SegClusters, a.ArriveAt)
	default:
		return nil, fmt.Errorf("one of -log or -gen is required")
	}
}
