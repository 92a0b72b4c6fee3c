// Command cds schedules an application described in a JSON spec (or one
// of the built-in paper experiments) with a chosen scheduler, and prints
// the schedule summary, optionally the Frame Buffer allocation timeline
// (the paper's Figure 5 view) and the generated TinyRISC-level program.
//
// Usage:
//
//	cds -spec app.json [-scheduler cds] [-trace] [-program]
//	cds -experiment MPEG -scheduler ds -trace
//
// A run is cancellable: -timeout bounds it, and SIGINT (Ctrl-C) stops it
// cooperatively; either way the error printed to stderr matches the
// scherr.ErrCanceled taxonomy class and the exit status is non-zero.
//
// Spec format:
//
//	{
//	  "name": "pipe", "iterations": 8,
//	  "arch": {"fbSetBytes": 2048, "cmWords": 512},
//	  "data": [{"name": "in", "size": 100}, {"name": "out", "size": 50, "final": true}],
//	  "kernels": [{"name": "k1", "contextWords": 64, "computeCycles": 500,
//	               "inputs": ["in"], "outputs": ["out"]}],
//	  "clusters": [1]
//	}
package main

import (
	"context"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"os/signal"
	"sort"

	"cds"
	"cds/internal/app"
	"cds/internal/arch"
	"cds/internal/codegen"
	"cds/internal/core"
	"cds/internal/machine"
	"cds/internal/report"
	"cds/internal/sim"
	"cds/internal/spec"
	"cds/internal/tinyrisc"
	"cds/internal/trace"
	"cds/internal/workloads"
)

// digest hashes the functional outputs in deterministic order so two
// scheduler runs can be compared from the command line.
func digest(outs map[string][]byte) uint64 {
	keys := make([]string, 0, len(outs))
	for k := range outs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write(outs[k])
	}
	return h.Sum64()
}

type options struct {
	specPath, expName, schedName string
	trace, occupancy, program    bool
	asmOut, timeline, functional bool
	verified                     bool
	traceOut, traceFmt           string
}

func main() {
	opts := options{}
	flag.StringVar(&opts.specPath, "spec", "", "JSON application spec")
	flag.StringVar(&opts.expName, "experiment", "", "built-in paper experiment (e.g. MPEG, E1, ATR-SLD*)")
	flag.StringVar(&opts.schedName, "scheduler", "cds", "scheduler: basic, ds or cds")
	flag.BoolVar(&opts.trace, "trace", false, "print the FB allocation timeline (Figure 5 view)")
	flag.BoolVar(&opts.occupancy, "occupancy", false, "print the address-time occupancy map per FB set")
	flag.BoolVar(&opts.program, "program", false, "print the generated transfer program")
	flag.BoolVar(&opts.asmOut, "tinyrisc", false, "compile the transfer program to TinyRISC control code and print it")
	flag.BoolVar(&opts.timeline, "timeline", false, "print the Gantt-style execution timeline")
	flag.StringVar(&opts.traceOut, "trace-out", "", `write the recorded execution timeline to this file ("-" for stdout)`)
	flag.StringVar(&opts.traceFmt, "trace-format", "chrome", "timeline format: chrome, svg or summary")
	flag.BoolVar(&opts.functional, "machine", false, "run the schedule functionally and report the output digest")
	flag.BoolVar(&opts.verified, "verify", false, "audit the schedule with the post-hoc invariant verifier")
	timeout := flag.Duration("timeout", 0, "abort the run after this duration (0 = no limit)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if err := run(ctx, opts); err != nil {
		fmt.Fprintf(os.Stderr, "cds: %v\n", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, opts options) error {
	part, pa, err := load(opts.specPath, opts.expName)
	if err != nil {
		return err
	}
	kind, err := schedulerKind(opts.schedName)
	if err != nil {
		return err
	}

	var res *cds.Result
	if opts.verified {
		res, err = cds.RunVerified(ctx, kind, pa, part)
	} else {
		res, err = cds.RunCtx(ctx, kind, pa, part)
	}
	if err != nil {
		return err
	}
	printSummary(res, pa)
	if opts.verified {
		fmt.Println("verifier      capacity, liveness, serialization and residency invariants hold")
	}

	// The result's report is a summary; the Figure 5 views walk the
	// events of a recorded replay of the same schedule.
	var rec *core.AllocationReport
	if opts.trace || opts.occupancy {
		if rec, err = core.AllocateWithOptions(res.Schedule, core.AllocOptions{AllowSplit: true}); err != nil {
			return err
		}
	}
	if opts.trace {
		fmt.Println()
		printTrace(rec)
	}
	if opts.occupancy {
		sets := map[int]bool{}
		for _, c := range res.Schedule.P.Clusters {
			sets[c.Set] = true
		}
		for set := 0; set < pa.FBSets; set++ {
			if !sets[set] {
				continue
			}
			fmt.Println()
			report.Occupancy(os.Stdout, rec, set, pa.FBSetBytes, 72)
			report.Legend(os.Stdout, rec, set)
		}
	}
	if opts.timeline {
		fmt.Println()
		sim.WriteTimeline(os.Stdout, res.Schedule, res.Timing)
	}
	if opts.traceOut != "" {
		_, tl, err := sim.Trace(res.Schedule)
		if err != nil {
			return err
		}
		if err := trace.ExportFile(opts.traceOut, opts.traceFmt, tl); err != nil {
			return err
		}
		if opts.traceOut != "-" {
			fmt.Printf("wrote %s timeline to %s\n", opts.traceFmt, opts.traceOut)
		}
	}
	if opts.functional {
		fmt.Println()
		m, err := machine.Run(res.Schedule, 1, nil)
		if err != nil {
			return fmt.Errorf("functional run: %w", err)
		}
		outs := m.FinalOutputs(res.Schedule)
		fmt.Printf("functional run: %d kernel invocations, %d B loaded, %d B stored, %d final outputs\n",
			m.KernelRuns, m.LoadedBytes, m.StoredBytes, len(outs))
		fmt.Printf("output digest: %016x\n", digest(outs))
	}
	if opts.program {
		prog, err := codegen.Generate(res.Schedule)
		if err != nil {
			return err
		}
		if _, err := codegen.Check(prog, res.Schedule); err != nil {
			return fmt.Errorf("generated program failed its own checker: %w", err)
		}
		fmt.Println()
		fmt.Printf("program (%d instructions, checker passed):\n", len(prog.Instrs))
		fmt.Print(prog.String())
	}
	if opts.asmOut {
		prog, err := codegen.Generate(res.Schedule)
		if err != nil {
			return err
		}
		tp, err := tinyrisc.Compile(prog)
		if err != nil {
			return err
		}
		if err := tinyrisc.Verify(tp, prog); err != nil {
			return fmt.Errorf("compiled control code failed verification: %w", err)
		}
		fmt.Println()
		fmt.Printf("TinyRISC control code (%d instructions for %d transfer ops, verified):\n",
			len(tp.Instrs), len(prog.Instrs))
		if err := tinyrisc.Disassemble(os.Stdout, tp); err != nil {
			return err
		}
	}
	return nil
}

func load(specPath, expName string) (*app.Partition, arch.Params, error) {
	switch {
	case specPath != "" && expName != "":
		return nil, arch.Params{}, fmt.Errorf("use either -spec or -experiment, not both")
	case expName != "":
		e, err := workloads.ByName(expName)
		if err != nil {
			return nil, arch.Params{}, err
		}
		return e.Part, e.Arch, nil
	case specPath != "":
		raw, err := os.ReadFile(specPath)
		if err != nil {
			return nil, arch.Params{}, err
		}
		return spec.Parse(raw)
	}
	return nil, arch.Params{}, fmt.Errorf("need -spec <file> or -experiment <name>")
}

func schedulerKind(name string) (cds.SchedulerKind, error) {
	switch name {
	case "basic":
		return cds.Basic, nil
	case "ds":
		return cds.DS, nil
	case "cds":
		return cds.CDS, nil
	}
	return 0, fmt.Errorf("unknown scheduler %q (want basic, ds or cds)", name)
}

func printSummary(res *cds.Result, pa arch.Params) {
	s := res.Schedule
	t := res.Timing
	fmt.Printf("application   %s (%d iterations, %d kernels, %d clusters)\n",
		s.P.App.Name, s.P.App.Iterations, s.P.App.NumKernels(), len(s.P.Clusters))
	fmt.Printf("architecture  %s: FB %s/set x%d, CM %d words\n",
		pa.Name, arch.FormatSize(pa.FBSetBytes), pa.FBSets, pa.CMWords)
	fmt.Printf("scheduler     %s, RF=%d\n", s.Scheduler, s.RF)
	if len(s.Retained) > 0 {
		fmt.Println("retained in FB:")
		for _, r := range s.Retained {
			fmt.Printf("  %-6s %-12s %5d B  set %d  clusters %d..%d  TF=%.3f  avoids %d B/iter\n",
				r.Kind, r.Name, r.Size, r.Set, r.From, r.To, r.TF, r.AvoidedBytesPerIter)
		}
	}
	fmt.Printf("traffic       loads %d B, stores %d B, contexts %d words\n",
		s.TotalLoadBytes(), s.TotalStoreBytes(), s.TotalCtxWords())
	fmt.Printf("time          %d cycles (compute %d, DMA busy %d, RC stalls %d)\n",
		t.TotalCycles, t.ComputeCycles, t.DMABusy(), t.StallCycles)
	fmt.Printf("allocation    peak/set %v of %d, splits %d, regular %v\n",
		res.Allocation.PeakUsed, pa.FBSetBytes, res.Allocation.Splits, res.Allocation.Regular)
}

// printTrace renders the allocation events of the first block as a
// Figure 5 style timeline.
func printTrace(rep *core.AllocationReport) {
	fmt.Println("allocation timeline (block 0):")
	for i := range rep.NumEvents() {
		ev := rep.Event(i)
		if ev.Block != 0 {
			break
		}
		iter := fmt.Sprintf("iter %d", ev.Iter)
		if ev.Iter < 0 {
			iter = "preload"
		}
		fmt.Printf("  c%d %-7s %-7s %-14s set%d @%-5d %5d B\n",
			ev.Cluster, iter, ev.Op, rep.Object(ev), ev.Set, ev.Addr, ev.Bytes)
	}
}
