// Command chaos runs seeded failure drills against real schedd
// processes and verifies the recovery invariants the service promises.
// Each plan derives a deterministic fault schedule from -seed, executes
// it against supervised children (this binary re-executes itself as the
// daemon — no separate schedd build needed), and judges the outcome
// with recovery oracles; see internal/chaos.
//
// Usage:
//
//	chaos [-seed N] [-plan NAME|all] [-schedd PATH] [-dir DIR] [-out FILE] [-q]
//
// Plans:
//
//	kill-resume  SIGKILL mid-sweep at a seeded journal record count,
//	             restart, verify byte-identical resume and no lost work
//	term-drain   SIGTERM mid-sweep, verify truthful draining readyz,
//	             clean exit, and a resume that recomputes nothing
//	fs-faults    ENOSPC / torn writes / fsync errors on the journal's
//	             filesystem seam, then recovery on a healthy disk
//	proxy        resets, truncated answers, duplicated submissions and
//	             latency between a hardened client and the daemon;
//	             verifies exactly-once results
//	overload     saturate a 1-deep admission queue, verify truthful
//	             saturated readyz, 429 shedding, and recovery
//	breaker      a child whose machine fails inside a finite window;
//	             verifies the circuit opens and recovery respects the
//	             cooldown
//
// Fleet plans (a schedrouter child fronting three schedd children; the
// harness predicts routing from its own copy of the consistent-hash
// ring, so prediction/observation disagreement is itself a failure):
//
//	router-kill-worker      SIGKILL the ring owner of an in-flight
//	                        sweep; verifies failover to the exact next
//	                        replica, ejection, single-ejection ring
//	                        affinity, same-identity readmission, and a
//	                        byte-identical journal resume
//	router-drain-rebalance  SIGTERM a worker mid-sweep; verifies the
//	                        router sees the truthful draining readyz,
//	                        the in-flight sweep is served intact with
//	                        no shadow re-run, exit 0, and exactly the
//	                        drained worker's keys rebalance
//	router-split-cache      one worker computes a comparison; verifies
//	                        the other two serve the identical answer
//	                        from its cache via GET /v1/cache/{key}
//
//	all          every plan above, same seed
//
// Exit status: 0 when every oracle passes, 1 when any fails (the
// failing plan and seed are all that is needed to reproduce), 2 on
// usage errors. -out writes the full JSON reports (plans, oracle
// verdicts, fault and probe timelines) for artifact upload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"cds/internal/chaos"
	"cds/internal/daemon"
)

func main() {
	// A re-executed child IS the daemon; this never returns for one.
	daemon.MaybeChild()

	seed := flag.Int64("seed", 1, "fault-schedule seed; (seed, plan) reproduces a run exactly")
	plan := flag.String("plan", "kill-resume", `plan name or "all"`)
	sched := flag.String("schedd", "", "schedd binary to supervise (default: re-execute this binary)")
	dir := flag.String("dir", "", "scratch directory for journals (default: temp, removed on pass, kept on fail)")
	out := flag.String("out", "", "write the JSON reports to this file")
	quiet := flag.Bool("q", false, "suppress per-step logging (verdicts still print)")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "chaos: unexpected arguments %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}

	logf := log.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}
	cfg := chaos.Config{Seed: *seed, Plan: *plan, SchedCmd: *sched, Dir: *dir, Logf: logf}

	var reports []*chaos.Report
	var err error
	if *plan == "all" {
		reports, err = chaos.RunAll(cfg)
	} else {
		var rep *chaos.Report
		rep, err = chaos.Run(cfg)
		if rep != nil {
			reports = append(reports, rep)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaos: %v\n", err)
		os.Exit(1)
	}

	ok := true
	for _, rep := range reports {
		verdict := "PASS"
		if !rep.OK {
			verdict, ok = "FAIL", false
		}
		fmt.Printf("%s plan=%s seed=%d\n", verdict, rep.Plan.Name, rep.Plan.Seed)
		for _, o := range rep.Oracles {
			mark := "  ok  "
			if !o.OK {
				mark = "  FAIL"
			}
			fmt.Printf("%s %-24s %s\n", mark, o.Name, o.Detail)
		}
		if !rep.OK && rep.Dir != "" {
			fmt.Printf("  journals kept in %s\n", rep.Dir)
		}
	}

	if *out != "" {
		data, merr := json.MarshalIndent(reports, "", "  ")
		if merr == nil {
			merr = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if merr != nil {
			fmt.Fprintf(os.Stderr, "chaos: writing %s: %v\n", *out, merr)
			os.Exit(1)
		}
	}
	if !ok {
		fmt.Printf("\nreproduce: chaos -seed %d -plan <failing plan>\n", *seed)
		os.Exit(1)
	}
}
