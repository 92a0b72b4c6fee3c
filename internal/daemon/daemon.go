// Package daemon holds the process entry points behind cmd/schedd and
// cmd/schedrouter: flag parsing, listener setup, signal handling and
// graceful drain, one loop for both programs. It lives here rather than
// in the cmd packages so the chaos harness (internal/chaos, cmd/chaos)
// can run the REAL programs — same flags, same drain discipline, same
// exit statuses — as re-executed child processes without shelling out
// to go build.
package daemon

import (
	"context"
	_ "expvar" // /debug/vars on the debug listener
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // /debug/pprof on the debug listener
	"os"
	"os/signal"
	"syscall"
	"time"

	"cds/internal/cluster"
	"cds/internal/faultmachine"
	"cds/internal/retry"
	"cds/internal/serve"
)

// ChildEnv marks a process as a re-executed child; its value names the
// program the child runs ("schedd" or "schedrouter"). Binaries that
// embed the harness (cmd/chaos, the chaos test binary) call MaybeChild
// before doing anything else.
const ChildEnv = "CHAOS_CHILD"

// MaybeChild runs the program ChildEnv names and exits with its status
// when this process was re-executed as a supervised child; it returns
// at once when ChildEnv is unset.
func MaybeChild() {
	switch name := os.Getenv(ChildEnv); name {
	case "":
		return
	case "schedd":
		os.Exit(Schedd(os.Args[1:], os.Stderr))
	case "schedrouter":
		os.Exit(Schedrouter(os.Args[1:], os.Stderr))
	default:
		fmt.Fprintf(os.Stderr, "%s=%q names no program\n", ChildEnv, name)
		os.Exit(2)
	}
}

// Schedd runs the schedd daemon with the given argument list (not
// including the program name) and returns the process exit status: 0
// after a clean drain, 1 on any error, 2 on a flag error. stderr
// receives error reports; logs go through the standard logger.
func Schedd(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("schedd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address")
	debugAddr := fs.String("debug-addr", "", "optional debug listener for /debug/pprof and /debug/vars (empty disables; bind to localhost)")
	workers := fs.Int("workers", 2, "concurrent execution slots")
	queue := fs.Int("queue", 8, "admission queue bound beyond the slots (load shed past it)")
	reqTimeout := fs.Duration("request-timeout", 30*time.Second, "per-request deadline")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "graceful shutdown deadline")
	drainGrace := fs.Duration("drain-grace", 0, "503-on-/readyz window before the listener closes (for load balancers)")
	journalDir := fs.String("journal-dir", "", "directory for sweep journals (empty disables journaling)")
	retryAttempts := fs.Int("retry-attempts", 4, "total attempts per compare request")
	retryBase := fs.Duration("retry-base", 10*time.Millisecond, "base backoff delay")
	retrySeed := fs.Int64("retry-seed", 1, "seed of the deterministic backoff jitter")
	brThreshold := fs.Int("breaker-threshold", 5, "consecutive transient failures that open a target's circuit")
	brCooldown := fs.Duration("breaker-cooldown", 5*time.Second, "open-circuit cooldown before a half-open probe")
	faultSeed := fs.Int64("fault-seed", 0, "chaos mode: fault-injection seed")
	faultStallPct := fs.Int("fault-stall-pct", 0, "chaos mode: per-transfer DMA stall probability (percent)")
	faultFailEvery := fs.Int("fault-fail-every", 0, "chaos mode: fail every Nth transfer while the fault window is open")
	faultFailRuns := fs.Int("fault-fail-runs", 0, "chaos mode: width of the transient fault window in runs (<0 = persistent)")
	pointDelay := fs.Duration("sweep-point-delay", 0, "chaos mode: pause after each journaled sweep point (widens the kill window)")
	streamMemo := fs.Int("stream-memo", 0, "segment schedules memoized for /v1/stream delta replanning (0 = default)")
	traceEntries := fs.Int("trace-ring-entries", 32, "max traced comparisons kept for /debug/traces")
	traceBytes := fs.Int("trace-ring-bytes", 1<<20, "byte budget of the /debug/traces ring's Chrome payloads")
	traceSample := fs.Int("trace-sample-every", 1, "keep every Nth ?trace=1 answer's full trace in the ring")
	tenants := fs.String("tenants", "", `multi-tenant admission: "id:weight=N,budget=N;id2;..." (empty = single shared queue)`)
	workerID := fs.String("worker-id", "", "fleet mode: this worker's stable identity on the router's hash ring (reported on /readyz)")
	peers := fs.String("peers", "", "fleet mode: full member list (id=host:port,...) for peer cache fill; requires -worker-id")
	peerVnodes := fs.Int("peer-vnodes", cluster.DefaultVnodes, "fleet mode: virtual nodes per worker on the peer-fill ring (must match the router's -vnodes)")
	peerTimeout := fs.Duration("peer-timeout", 250*time.Millisecond, "fleet mode: per-peer cache lookup deadline")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cfg := serve.Config{
		Workers:        *workers,
		Queue:          *queue,
		RequestTimeout: *reqTimeout,
		DrainGrace:     *drainGrace,
		JournalDir:     *journalDir,
		Retry: retry.Policy{
			MaxAttempts: *retryAttempts,
			BaseDelay:   *retryBase,
			Seed:        *retrySeed,
		},
		BreakerThreshold:   *brThreshold,
		BreakerCooldown:    *brCooldown,
		SweepPointDelay:    *pointDelay,
		StreamMemoSegments: *streamMemo,
		TraceRingEntries:   *traceEntries,
		TraceRingBytes:     *traceBytes,
		TraceSampleEvery:   *traceSample,
		WorkerID:           *workerID,
		Logf:               log.Printf,
	}
	if *tenants != "" {
		specs, err := serve.ParseTenants(*tenants)
		if err != nil {
			fmt.Fprintf(stderr, "schedd: -tenants: %v\n", err)
			return 2
		}
		cfg.Tenants = specs
	}
	if *peers != "" {
		if *workerID == "" {
			fmt.Fprintln(stderr, "schedd: -peers requires -worker-id")
			return 2
		}
		members, err := cluster.ParseMembers(*peers)
		if err != nil {
			fmt.Fprintf(stderr, "schedd: %v\n", err)
			return 2
		}
		pf := cluster.NewPeerFill(*workerID, members, *peerVnodes, *peerTimeout, log.Printf)
		cfg.PeerFill = pf.Fill
	}
	if *faultStallPct > 0 || *faultFailEvery > 0 {
		cfg.Machine = faultmachine.NewRunner(faultmachine.Config{
			Seed:         *faultSeed,
			StallProbPct: *faultStallPct,
			FailEvery:    *faultFailEvery,
		}, *faultFailRuns)
		cfg.MachineSeed = *faultSeed
	}

	if *debugAddr != "" {
		// Profiling and counters (including the "rescache" hit/miss
		// expvar) live on their own listener so they never share a port —
		// or an ACL — with the service traffic.
		go func() {
			log.Printf("schedd: debug listener on %s (/debug/pprof, /debug/vars)", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				log.Printf("schedd: debug listener: %v", err)
			}
		}()
	}

	if err := run("schedd", *addr, serve.New(cfg), *drainTimeout, nil); err != nil {
		fmt.Fprintf(stderr, "schedd: %v\n", err)
		return 1
	}
	return 0
}

// Schedrouter runs the fleet router with the given argument list
// (without the program name) and returns the process exit status: 0
// after a clean drain, 1 on any error, 2 on a flag error.
func Schedrouter(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("schedrouter", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8079", "listen address")
	workers := fs.String("workers", "", "comma-separated fleet members, id=host:port")
	workersFile := fs.String("workers-file", "", "file with fleet members, one id=host:port per line (# comments); SIGHUP re-reads it")
	vnodes := fs.Int("vnodes", cluster.DefaultVnodes, "virtual nodes per worker on the hash ring")
	probeInterval := fs.Duration("probe-interval", 500*time.Millisecond, "mean readyz probe spacing per worker (jittered)")
	probeTimeout := fs.Duration("probe-timeout", time.Second, "per-probe HTTP deadline")
	ejectThreshold := fs.Int("eject-threshold", 3, "consecutive probe/forward failures that eject a worker")
	readmitCooldown := fs.Duration("readmit-cooldown", 2*time.Second, "ejection cooldown before a half-open readmission probe")
	failover := fs.Int("failover-attempts", 0, "max distinct replicas per request (0 = all candidates)")
	seed := fs.Int64("seed", 1, "seed for probe jitter (minted idempotency keys carry a per-boot random nonce)")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "graceful shutdown deadline")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var members []cluster.Member
	var err error
	switch {
	case *workers != "" && *workersFile != "":
		fmt.Fprintln(stderr, "schedrouter: -workers and -workers-file are mutually exclusive")
		return 2
	case *workersFile != "":
		members, err = cluster.LoadMembersFile(*workersFile)
	case *workers != "":
		members, err = cluster.ParseMembers(*workers)
	default:
		fmt.Fprintln(stderr, "schedrouter: need -workers or -workers-file")
		return 2
	}
	if err != nil {
		fmt.Fprintf(stderr, "schedrouter: %v\n", err)
		return 2
	}

	fleet := cluster.NewFleet(cluster.FleetConfig{
		Workers:         members,
		Vnodes:          *vnodes,
		ProbeInterval:   *probeInterval,
		ProbeTimeout:    *probeTimeout,
		EjectThreshold:  *ejectThreshold,
		ReadmitCooldown: *readmitCooldown,
		Seed:            *seed,
		Logf:            log.Printf,
	})
	rs := &routerService{fleet: fleet, router: cluster.NewRouter(cluster.RouterConfig{
		Fleet:            fleet,
		FailoverAttempts: *failover,
		Logf:             log.Printf,
	})}
	rs.http = &http.Server{Handler: rs.router, ReadHeaderTimeout: 5 * time.Second}
	var reload func()
	if *workersFile != "" {
		reload = func() { fleet.ReloadMembersFile(*workersFile) }
	}
	if err := run("schedrouter", *addr, rs, *drainTimeout, reload); err != nil {
		fmt.Fprintf(stderr, "schedrouter: %v\n", err)
		return 1
	}
	return 0
}

// routerService fits the fleet router to the entry loop: Serve starts
// the fleet's probe loops, Drain shuts the listener down and stops them.
type routerService struct {
	fleet  *cluster.Fleet
	router *cluster.Router
	http   *http.Server
}

func (rs *routerService) Serve(l net.Listener) error {
	rs.fleet.Start()
	log.Printf("schedrouter: listening on %s (%d workers)", l.Addr(), len(rs.fleet.Members()))
	return rs.http.Serve(l)
}

func (rs *routerService) Drain(ctx context.Context) error {
	defer rs.fleet.Stop()
	if err := rs.http.Shutdown(ctx); err != nil {
		rs.http.Close()
		return fmt.Errorf("drain deadline expired: %w", err)
	}
	served, failed, failovers := rs.router.Stats()
	log.Printf("schedrouter: drained cleanly (served=%d failed=%d failovers=%d)", served, failed, failovers)
	return nil
}

// run is the entry loop both programs share: listen on addr, serve svc
// there until SIGTERM or SIGINT, then drain it within drainTimeout. hup,
// when non-nil, runs on every SIGHUP.
func run(name, addr string, svc interface {
	Serve(net.Listener) error
	Drain(context.Context) error
}, drainTimeout time.Duration, hup func()) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}

	errc := make(chan error, 1)
	go func() { errc <- svc.Serve(l) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
	hupc := make(chan os.Signal, 1)
	if hup != nil {
		signal.Notify(hupc, syscall.SIGHUP)
		defer signal.Stop(hupc)
	}

	var sig os.Signal
wait:
	for {
		select {
		case err := <-errc:
			return err // listener died before any signal
		case <-hupc:
			hup()
		case sig = <-sigc:
			break wait
		}
	}
	signal.Stop(sigc) // a second signal kills the process the hard way
	log.Printf("%s: %v: draining (deadline %s)", name, sig, drainTimeout)

	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		return err
	}
	if err := <-errc; err != nil && err != http.ErrServerClosed {
		return err
	}
	return nil
}
