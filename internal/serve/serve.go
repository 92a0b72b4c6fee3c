// Package serve is the scheduling service behind cmd/schedd: an
// HTTP/JSON API over cds.CompareAllCtx and the sweep batch runner,
// hardened the way a long-lived daemon has to be:
//
//   - Admission control: a fixed number of execution slots plus a
//     bounded wait queue (tenantq.go); when the queue is full the
//     request is shed immediately with 429 and a Retry-After hint
//     instead of piling up.
//
//   - Retry with backoff: every compare call runs under internal/retry,
//     so a transient DMA fault (scherr.ErrTransient) costs backoff
//     milliseconds, not a failed request; deterministic errors
//     (invalid spec, infeasible) fail fast.
//
//   - Per-target circuit breaking: a workload that keeps failing
//     transiently trips its own breaker and is rejected with 503 +
//     Retry-After until a cooldown probe succeeds, without affecting
//     healthy targets.
//
//   - Per-request deadlines: every request inherits the server's
//     RequestTimeout through PR 2's context plumbing, so a stuck point
//     cannot hold an execution slot forever.
//
//   - Crash-safe sweeps: a sweep request naming a journal checkpoints
//     every completed point (sweep.RunJournaled); re-POSTing after a
//     crash resumes instead of recomputing.
//
//   - Graceful shutdown: Drain flips /readyz to 503 (so load balancers
//     stop sending), lets in-flight requests finish within the deadline,
//     then cancels the base context so journaled sweeps record their
//     abandoned points as canceled.
//
//   - Execution tracing: /v1/compare?trace=1 answers with per-scheduler
//     timeline analytics (utilization, overlap efficiency, critical-path
//     decomposition), and a sampled, byte-budgeted ring keeps recent full
//     traces for GET /debug/traces.
//
//   - Fleet membership: a worker given a WorkerID reports its identity
//     (ID, PID, uptime, journal dir) on /readyz so routers and chaos
//     oracles can tell a restarted worker from its predecessor on the
//     same port, stamps every answer with a Schedd-Worker header, serves
//     its result cache to ring peers on GET /v1/cache/{key}, and — via
//     the PeerFill seam — consults a peer's cache on a local miss before
//     computing (internal/cluster wires the ring; serve stays
//     cluster-agnostic).
//
//   - Incremental streaming: POST /v1/stream plans an arrival log with
//     the online scheduler; segment schedules are memoized under their
//     content fingerprints in a daemon-lived planner, so re-posting an
//     evolved log replans only the divergent segments (delta
//     replanning) and the answer reports the reuse split.
//
//   - Multi-tenant admission: the admission queue is a weighted-fair
//     queue, and an untenanted server is its one-lane case. With
//     Config.Tenants set (schedd -tenants) every compare/sweep request
//     names its tenant via the X-Tenant header, each tenant gets its own
//     lane and bounded admission budget (its own 429, its own
//     Retry-After sized to the backlog), and free execution slots are
//     granted across lanes by weighted fair queueing — the service-level
//     mirror of the array-level tenant interleaver (internal/tenant).
//     GET /metrics reports per-tenant queue state alongside the
//     result-cache counters.
//
// Endpoints: POST /v1/compare, POST /v1/sweep, POST /v1/stream,
// GET /v1/cache/{key}, GET /debug/traces, GET /metrics, GET /healthz,
// GET /readyz.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cds"
	"cds/internal/faultmachine"
	"cds/internal/rescache"
	"cds/internal/retry"
	"cds/internal/scherr"
	"cds/internal/spec"
	"cds/internal/stream"
	"cds/internal/sweep"
	"cds/internal/trace"
	"cds/internal/workloads"
)

// CompareFunc is the backend seam for /v1/compare: production uses
// cds.CompareAllCtx; tests substitute blocking or failing backends.
type CompareFunc func(ctx context.Context, pa cds.Arch, part *cds.Part) (*cds.Comparison, error)

// PeerFillFunc is the fleet seam for peer cache fill: given a compare
// request's partition fingerprint (the ring routing key) and its result
// cache key, return a peer's cached answer if one exists. Implemented
// by internal/cluster; serve itself knows nothing about ring topology.
// The function must be fast-or-absent: a miss, an unreachable peer, or
// a slow peer all return ok=false and the worker computes locally.
type PeerFillFunc func(ctx context.Context, fp [32]byte, key rescache.Key) (*CompareResponse, bool)

// Config parameterizes the server. The zero value is usable: 2 workers,
// a queue of 8, 30s request timeout, default retry policy and breakers,
// no journal directory (sweep journaling disabled), no fault injection.
type Config struct {
	// Workers is the number of concurrent execution slots.
	Workers int
	// Queue bounds how many admitted requests may wait for a slot; the
	// next one is shed with 429 + Retry-After.
	Queue int
	// RequestTimeout is the per-request deadline.
	RequestTimeout time.Duration
	// DrainGrace is how long Drain keeps serving (answering /readyz with
	// 503) after readiness flips, so load balancers observe the flip and
	// stop routing before connections start being refused. The window is
	// clamped to half of Drain's remaining deadline so the shutdown
	// always keeps time to drain in-flight requests.
	DrainGrace time.Duration
	// Retry wraps every compare backend call.
	Retry retry.Policy
	// BreakerThreshold and BreakerCooldown configure the per-target
	// circuit breakers (NewBreaker defaulting applies).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// JournalDir, when set, enables sweep checkpointing: a request's
	// journal name maps to <JournalDir>/<name>.jsonl.
	JournalDir string
	// Machine, when set, additionally executes the CDS schedule of every
	// comparison on the functional machine under this fault-injection
	// runner. Injected transient failures are absorbed by the retry
	// policy; stalls must leave results untouched. Used for soak and
	// chaos testing (schedd's -fault-* flags).
	Machine *faultmachine.Runner
	// MachineSeed seeds the functional machine runs.
	MachineSeed int64
	// Compare substitutes the compare backend (default cds.CompareAllCtx
	// plus the optional Machine execution).
	Compare CompareFunc
	// TraceRingEntries and TraceRingBytes bound the /debug/traces ring
	// (defaults: 32 entries, 1 MiB of Chrome payloads). The ring only
	// ever holds what both bounds allow, so a long-lived daemon's trace
	// memory is fixed.
	TraceRingEntries int
	TraceRingBytes   int
	// TraceSampleEvery keeps every Nth ?trace=1 answer's full Chrome
	// payload in the ring (1 = every one, the default). Analytics are
	// always returned inline regardless of sampling.
	TraceSampleEvery int
	// SweepPointDelay, when positive, paces journaled sweeps: after each
	// journaled point the worker waits this long before taking the next.
	// A chaos/testing knob (schedd -sweep-point-delay): it widens the
	// window in which a process kill lands mid-sweep, making
	// kill-at-record-N plans deterministic.
	SweepPointDelay time.Duration
	// IdempotencyEntries bounds the /v1/compare idempotency map
	// (default 256 completed keys, FIFO eviction).
	IdempotencyEntries int
	// StreamMemoSegments bounds the /v1/stream segment-schedule memo
	// (default stream.DefaultMemoSegments).
	StreamMemoSegments int
	// WorkerID is this worker's stable fleet identity: what the router's
	// ring hashes and what /readyz and the Schedd-Worker header report.
	// Empty outside a fleet (single-daemon deployments change nothing).
	WorkerID string
	// PeerFill, when set, is consulted on a /v1/compare local cache miss
	// before the request pays for admission and computation: one fleet
	// worker's cached result serves them all. Wired by internal/cluster.
	PeerFill PeerFillFunc
	// Tenants, when non-empty, switches admission to multi-tenant mode:
	// compare/sweep requests must name a configured tenant in the
	// X-Tenant header, each tenant waits in its own budgeted queue, and
	// slots are granted by weighted fair queueing. Empty admits through
	// one shared lane of Queue waiters.
	Tenants []TenantSpec
	// Now substitutes the clock for the breakers (tests).
	Now func() time.Time
	// Logf receives one line per served request and lifecycle event; nil
	// disables logging.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.Queue <= 0 {
		c.Queue = 8
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.TraceSampleEvery <= 0 {
		c.TraceSampleEvery = 1
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Server is the scheduling service. Construct with New; drive with
// Serve (or Handler for tests) and Drain.
type Server struct {
	cfg    Config
	mux    *http.ServeMux
	http   *http.Server
	ready  atomic.Bool
	shed   atomic.Int64
	served atomic.Int64
	// cacheHits counts /v1/compare answers served straight from the
	// result cache, bypassing admission and retry; peerHits counts the
	// subset answered by a fleet peer's cache after a local miss.
	cacheHits atomic.Int64
	peerHits  atomic.Int64
	// start anchors the uptime /readyz reports; a restart on the same
	// port resets it, which is how oracles tell the two apart.
	start time.Time
	// traces is the bounded ring behind /debug/traces; traceReqs counts
	// ?trace=1 answers, traceSeen drives the sampling cadence.
	traces    *trace.Ring
	traceReqs atomic.Int64
	traceSeen atomic.Int64
	// panics counts handler panics recovered by the middleware; idemHits
	// counts /v1/compare answers replayed from the idempotency store;
	// idemCollisions counts key reuses with a different body, which
	// bypass the store instead of replaying the wrong answer.
	panics         atomic.Int64
	idemHits       atomic.Int64
	idemCollisions atomic.Int64
	idem           *idemStore
	handler        http.Handler
	breakers       *retry.BreakerSet
	baseCtx        context.Context
	cancel         context.CancelFunc

	// journals tracks which journal names have a sweep in flight, so two
	// concurrent requests cannot append to the same checkpoint file.
	jmu      sync.Mutex
	journals map[string]bool

	// planner is the daemon-lived incremental stream scheduler behind
	// POST /v1/stream: segment schedules memoized here survive across
	// requests, so re-posting an evolved arrival log replans only the
	// divergent segments. streamReqs/streamReused feed /readyz.
	planner      *stream.Planner
	streamReqs   atomic.Int64
	streamReused atomic.Int64

	// tq is the admission queue: one lane per configured tenant, or a
	// single lane keyed "" when the server is untenanted.
	tq *tenantQueue
}

// New builds a server from the config.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		mux:      http.NewServeMux(),
		traces:   trace.NewRing(cfg.TraceRingEntries, cfg.TraceRingBytes),
		breakers: retry.NewBreakerSet(cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.Now),
		journals: map[string]bool{},
		idem:     newIdemStore(cfg.IdempotencyEntries),
		planner:  stream.NewPlanner(cfg.StreamMemoSegments),
		start:    time.Now(),
	}
	lanes := cfg.Tenants
	if len(lanes) == 0 {
		lanes = []TenantSpec{{ID: "", Weight: 1, Budget: cfg.Queue}}
	}
	s.tq = newTenantQueue(cfg.Workers, cfg.Queue, lanes)
	s.baseCtx, s.cancel = context.WithCancel(context.Background())
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("POST /v1/compare", s.handleCompare)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("POST /v1/stream", s.handleStream)
	s.mux.HandleFunc("GET /v1/cache/{key}", s.handleCacheLookup)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/traces", s.handleTraces)
	s.handler = s.withRecover(s.withWorkerHeader(s.mux))
	registerExpvars(s)
	s.http = &http.Server{
		Handler:           s.handler,
		ReadHeaderTimeout: 5 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return s.baseCtx },
	}
	return s
}

// Handler exposes the full middleware chain (panic recovery over the
// mux) for in-process tests. Requests served through it do not inherit
// the base context; use Serve for lifecycle tests.
func (s *Server) Handler() http.Handler { return s.handler }

// Serve marks the server ready and serves connections on l until Drain
// (or a listener error). Like http.Server.Serve it returns
// http.ErrServerClosed after a shutdown.
func (s *Server) Serve(l net.Listener) error {
	s.ready.Store(true)
	s.cfg.Logf("serve: listening on %s (workers=%d queue=%d)", l.Addr(), s.cfg.Workers, s.cfg.Queue)
	return s.http.Serve(l)
}

// Drain gracefully shuts the server down: readiness flips to 503
// immediately, in-flight (and queued) requests run to completion within
// ctx's deadline, and if the deadline expires first the base context is
// canceled — handlers then stop cooperatively and journaled sweeps
// record their abandoned points as canceled — before the listener is
// force-closed. Returns nil when everything drained in time.
func (s *Server) Drain(ctx context.Context) error {
	s.ready.Store(false)
	s.cfg.Logf("serve: draining (served=%d shed=%d)", s.served.Load(), s.shed.Load())
	if grace := s.cfg.DrainGrace; grace > 0 {
		// The grace window spends the caller's drain budget, so cap it at
		// half the remaining deadline — a misconfigured grace >= deadline
		// must not leave Shutdown an already-expired context that would
		// force-close idle servers.
		if d, ok := ctx.Deadline(); ok {
			if rem := time.Until(d); grace > rem/2 {
				grace = rem / 2
			}
		}
		if grace > 0 {
			t := time.NewTimer(grace)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
			}
		}
	}
	err := s.http.Shutdown(ctx)
	if err != nil {
		// Deadline expired with requests still in flight: cancel their
		// contexts so they abort (journaling canceled points), then close.
		s.cancel()
		s.http.Close()
		return fmt.Errorf("serve: drain deadline expired: %w", err)
	}
	s.cancel()
	s.cfg.Logf("serve: drained cleanly")
	return nil
}

// Ready reports whether the server currently answers /readyz with 200.
func (s *Server) Ready() bool { return s.ready.Load() }

// Shed reports how many requests were load-shed with 429 so far.
func (s *Server) Shed() int64 { return s.shed.Load() }

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// ReadyzResponse is the JSON answer of /readyz. Status is "ready"
// (200), "draining" (503, the server is shutting down) or "saturated"
// (503, the admission queue is full: the next request would be shed).
// Supervisors and routers steer traffic on it, so it must be truthful —
// a saturated server answering 200 invites the load balancer to pile
// more work onto a queue that is already shedding.
type ReadyzResponse struct {
	Status        string `json:"status"`
	QueueDepth    int    `json:"queue_depth"`
	QueueCapacity int    `json:"queue_capacity"`
	// WorkerID/PID/UptimeMS/JournalDir identify the worker process behind
	// this port. A worker restarted on the same address keeps its
	// WorkerID (ring placement is ID-stable) but shows a new PID and a
	// reset uptime — exactly the distinction the router's readmission
	// logic and the chaos restart-identity oracle need.
	WorkerID   string `json:"worker_id,omitempty"`
	PID        int    `json:"pid,omitempty"`
	UptimeMS   int64  `json:"uptime_ms,omitempty"`
	JournalDir string `json:"journal_dir,omitempty"`
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	// The honest queue picture is the summed lane backlogs against the
	// summed budgets (one lane of Queue when untenanted).
	depth, capacity := s.tq.depth()
	resp := ReadyzResponse{
		Status:        "ready",
		QueueDepth:    depth,
		QueueCapacity: capacity,
		WorkerID:      s.cfg.WorkerID,
		PID:           os.Getpid(),
		UptimeMS:      time.Since(s.start).Milliseconds(),
		JournalDir:    s.cfg.JournalDir,
	}
	status := http.StatusOK
	switch {
	case !s.ready.Load():
		resp.Status, status = "draining", http.StatusServiceUnavailable
	case resp.QueueDepth >= resp.QueueCapacity:
		resp.Status, status = "saturated", http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	}
	WriteJSON(w, status, resp)
}

// CompareRequest selects a workload either by Table 1 name (with
// optional architecture preset and FB-size overrides) or as a full
// embedded spec (the internal/spec JSON schema).
type CompareRequest struct {
	Workload string          `json:"workload,omitempty"`
	Arch     string          `json:"arch,omitempty"`
	FBBytes  int             `json:"fb_bytes,omitempty"`
	Spec     json.RawMessage `json:"spec,omitempty"`
}

// SchedulerResult is one scheduler's slice of a CompareResponse.
type SchedulerResult struct {
	TotalCycles int    `json:"total_cycles,omitempty"`
	Error       string `json:"error,omitempty"`
}

// CompareResponse is the JSON answer of /v1/compare.
type CompareResponse struct {
	Target         string          `json:"target"`
	Basic          SchedulerResult `json:"basic"`
	DS             SchedulerResult `json:"ds"`
	CDS            SchedulerResult `json:"cds"`
	BasicFeasible  bool            `json:"basic_feasible"`
	RF             int             `json:"rf"`
	DSImprovement  float64         `json:"ds_improvement"`
	CDSImprovement float64         `json:"cds_improvement"`
	DTBytes        int             `json:"dt_bytes"`
	Degraded       bool            `json:"degraded,omitempty"`
	Attempts       int             `json:"attempts"`
	// Cached marks answers served from the result cache: the request
	// skipped queue admission, the breaker and the retry loop entirely
	// (also surfaced as a Server-Timing: cache;desc=hit header).
	Cached bool `json:"cached,omitempty"`
	// WorkerID names the fleet worker that produced this answer (empty
	// outside a fleet). CacheSource distinguishes where a cached answer
	// came from: "local" (this worker's rescache) or "peer" (a ring
	// peer's cache consulted after a local miss); CacheWorker names that
	// peer.
	WorkerID    string `json:"worker_id,omitempty"`
	CacheSource string `json:"cache_source,omitempty"`
	CacheWorker string `json:"cache_worker,omitempty"`
	// FaultStalls/FaultTransfers report the functional machine's
	// fault-injection stats when the server runs one (chaos mode).
	FaultTransfers int `json:"fault_transfers,omitempty"`
	FaultStalls    int `json:"fault_stalls,omitempty"`
	// Traces carries per-scheduler timeline analytics (utilization,
	// overlap efficiency, critical-path decomposition) when the request
	// asked for them with ?trace=1 — in Basic, DS, CDS order, failed
	// schedulers skipped. Cached answers trace too: timelines are
	// re-derived from the deterministic schedules.
	Traces []trace.Analytics `json:"traces,omitempty"`
}

// resolve turns a compare request into (arch, partition, breaker target).
func (s *Server) resolve(req CompareRequest) (cds.Arch, *cds.Part, string, error) {
	if len(req.Spec) > 0 {
		if req.Workload != "" {
			return cds.Arch{}, nil, "", fmt.Errorf("request names both a workload and a spec: %w", scherr.ErrInvalidSpec)
		}
		part, pa, err := spec.Parse(req.Spec)
		if err != nil {
			return cds.Arch{}, nil, "", err
		}
		return pa, part, "spec:" + part.App.Name, nil
	}
	if req.Workload == "" {
		return cds.Arch{}, nil, "", fmt.Errorf("request needs a workload name or a spec: %w", scherr.ErrInvalidSpec)
	}
	e, err := workloads.ByName(req.Workload)
	if err != nil {
		return cds.Arch{}, nil, "", fmt.Errorf("%w: %w", err, scherr.ErrInvalidSpec)
	}
	pa := e.Arch
	if req.Arch != "" {
		archs, skipped := sweep.PresetArchs(req.Arch)
		if len(skipped) > 0 {
			return cds.Arch{}, nil, "", fmt.Errorf("unknown architecture preset %q: %w", req.Arch, scherr.ErrInvalidSpec)
		}
		pa = archs[0].Params
	}
	if req.FBBytes > 0 {
		pa.FBSetBytes = req.FBBytes
	}
	return pa, e.Part, req.Workload, nil
}

// compare is the retried backend call: the comparison itself plus the
// optional functional-machine execution under fault injection. key,
// when non-nil, is the request's already-computed ComparisonKey — the
// cache-fast path hands it down so the whole request hashes the spec
// exactly once (lookup, peer fill and compute all share it).
func (s *Server) compare(ctx context.Context, pa cds.Arch, part *cds.Part, key *rescache.Key) (*cds.Comparison, faultmachine.Stats, error) {
	var stats faultmachine.Stats
	if s.cfg.Compare != nil {
		cmp, err := s.cfg.Compare(ctx, pa, part)
		return cmp, stats, err
	}
	var cmp *cds.Comparison
	var err error
	if key != nil {
		cmp, err = cds.CompareAllKeyed(ctx, pa, part, *key)
	} else {
		cmp, err = cds.CompareAllCtx(ctx, pa, part)
	}
	if err != nil {
		return cmp, stats, err
	}
	if s.cfg.Machine != nil && cmp.CDS != nil {
		_, st, merr := s.cfg.Machine.Run(cmp.CDS.Schedule, s.cfg.MachineSeed, nil)
		if merr != nil {
			return cmp, st, merr
		}
		stats = st
	}
	return cmp, stats, nil
}

func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request) {
	// The tenant must resolve before ANY work happens for the request:
	// the cache fast path below bypasses admission, and an unknown tenant
	// must not ride it to an answer.
	if !s.checkTenant(w, r) {
		return
	}
	// The body is read up front so the idempotency store can fingerprint
	// it: replay is only safe for a true duplicate (same key, same body).
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		s.writeErr(w, fmt.Errorf("reading request body: %v: %w", err, scherr.ErrInvalidSpec))
		return
	}
	// Idempotency: a duplicated submission (a client retry through a
	// flaky network) with the same Idempotency-Key never double-runs —
	// it waits for the first attempt and replays its 2xx answer. A key
	// reused with a DIFFERENT body is a collision: it runs for real,
	// outside the store (finish == nil).
	if key := r.Header.Get("Idempotency-Key"); key != "" {
		finish, proceed := s.idemBegin(w, r, key, sha256.Sum256(body))
		if !proceed {
			return
		}
		if finish != nil {
			rec := &responseRecorder{ResponseWriter: w}
			w = rec
			defer func() { finish(rec.status, rec.buf.Bytes()) }()
		}
	}
	var req CompareRequest
	if err := json.Unmarshal(body, &req); err != nil {
		s.writeErr(w, fmt.Errorf("decoding request body: %v: %w", err, scherr.ErrInvalidSpec))
		return
	}
	pa, part, target, err := s.resolve(req)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	wantTrace := r.URL.Query().Get("trace") == "1"

	// Cache fast path: a resident memoized comparison answers before the
	// request pays for queue admission, breaker accounting, or the retry
	// loop. Only taken when this server computes with the real pipeline —
	// a Compare test seam or a functional machine produces per-request
	// state a cached answer cannot carry.
	cacheFast := s.cfg.Compare == nil && s.cfg.Machine == nil
	var key *rescache.Key
	if cacheFast {
		// One canonical hash serves the whole request: the local lookup,
		// the peer fill and the eventual computation all address it.
		k := cds.ComparisonKey(pa, part)
		key = &k
		if cmp, ok := cds.LookupComparisonByKey(k); ok {
			s.served.Add(1)
			s.cacheHits.Add(1)
			w.Header().Set("Server-Timing", "cache;desc=hit")
			s.cfg.Logf("serve: compare %s: ok (cache hit, degraded=%v)", target, cmp.Degraded())
			s.writeCompare(w, target, cmp, faultmachine.Stats{}, 1, "local", s.maybeTrace(wantTrace, target, cmp))
			return
		}
		// Local miss: ask a ring peer's cache before computing. Traced
		// requests always compute locally — analytics need the concrete
		// *Comparison, which a peer's JSON answer does not carry.
		if s.cfg.PeerFill != nil && !wantTrace {
			if resp, ok := s.cfg.PeerFill(r.Context(), part.Fingerprint(), *key); ok {
				s.served.Add(1)
				s.cacheHits.Add(1)
				s.peerHits.Add(1)
				cds.NoteComparisonPeerFill()
				resp.Target = target
				resp.CacheWorker = resp.WorkerID
				resp.WorkerID = s.cfg.WorkerID
				resp.CacheSource = "peer"
				resp.Cached = true
				resp.Attempts = 1
				w.Header().Set("Server-Timing", "cache;desc=peer")
				s.cfg.Logf("serve: compare %s: ok (peer cache fill from %s)", target, resp.CacheWorker)
				WriteJSON(w, http.StatusOK, resp)
				return
			}
		}
		w.Header().Set("Server-Timing", "cache;desc=miss")
	}

	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	s.served.Add(1)

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	br := s.breakers.Get(target)
	if err := br.Allow(); err != nil {
		s.cfg.Logf("serve: compare %s: breaker open", target)
		s.writeErr(w, err)
		return
	}

	var cmp *cds.Comparison
	var stats faultmachine.Stats
	attempts := 0
	err = s.cfg.Retry.Do(ctx, func(ctx context.Context) error {
		attempts++
		c, st, cerr := s.compare(ctx, pa, part, key)
		if cerr != nil {
			// Transient and canceled errors bubble to the retry loop; a
			// deterministic failure that still left usable results is
			// served degraded rather than failed.
			if errors.Is(cerr, scherr.ErrTransient) || errors.Is(cerr, scherr.ErrCanceled) {
				return cerr
			}
			if c == nil || !c.Usable() {
				return cerr
			}
		}
		cmp, stats = c, st
		return nil
	})
	// The breaker tracks target health: successes and transient failures
	// count; everything else (cancellation, deadline, a caller's
	// deterministic error) says nothing about the target, but must still
	// settle the call — an unsettled half-open probe wedges the breaker.
	switch {
	case err == nil:
		br.Record(true)
	case errors.Is(err, scherr.ErrTransient):
		br.Record(false)
	default:
		br.Abort()
	}
	if err != nil {
		s.cfg.Logf("serve: compare %s: %v (attempts=%d)", target, err, attempts)
		s.writeErr(w, err)
		return
	}

	s.cfg.Logf("serve: compare %s: ok (attempts=%d degraded=%v)", target, attempts, cmp.Degraded())
	s.writeCompare(w, target, cmp, stats, attempts, "", s.maybeTrace(wantTrace, target, cmp))
}

// writeCompare renders one comparison as the /v1/compare JSON answer.
// cacheSource is "" (computed now), "local" or "peer".
func (s *Server) writeCompare(w http.ResponseWriter, target string, cmp *cds.Comparison, stats faultmachine.Stats, attempts int, cacheSource string, traces []trace.Analytics) {
	resp := CompareResponse{
		Target:         target,
		BasicFeasible:  cmp.BasicErr == nil,
		RF:             cmp.RF,
		DSImprovement:  cmp.ImprovementDS,
		CDSImprovement: cmp.ImprovementCDS,
		DTBytes:        cmp.DTBytes,
		Degraded:       cmp.Degraded(),
		Attempts:       attempts,
		Cached:         cacheSource != "",
		WorkerID:       s.cfg.WorkerID,
		CacheSource:    cacheSource,
		FaultTransfers: stats.Transfers,
		FaultStalls:    stats.Stalls,
		Traces:         traces,
	}
	fill := func(out *SchedulerResult, res *cds.Result, err error) {
		if res != nil && res.Timing != nil {
			out.TotalCycles = res.Timing.TotalCycles
		}
		if err != nil {
			out.Error = err.Error()
		}
	}
	fill(&resp.Basic, cmp.Basic, cmp.BasicErr)
	fill(&resp.DS, cmp.DS, cmp.DSErr)
	fill(&resp.CDS, cmp.CDS, cmp.CDSErr)
	WriteJSON(w, http.StatusOK, resp)
}

// SweepRequest selects a grid: architecture presets crossed with Table 1
// workloads (all of them when the list is empty). Workers asks for a
// smaller pool than the server's worker budget (0 or anything larger is
// clamped to the budget). Journal, when the server has a journal
// directory, names a crash-safe checkpoint: re-POST the same request
// after a crash and completed points are not recomputed; a journal with
// a sweep already in flight answers 409.
type SweepRequest struct {
	Archs     []string `json:"archs"`
	Workloads []string `json:"workloads,omitempty"`
	Workers   int      `json:"workers,omitempty"`
	Journal   string   `json:"journal,omitempty"`
}

// SweepResponse is the JSON answer of /v1/sweep.
type SweepResponse struct {
	Rows []sweep.Row `json:"rows"`
	// SkippedArchs lists requested presets that do not exist.
	SkippedArchs []string `json:"skipped_archs,omitempty"`
	// Resumed counts points answered from the journal instead of run.
	Resumed int `json:"resumed,omitempty"`
}

var journalNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]*$`)

// lockJournal claims name for one in-flight sweep; false means another
// sweep is already appending to that journal.
func (s *Server) lockJournal(name string) bool {
	s.jmu.Lock()
	defer s.jmu.Unlock()
	if s.journals[name] {
		return false
	}
	s.journals[name] = true
	return true
}

func (s *Server) unlockJournal(name string) {
	s.jmu.Lock()
	defer s.jmu.Unlock()
	delete(s.journals, name)
}

// sweepWorkers bounds a sweep's parallelism by the server's own worker
// budget: a request may ask for less, never more (0 = the full budget).
// Without the clamp one /v1/sweep could saturate every CPU regardless
// of the operator's admission config.
func sweepWorkers(requested, budget int) int {
	if requested <= 0 || requested > budget {
		return budget
	}
	return requested
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if !s.checkTenant(w, r) {
		return
	}
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	s.served.Add(1)

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	var req SweepRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		s.writeErr(w, fmt.Errorf("decoding request body: %v: %w", err, scherr.ErrInvalidSpec))
		return
	}
	archs, skipped := sweep.PresetArchs(req.Archs...)
	if len(archs) == 0 {
		s.writeErr(w, fmt.Errorf("no known architecture presets in %v: %w", req.Archs, scherr.ErrInvalidSpec))
		return
	}
	exps := workloads.All()
	if len(req.Workloads) > 0 {
		exps = exps[:0]
		for _, name := range req.Workloads {
			e, err := workloads.ByName(name)
			if err != nil {
				s.writeErr(w, fmt.Errorf("%w: %w", err, scherr.ErrInvalidSpec))
				return
			}
			exps = append(exps, e)
		}
	}
	jobs := sweep.Grid(archs, exps)
	workers := sweepWorkers(req.Workers, s.cfg.Workers)

	resp := SweepResponse{SkippedArchs: skipped}
	if req.Journal != "" {
		if s.cfg.JournalDir == "" {
			s.writeErr(w, fmt.Errorf("journaling disabled (no -journal-dir): %w", scherr.ErrInvalidSpec))
			return
		}
		if !journalNameRE.MatchString(req.Journal) {
			s.writeErr(w, fmt.Errorf("bad journal name %q: %w", req.Journal, scherr.ErrInvalidSpec))
			return
		}
		if !s.lockJournal(req.Journal) {
			s.cfg.Logf("serve: sweep %s: rejected, journal busy", req.Journal)
			w.Header().Set("Retry-After", "1")
			WriteError(w, http.StatusConflict,
				fmt.Sprintf("journal %q already has a sweep in flight", req.Journal), "journal_busy")
			return
		}
		defer s.unlockJournal(req.Journal)
		j, prior, err := sweep.OpenJournal(filepath.Join(s.cfg.JournalDir, req.Journal+".jsonl"))
		if err != nil {
			s.writeErr(w, err)
			return
		}
		defer j.Close()
		resp.Resumed = len(sweep.Completed(prior))
		// The chaos pacing knob: holding the worker after each journaled
		// point widens the window in which a SIGKILL lands mid-sweep.
		var pace func(sweep.Record)
		if d := s.cfg.SweepPointDelay; d > 0 {
			pace = func(sweep.Record) {
				t := time.NewTimer(d)
				defer t.Stop()
				select {
				case <-t.C:
				case <-ctx.Done():
				}
			}
		}
		rows, err := sweep.RunJournaled(ctx, j, prior, jobs, workers, pace)
		if err != nil {
			s.cfg.Logf("serve: sweep %s: %v (%d rows journaled)", req.Journal, err, len(rows))
			s.writeErr(w, err)
			return
		}
		resp.Rows = rows
		s.cfg.Logf("serve: sweep %s: %d rows (%d resumed)", req.Journal, len(rows), resp.Resumed)
		WriteJSON(w, http.StatusOK, resp)
		return
	}

	outcomes := sweep.BatchCtx(ctx, jobs, workers)
	if err := scherr.FromContext(ctx); err != nil {
		s.writeErr(w, err)
		return
	}
	resp.Rows = sweep.Rows(outcomes)
	s.cfg.Logf("serve: sweep: %d rows", len(resp.Rows))
	WriteJSON(w, http.StatusOK, resp)
}

// ErrorBody is the JSON error envelope every non-2xx response carries,
// from schedd and schedrouter alike.
type ErrorBody struct {
	Error string `json:"error"`
	Class string `json:"class"`
}

// writeErr maps a taxonomy error onto an HTTP status:
//
//	ErrInvalidSpec        400  the request is malformed
//	ErrInfeasible         422  the workload cannot be scheduled
//	ErrOpen (breaker)     503  + Retry-After
//	ErrTransient          503  + Retry-After (fault outlived the retries)
//	deadline exceeded     504
//	other cancellation    503  (shutdown/drain)
//	anything else         500
func (s *Server) writeErr(w http.ResponseWriter, err error) {
	status, class := http.StatusInternalServerError, "internal"
	var open *retry.OpenError
	switch {
	case errors.As(err, &open):
		status, class = http.StatusServiceUnavailable, "circuit_open"
		w.Header().Set("Retry-After", retryAfterSeconds(open.RetryAfter))
	case errors.Is(err, scherr.ErrInvalidSpec):
		status, class = http.StatusBadRequest, "invalid_spec"
	case errors.Is(err, scherr.ErrInfeasible):
		status, class = http.StatusUnprocessableEntity, "infeasible"
	case errors.Is(err, context.DeadlineExceeded):
		status, class = http.StatusGatewayTimeout, "deadline"
	case errors.Is(err, scherr.ErrCanceled):
		status, class = http.StatusServiceUnavailable, "canceled"
	case errors.Is(err, scherr.ErrTransient):
		status, class = http.StatusServiceUnavailable, "transient_fault"
		w.Header().Set("Retry-After", "1")
	}
	WriteError(w, status, err.Error(), class)
}

func retryAfterSeconds(d time.Duration) string {
	secs := int(d / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// WriteError answers with status and the ErrorBody envelope.
func WriteError(w http.ResponseWriter, status int, msg, class string) {
	WriteJSON(w, status, ErrorBody{Error: msg, Class: class})
}

// WriteJSON answers with status and v as indented JSON.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
