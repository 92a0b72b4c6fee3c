package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cds"
	"cds/internal/retry"
	"cds/internal/scherr"
	"cds/internal/spec"
	"cds/internal/workloads"
)

// fakeClock drives the breaker tests by hand.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func fastSleep(context.Context, time.Duration) error { return nil }

func post(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// queued reports how many admitted requests wait for a slot.
func queued(s *Server) int {
	d, _ := s.tq.depth()
	return d
}

func decode[T any](t *testing.T, w *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.NewDecoder(w.Body).Decode(&v); err != nil {
		t.Fatalf("decoding %q: %v", w.Body.String(), err)
	}
	return v
}

func TestHealthz(t *testing.T) {
	s := New(Config{})
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "ok") {
		t.Fatalf("healthz = %d %q", w.Code, w.Body.String())
	}
}

func TestReadyzBeforeServe(t *testing.T) {
	// Readiness belongs to Serve: a constructed-but-not-serving server
	// must tell the load balancer to stay away.
	s := New(Config{})
	req := httptest.NewRequest(http.MethodGet, "/readyz", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz before Serve = %d, want 503", w.Code)
	}
}

func TestCompareWorkload(t *testing.T) {
	s := New(Config{})
	w := post(t, s.Handler(), "/v1/compare", `{"workload":"MPEG"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("compare MPEG = %d: %s", w.Code, w.Body.String())
	}
	resp := decode[CompareResponse](t, w)
	if resp.Target != "MPEG" || resp.Degraded || resp.Attempts != 1 {
		t.Fatalf("target=%q degraded=%v attempts=%d, want MPEG/false/1", resp.Target, resp.Degraded, resp.Attempts)
	}
	if resp.CDSImprovement <= 0 || resp.CDS.TotalCycles <= 0 || resp.CDS.TotalCycles >= resp.Basic.TotalCycles {
		t.Fatalf("CDS did not improve on Basic: %+v", resp)
	}
	if resp.RF <= 0 || resp.DTBytes <= 0 {
		t.Fatalf("rf=%d dt_bytes=%d, want positive", resp.RF, resp.DTBytes)
	}

	// Architecture and FB-size overrides apply to the named workload.
	w = post(t, s.Handler(), "/v1/compare", `{"workload":"MPEG","arch":"M1/4","fb_bytes":4096}`)
	if w.Code != http.StatusOK {
		t.Fatalf("compare with overrides = %d: %s", w.Code, w.Body.String())
	}
	over := decode[CompareResponse](t, w)
	if over.CDS.TotalCycles == resp.CDS.TotalCycles {
		t.Fatal("arch/fb overrides changed nothing")
	}
}

func TestCompareSpec(t *testing.T) {
	e, err := workloads.ByName("E2")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := spec.FromPartition(e.Part, e.Arch).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(map[string]json.RawMessage{"spec": raw})
	s := New(Config{})
	w := post(t, s.Handler(), "/v1/compare", string(body))
	if w.Code != http.StatusOK {
		t.Fatalf("compare spec = %d: %s", w.Code, w.Body.String())
	}
	resp := decode[CompareResponse](t, w)
	if !strings.HasPrefix(resp.Target, "spec:") {
		t.Fatalf("spec request targeted %q, want a spec: prefix", resp.Target)
	}
	if resp.CDSImprovement <= 0 {
		t.Fatalf("spec compare produced no improvement: %+v", resp)
	}
}

func TestCompareBadRequests(t *testing.T) {
	s := New(Config{})
	cases := []struct {
		name, body string
	}{
		{"malformed JSON", `{`},
		{"neither workload nor spec", `{}`},
		{"unknown workload", `{"workload":"NOPE"}`},
		{"workload and spec together", `{"workload":"MPEG","spec":{"x":1}}`},
		{"unknown arch preset", `{"workload":"MPEG","arch":"M9"}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := post(t, s.Handler(), "/v1/compare", tc.body)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400: %s", w.Code, w.Body.String())
			}
			if e := decode[ErrorBody](t, w); e.Class != "invalid_spec" {
				t.Fatalf("class = %q, want invalid_spec", e.Class)
			}
		})
	}
}

func TestCompareInfeasible(t *testing.T) {
	s := New(Config{})
	w := post(t, s.Handler(), "/v1/compare", `{"workload":"MPEG","fb_bytes":64}`)
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422: %s", w.Code, w.Body.String())
	}
	if e := decode[ErrorBody](t, w); e.Class != "infeasible" {
		t.Fatalf("class = %q, want infeasible", e.Class)
	}
}

func TestCompareDegraded(t *testing.T) {
	// A deterministic single-scheduler failure with usable survivors is
	// served degraded (200 with a per-scheduler error), not failed.
	boom := errors.New("cds scheduler crashed")
	s := New(Config{
		Compare: func(context.Context, cds.Arch, *cds.Part) (*cds.Comparison, error) {
			cmp := &cds.Comparison{DS: &cds.Result{}, CDSErr: boom, ImprovementDS: 12.5}
			return cmp, boom
		},
	})
	w := post(t, s.Handler(), "/v1/compare", `{"workload":"MPEG"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("degraded compare = %d, want 200: %s", w.Code, w.Body.String())
	}
	resp := decode[CompareResponse](t, w)
	if !resp.Degraded || resp.CDS.Error == "" || resp.DSImprovement != 12.5 {
		t.Fatalf("degraded response wrong: %+v", resp)
	}
}

// TestLoadShedding pins the admission contract: Workers slots, Queue
// bounded waiters, immediate 429 + Retry-After past the bound — and the
// shed request does not starve the admitted ones.
func TestLoadShedding(t *testing.T) {
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	s := New(Config{
		Workers: 1,
		Queue:   1,
		Compare: func(ctx context.Context, pa cds.Arch, part *cds.Part) (*cds.Comparison, error) {
			started <- struct{}{}
			select {
			case <-release:
			case <-ctx.Done():
				return nil, scherr.Canceled(ctx.Err())
			}
			return &cds.Comparison{DS: &cds.Result{}}, nil
		},
	})

	codes := make(chan int, 2)
	serveOne := func() {
		w := post(t, s.Handler(), "/v1/compare", `{"workload":"MPEG"}`)
		codes <- w.Code
	}
	go serveOne() // occupies the single slot
	<-started
	go serveOne() // waits in the queue
	for i := 0; i < 200 && queued(s) == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	if n := queued(s); n != 1 {
		t.Fatalf("waiters = %d, want 1", n)
	}

	// Queue full: the third request is shed synchronously.
	w := post(t, s.Handler(), "/v1/compare", `{"workload":"MPEG"}`)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("third request = %d, want 429: %s", w.Code, w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if e := decode[ErrorBody](t, w); e.Class != "overload" {
		t.Fatalf("class = %q, want overload", e.Class)
	}
	if s.Shed() != 1 {
		t.Fatalf("Shed() = %d, want 1", s.Shed())
	}

	close(release)
	for i := 0; i < 2; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("admitted request %d finished %d, want 200", i, code)
		}
	}
}

// TestBreakerTripsPerTarget drives the server's circuit discipline: a
// target failing transiently trips its own breaker after the threshold,
// open-circuit requests never reach the backend, siblings stay
// unaffected, and the cooldown probe closes the circuit again.
func TestBreakerTripsPerTarget(t *testing.T) {
	clk := newFakeClock()
	var failing atomic.Bool
	var calls atomic.Int64
	failing.Store(true)
	s := New(Config{
		Retry:            retry.Policy{MaxAttempts: 1, Sleep: fastSleep},
		BreakerThreshold: 2,
		BreakerCooldown:  10 * time.Second,
		Now:              clk.Now,
		Compare: func(context.Context, cds.Arch, *cds.Part) (*cds.Comparison, error) {
			calls.Add(1)
			if failing.Load() {
				return nil, fmt.Errorf("injected DMA fault: %w", scherr.ErrTransient)
			}
			return &cds.Comparison{CDS: &cds.Result{}}, nil
		},
	})

	for i := 0; i < 2; i++ {
		w := post(t, s.Handler(), "/v1/compare", `{"workload":"MPEG"}`)
		if w.Code != http.StatusServiceUnavailable {
			t.Fatalf("failing request %d = %d, want 503", i, w.Code)
		}
		if e := decode[ErrorBody](t, w); e.Class != "transient_fault" {
			t.Fatalf("class = %q, want transient_fault", e.Class)
		}
		if w.Header().Get("Retry-After") == "" {
			t.Fatal("transient 503 missing Retry-After")
		}
	}
	if calls.Load() != 2 {
		t.Fatalf("backend called %d times, want 2", calls.Load())
	}

	// Threshold reached: the circuit is open and the backend is spared.
	w := post(t, s.Handler(), "/v1/compare", `{"workload":"MPEG"}`)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("open-circuit request = %d, want 503", w.Code)
	}
	if e := decode[ErrorBody](t, w); e.Class != "circuit_open" {
		t.Fatalf("class = %q, want circuit_open", e.Class)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("circuit_open missing Retry-After")
	}
	if calls.Load() != 2 {
		t.Fatalf("open circuit let a call through to the backend (calls=%d)", calls.Load())
	}

	// A sibling target has its own breaker: it still reaches the backend.
	w = post(t, s.Handler(), "/v1/compare", `{"workload":"E2"}`)
	if e := decode[ErrorBody](t, w); w.Code != http.StatusServiceUnavailable || e.Class != "transient_fault" {
		t.Fatalf("sibling target = %d/%q, want 503/transient_fault", w.Code, e.Class)
	}
	if calls.Load() != 3 {
		t.Fatalf("sibling target did not reach the backend (calls=%d)", calls.Load())
	}

	// Cooldown passes and the fault clears: the half-open probe closes
	// the circuit, and traffic flows again.
	clk.Advance(11 * time.Second)
	failing.Store(false)
	for i := 0; i < 3; i++ {
		w = post(t, s.Handler(), "/v1/compare", `{"workload":"MPEG"}`)
		if w.Code != http.StatusOK {
			t.Fatalf("post-recovery request %d = %d, want 200: %s", i, w.Code, w.Body.String())
		}
	}
}

// TestBreakerProbeAbortNoWedge pins the half-open anti-wedge: when the
// single cooldown probe ends with an error that says nothing about the
// target (here a cancellation), the breaker must NOT stay half-open
// forever rejecting every call — the next cooldown admits a fresh probe
// and a now-healthy target closes the circuit.
func TestBreakerProbeAbortNoWedge(t *testing.T) {
	clk := newFakeClock()
	var mode atomic.Int32 // 0 = transient fail, 1 = canceled, 2 = healthy
	s := New(Config{
		Retry:            retry.Policy{MaxAttempts: 1, Sleep: fastSleep},
		BreakerThreshold: 1,
		BreakerCooldown:  10 * time.Second,
		Now:              clk.Now,
		Compare: func(context.Context, cds.Arch, *cds.Part) (*cds.Comparison, error) {
			switch mode.Load() {
			case 0:
				return nil, fmt.Errorf("injected DMA fault: %w", scherr.ErrTransient)
			case 1:
				return nil, scherr.Canceled(context.Canceled)
			default:
				return &cds.Comparison{CDS: &cds.Result{}}, nil
			}
		},
	})
	body := `{"workload":"MPEG"}`

	// Trip the breaker, then feed the half-open probe a verdict-free
	// cancellation.
	if w := post(t, s.Handler(), "/v1/compare", body); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("tripping request = %d, want 503", w.Code)
	}
	clk.Advance(11 * time.Second)
	mode.Store(1)
	if w := post(t, s.Handler(), "/v1/compare", body); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("canceled probe = %d, want 503", w.Code)
	}

	// Still open while the restarted cooldown runs...
	mode.Store(2)
	w := post(t, s.Handler(), "/v1/compare", body)
	if e := decode[ErrorBody](t, w); w.Code != http.StatusServiceUnavailable || e.Class != "circuit_open" {
		t.Fatalf("mid-cooldown request = %d/%q, want 503/circuit_open", w.Code, e.Class)
	}
	// ...but the next probe gets through: the breaker did not wedge.
	clk.Advance(11 * time.Second)
	if w := post(t, s.Handler(), "/v1/compare", body); w.Code != http.StatusOK {
		t.Fatalf("probe after aborted probe = %d, want 200: %s", w.Code, w.Body.String())
	}
	if w := post(t, s.Handler(), "/v1/compare", body); w.Code != http.StatusOK {
		t.Fatalf("post-recovery request = %d, want 200", w.Code)
	}
}

// TestSweepJournalBusy pins per-journal serialization: while one sweep
// holds a journal name, a second request naming it is rejected with 409
// + Retry-After instead of interleaving appends into the same file, and
// the name is usable again once released.
func TestSweepJournalBusy(t *testing.T) {
	s := New(Config{JournalDir: t.TempDir()})
	body := `{"archs":["M1/4"],"workloads":["MPEG"],"journal":"nightly"}`

	if !s.lockJournal("nightly") {
		t.Fatal("fresh journal name could not be locked")
	}
	w := post(t, s.Handler(), "/v1/sweep", body)
	if w.Code != http.StatusConflict {
		t.Fatalf("busy journal = %d, want 409: %s", w.Code, w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("journal_busy response missing Retry-After")
	}
	if e := decode[ErrorBody](t, w); e.Class != "journal_busy" {
		t.Fatalf("class = %q, want journal_busy", e.Class)
	}

	// Other journal names are unaffected.
	w = post(t, s.Handler(), "/v1/sweep", `{"archs":["M1/4"],"workloads":["MPEG"],"journal":"other"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("sibling journal = %d, want 200: %s", w.Code, w.Body.String())
	}

	s.unlockJournal("nightly")
	w = post(t, s.Handler(), "/v1/sweep", body)
	if w.Code != http.StatusOK {
		t.Fatalf("released journal = %d, want 200: %s", w.Code, w.Body.String())
	}
	// The handler released its own lock too: a re-POST resumes cleanly.
	w = post(t, s.Handler(), "/v1/sweep", body)
	if w.Code != http.StatusOK {
		t.Fatalf("re-POST after handler = %d, want 200: %s", w.Code, w.Body.String())
	}
	if resp := decode[SweepResponse](t, w); resp.Resumed != 1 {
		t.Fatalf("resumed = %d, want 1", resp.Resumed)
	}
}

// TestSweepWorkersClamp pins that a sweep's parallelism never exceeds
// the server's worker budget, whatever the client asks for.
func TestSweepWorkersClamp(t *testing.T) {
	cases := []struct {
		requested, budget, want int
	}{
		{0, 2, 2},  // default: the full budget
		{-3, 2, 2}, // nonsense: the full budget
		{1, 2, 1},  // asking for less is honored
		{64, 2, 2}, // asking for more is clamped
		{2, 2, 2},  // exactly the budget
	}
	for _, tc := range cases {
		if got := sweepWorkers(tc.requested, tc.budget); got != tc.want {
			t.Errorf("sweepWorkers(%d, %d) = %d, want %d", tc.requested, tc.budget, got, tc.want)
		}
	}
}

// TestDrainGraceClampedToDeadline pins the grace/deadline interaction:
// a DrainGrace far beyond the drain deadline must not eat the whole
// budget — an idle server still drains cleanly (nil) inside the
// deadline instead of force-closing and failing.
func TestDrainGraceClampedToDeadline(t *testing.T) {
	s := New(Config{DrainGrace: time.Hour})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(l) }()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	start := time.Now()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("idle drain with grace >= deadline = %v, want nil", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("drain took %v, beyond the 2s deadline", elapsed)
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve = %v, want http.ErrServerClosed", err)
	}
}

// TestDrainGracefulWithInFlight runs the full lifecycle on a real
// listener: readiness flips to 503 the moment Drain starts (while the
// listener still answers, thanks to DrainGrace), the in-flight request
// completes, and Drain returns nil.
func TestDrainGracefulWithInFlight(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	s := New(Config{
		DrainGrace: 200 * time.Millisecond,
		Compare: func(ctx context.Context, pa cds.Arch, part *cds.Part) (*cds.Comparison, error) {
			started <- struct{}{}
			select {
			case <-release:
			case <-ctx.Done():
				return nil, scherr.Canceled(ctx.Err())
			}
			return &cds.Comparison{DS: &cds.Result{}}, nil
		},
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(l) }()
	base := "http://" + l.Addr().String()

	get := func(path string) (int, error) {
		resp, err := http.Get(base + path)
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	if code, err := get("/readyz"); err != nil || code != http.StatusOK {
		t.Fatalf("readyz while serving = %d, %v; want 200", code, err)
	}

	inflight := make(chan int, 1)
	go func() {
		resp, err := http.Post(base+"/v1/compare", "application/json", strings.NewReader(`{"workload":"MPEG"}`))
		if err != nil {
			inflight <- 0
			return
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		inflight <- resp.StatusCode
	}()
	<-started

	drainErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drainErr <- s.Drain(ctx)
	}()

	// During the grace window the listener still answers and tells the
	// load balancer to stop routing.
	flipped := false
	for i := 0; i < 100 && !flipped; i++ {
		code, err := get("/readyz")
		if err == nil && code == http.StatusServiceUnavailable {
			flipped = true
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !flipped {
		t.Fatal("readyz never flipped to 503 during the drain grace window")
	}

	close(release)
	if code := <-inflight; code != http.StatusOK {
		t.Fatalf("in-flight request finished %d, want 200", code)
	}
	if err := <-drainErr; err != nil {
		t.Fatalf("Drain = %v, want nil (everything finished in time)", err)
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve = %v, want http.ErrServerClosed", err)
	}
	if s.Ready() {
		t.Fatal("server still reports ready after drain")
	}
}

func TestSweepEndpoint(t *testing.T) {
	s := New(Config{})
	w := post(t, s.Handler(), "/v1/sweep", `{"archs":["M1/4","nope"],"workloads":["MPEG","E2"]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("sweep = %d: %s", w.Code, w.Body.String())
	}
	resp := decode[SweepResponse](t, w)
	if len(resp.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(resp.Rows))
	}
	if !reflect.DeepEqual(resp.SkippedArchs, []string{"nope"}) {
		t.Fatalf("skipped_archs = %v, want [nope]", resp.SkippedArchs)
	}
	for _, row := range resp.Rows {
		if row.Err != "" || row.CDSImp <= 0 {
			t.Fatalf("bad sweep row: %+v", row)
		}
	}

	// No recognizable preset at all is a request error.
	w = post(t, s.Handler(), "/v1/sweep", `{"archs":["nope"]}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("all-unknown sweep = %d, want 400", w.Code)
	}
}

func TestSweepJournalLifecycle(t *testing.T) {
	s := New(Config{JournalDir: t.TempDir()})
	body := `{"archs":["M1/4"],"workloads":["MPEG","E2","E3"],"journal":"nightly"}`

	w := post(t, s.Handler(), "/v1/sweep", body)
	if w.Code != http.StatusOK {
		t.Fatalf("first journaled sweep = %d: %s", w.Code, w.Body.String())
	}
	first := decode[SweepResponse](t, w)
	if first.Resumed != 0 || len(first.Rows) != 3 {
		t.Fatalf("first sweep resumed=%d rows=%d, want 0/3", first.Resumed, len(first.Rows))
	}

	// Re-POSTing the same request answers from the journal: every point
	// resumed, rows identical.
	w = post(t, s.Handler(), "/v1/sweep", body)
	if w.Code != http.StatusOK {
		t.Fatalf("resumed sweep = %d: %s", w.Code, w.Body.String())
	}
	second := decode[SweepResponse](t, w)
	if second.Resumed != 3 {
		t.Fatalf("resumed = %d, want 3 (all journaled)", second.Resumed)
	}
	if !reflect.DeepEqual(first.Rows, second.Rows) {
		t.Fatalf("resumed rows differ:\nfirst  %+v\nsecond %+v", first.Rows, second.Rows)
	}
}

func TestSweepJournalValidation(t *testing.T) {
	withDir := New(Config{JournalDir: t.TempDir()})
	w := post(t, withDir.Handler(), "/v1/sweep", `{"archs":["M1/4"],"journal":"../evil"}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("path-traversal journal name = %d, want 400: %s", w.Code, w.Body.String())
	}

	noDir := New(Config{})
	w = post(t, noDir.Handler(), "/v1/sweep", `{"archs":["M1/4"],"journal":"nightly"}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("journal without a journal dir = %d, want 400: %s", w.Code, w.Body.String())
	}
	if e := decode[ErrorBody](t, w); e.Class != "invalid_spec" {
		t.Fatalf("class = %q, want invalid_spec", e.Class)
	}
}

// freshRuns numbers the invocations of tests that need a comparison
// cache miss.
var freshRuns atomic.Int64

// freshFB returns an odd FB size above the even base, unique to this
// call: no earlier invocation in this process (go test -count=N) and no
// other test (their FB overrides are multiples of 64) uses it, so the
// first compare that names it is a genuine miss.
func freshFB(base int) int { return base + 2*int(freshRuns.Add(1)) - 1 }

// TestCompareCacheFastPath: a re-posed spec is answered from the result
// cache — marked in the body and the Server-Timing header — and the
// answer matches the computed one.
func TestCompareCacheFastPath(t *testing.T) {
	s := New(Config{})
	body := fmt.Sprintf(`{"workload":"MPEG","fb_bytes":%d}`, freshFB(2944))
	w1 := post(t, s.Handler(), "/v1/compare", body)
	if w1.Code != http.StatusOK {
		t.Fatalf("fill = %d: %s", w1.Code, w1.Body.String())
	}
	if got := w1.Header().Get("Server-Timing"); got != "cache;desc=miss" {
		t.Errorf("fill Server-Timing = %q, want cache;desc=miss", got)
	}
	fill := decode[CompareResponse](t, w1)
	if fill.Cached {
		t.Error("first request claims to be cached")
	}

	w2 := post(t, s.Handler(), "/v1/compare", body)
	if w2.Code != http.StatusOK {
		t.Fatalf("hit = %d: %s", w2.Code, w2.Body.String())
	}
	if got := w2.Header().Get("Server-Timing"); got != "cache;desc=hit" {
		t.Errorf("hit Server-Timing = %q, want cache;desc=hit", got)
	}
	hit := decode[CompareResponse](t, w2)
	if !hit.Cached || hit.Attempts != 1 {
		t.Errorf("cached=%v attempts=%d, want true/1", hit.Cached, hit.Attempts)
	}
	if hit.CDS.TotalCycles != fill.CDS.TotalCycles || hit.RF != fill.RF || hit.DTBytes != fill.DTBytes {
		t.Errorf("cached answer drifted: fill=%+v hit=%+v", fill, hit)
	}
	if n := s.cacheHits.Load(); n != 1 {
		t.Errorf("cacheHits = %d, want 1", n)
	}
}
