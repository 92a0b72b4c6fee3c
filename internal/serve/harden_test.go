package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"cds"
	"cds/internal/scherr"
)

// TestPanicRecoveryMiddleware pins the panic contract: a panicking
// handler answers 500 with an ErrInternal-classed JSON body and bumps
// the panic counter; the server keeps serving afterwards.
func TestPanicRecoveryMiddleware(t *testing.T) {
	s := New(Config{
		Compare: func(ctx context.Context, pa cds.Arch, part *cds.Part) (*cds.Comparison, error) {
			panic("kaboom: handler bug")
		},
	})
	w := post(t, s.Handler(), "/v1/compare", `{"workload":"MPEG"}`)
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler = %d, want 500: %s", w.Code, w.Body.String())
	}
	e := decode[ErrorBody](t, w)
	if e.Class != "internal" {
		t.Fatalf("class = %q, want internal", e.Class)
	}
	if !strings.Contains(e.Error, "kaboom") || !strings.Contains(e.Error, scherr.ErrInternal.Error()) {
		t.Fatalf("error body %q does not carry the panic value and the ErrInternal class", e.Error)
	}
	if s.Panics() != 1 {
		t.Fatalf("Panics() = %d, want 1", s.Panics())
	}

	// The process survived: an unrelated endpoint still answers.
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	hw := httptest.NewRecorder()
	s.Handler().ServeHTTP(hw, req)
	if hw.Code != http.StatusOK {
		t.Fatalf("healthz after panic = %d, want 200", hw.Code)
	}
}

func readyz(t *testing.T, s *Server) (int, ReadyzResponse) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/readyz", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w.Code, decode[ReadyzResponse](t, w)
}

// TestReadyzSaturation pins the overload transition: /readyz flips to
// 503 "saturated" (with queue depth and capacity in the body) exactly
// while the admission queue is full, and back to 200 once it drains.
func TestReadyzSaturation(t *testing.T) {
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
	s.ready.Store(true)

	if code, r := readyz(t, s); code != http.StatusOK || r.Status != "ready" || r.QueueCapacity != 1 {
		t.Fatalf("idle readyz = %d %+v, want 200 ready capacity=1", code, r)
	}

	var wg sync.WaitGroup
	serveOne := func() {
		defer wg.Done()
		post(t, s.Handler(), "/v1/compare", `{"workload":"MPEG"}`)
	}
	wg.Add(2)
	go serveOne() // occupies the single slot
	<-started
	go serveOne() // waits in the queue -> saturation
	for i := 0; i < 500 && queued(s) == 0; i++ {
		time.Sleep(time.Millisecond)
	}

	code, r := readyz(t, s)
	if code != http.StatusServiceUnavailable || r.Status != "saturated" {
		t.Fatalf("saturated readyz = %d %+v, want 503 saturated", code, r)
	}
	if r.QueueDepth != 1 || r.QueueCapacity != 1 {
		t.Fatalf("saturated readyz body %+v, want depth=1 capacity=1", r)
	}

	close(release)
	wg.Wait()
	if code, r := readyz(t, s); code != http.StatusOK || r.Status != "ready" || r.QueueDepth != 0 {
		t.Fatalf("post-drain readyz = %d %+v, want 200 ready depth=0", code, r)
	}
}

// TestReadyzDraining pins the shutdown transition: Drain flips /readyz
// to 503 "draining" even with an empty queue.
func TestReadyzDraining(t *testing.T) {
	s := New(Config{})
	s.ready.Store(true)
	if code, r := readyz(t, s); code != http.StatusOK || r.Status != "ready" {
		t.Fatalf("readyz = %d %+v, want 200 ready", code, r)
	}
	s.ready.Store(false) // what Drain does first
	if code, r := readyz(t, s); code != http.StatusServiceUnavailable || r.Status != "draining" {
		t.Fatalf("draining readyz = %d %+v, want 503 draining", code, r)
	}
}

// TestCompareIdempotency pins the duplicate-submission contract: two
// concurrent requests sharing an Idempotency-Key run the backend once;
// the duplicate replays the first answer byte-identically.
func TestCompareIdempotency(t *testing.T) {
	var calls int32
	entered := make(chan struct{}, 2)
	release := make(chan struct{})
	var mu sync.Mutex
	s := New(Config{
		Workers: 2,
		Compare: func(ctx context.Context, pa cds.Arch, part *cds.Part) (*cds.Comparison, error) {
			mu.Lock()
			calls++
			mu.Unlock()
			entered <- struct{}{}
			<-release
			return &cds.Comparison{DS: &cds.Result{}, CDS: &cds.Result{}}, nil
		},
	})

	do := func(out chan<- *httptest.ResponseRecorder) {
		req := httptest.NewRequest(http.MethodPost, "/v1/compare", strings.NewReader(`{"workload":"MPEG"}`))
		req.Header.Set("Idempotency-Key", "k1")
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		out <- w
	}
	answers := make(chan *httptest.ResponseRecorder, 2)
	go do(answers)
	<-entered // first attempt is inside the backend
	go do(answers)
	time.Sleep(20 * time.Millisecond) // the duplicate parks on the in-flight entry
	close(release)

	a, b := <-answers, <-answers
	if a.Code != http.StatusOK || b.Code != http.StatusOK {
		t.Fatalf("answers = %d, %d, want 200, 200", a.Code, b.Code)
	}
	if a.Body.String() != b.Body.String() {
		t.Fatalf("replayed answer differs:\n%s\nvs\n%s", a.Body.String(), b.Body.String())
	}
	if calls != 1 {
		t.Fatalf("backend ran %d times for one idempotency key, want 1", calls)
	}
	replays := 0
	for _, w := range []*httptest.ResponseRecorder{a, b} {
		if w.Header().Get("Idempotency-Replayed") == "true" {
			replays++
		}
	}
	if replays != 1 {
		t.Fatalf("replayed answers = %d, want exactly 1", replays)
	}
	if s.idemHits.Load() != 1 {
		t.Fatalf("idemHits = %d, want 1", s.idemHits.Load())
	}

	// A later request with the same key replays without touching the
	// backend at all.
	go do(answers)
	c := <-answers
	if c.Code != http.StatusOK || c.Header().Get("Idempotency-Replayed") != "true" {
		t.Fatalf("stored replay = %d (replayed=%q), want 200 replayed", c.Code, c.Header().Get("Idempotency-Replayed"))
	}
	if calls != 1 {
		t.Fatalf("backend ran %d times after stored replay, want still 1", calls)
	}
}

// TestCompareIdempotencyFailedAttemptRetries pins the other half of the
// contract: non-2xx outcomes are not stored, so a duplicate of a failed
// attempt re-executes for real.
func TestCompareIdempotencyFailedAttemptRetries(t *testing.T) {
	var calls int32
	var mu sync.Mutex
	s := New(Config{
		Compare: func(ctx context.Context, pa cds.Arch, part *cds.Part) (*cds.Comparison, error) {
			mu.Lock()
			defer mu.Unlock()
			calls++
			if calls == 1 {
				return nil, scherr.ErrInfeasible
			}
			return &cds.Comparison{DS: &cds.Result{}}, nil
		},
	})
	do := func() *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/compare", strings.NewReader(`{"workload":"MPEG"}`))
		req.Header.Set("Idempotency-Key", "k2")
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		return w
	}
	if w := do(); w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("first attempt = %d, want 422", w.Code)
	}
	if w := do(); w.Code != http.StatusOK {
		t.Fatalf("retry after failed attempt = %d, want 200 (failure must not be replayed)", w.Code)
	}
	if calls != 2 {
		t.Fatalf("backend calls = %d, want 2", calls)
	}
}

// TestCompareIdempotencyKeyCollisionRunsForReal pins the body-hash
// guard: an Idempotency-Key reused with a DIFFERENT body (a restarted
// router re-minting its key stream, a buggy client) must never replay
// the first request's stored answer — the colliding request executes
// for real, bypassing the store.
func TestCompareIdempotencyKeyCollisionRunsForReal(t *testing.T) {
	var calls int32
	var mu sync.Mutex
	s := New(Config{
		Compare: func(ctx context.Context, pa cds.Arch, part *cds.Part) (*cds.Comparison, error) {
			mu.Lock()
			defer mu.Unlock()
			calls++
			return &cds.Comparison{DS: &cds.Result{}, CDS: &cds.Result{}}, nil
		},
	})
	do := func(body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/compare", strings.NewReader(body))
		req.Header.Set("Idempotency-Key", "k-collide")
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		return w
	}
	if w := do(`{"workload":"MPEG"}`); w.Code != http.StatusOK {
		t.Fatalf("first request = %d", w.Code)
	}
	w := do(`{"workload":"E1"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("colliding request = %d", w.Code)
	}
	if w.Header().Get("Idempotency-Replayed") == "true" {
		t.Fatal("colliding key replayed another request's answer")
	}
	if !strings.Contains(w.Body.String(), `"E1"`) {
		t.Fatalf("colliding answer = %s, want the E1 request's own result", w.Body.String())
	}
	if calls != 2 {
		t.Fatalf("backend calls = %d, want 2 (the collision must execute for real)", calls)
	}
	if s.idemCollisions.Load() != 1 {
		t.Fatalf("idemCollisions = %d, want 1", s.idemCollisions.Load())
	}

	// A true duplicate of the FIRST body still replays: the collision
	// left the stored entry intact.
	if w := do(`{"workload":"MPEG"}`); w.Header().Get("Idempotency-Replayed") != "true" {
		t.Fatal("true duplicate after a collision lost its replay")
	}
	if calls != 2 {
		t.Fatalf("backend calls = %d after replay, want still 2", calls)
	}
}
