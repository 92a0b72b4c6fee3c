package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"cds/internal/rescache"
	"cds/internal/serve"
	"cds/internal/workloads"
)

// fakeWorker is an in-process stand-in for one schedd worker: a real
// HTTP listener with a scripted /readyz and recordable work endpoints.
type fakeWorker struct {
	id  string
	srv *httptest.Server

	mu       sync.Mutex
	ready    func() (int, string) // status, body for /readyz
	work     func(w http.ResponseWriter, r *http.Request)
	hits     int
	idemKeys []string
}

func newFakeWorker(t *testing.T, id string) *fakeWorker {
	t.Helper()
	f := &fakeWorker{id: id}
	f.ready = func() (int, string) {
		return http.StatusOK, fmt.Sprintf(`{"status":"ready","worker_id":%q,"pid":1}`, id)
	}
	f.work = func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"target":"MPEG","basic":{},"ds":{},"cds":{},"attempts":1,"worker_id":%q}`, id)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		status, body := f.ready()
		f.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		io.WriteString(w, body)
	})
	handle := func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		f.hits++
		f.idemKeys = append(f.idemKeys, r.Header.Get("Idempotency-Key"))
		work := f.work
		f.mu.Unlock()
		w.Header().Set(serve.WorkerHeader, f.id)
		work(w, r)
	}
	mux.HandleFunc("POST /v1/compare", handle)
	mux.HandleFunc("POST /v1/sweep", handle)
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

func (f *fakeWorker) member() Member {
	return Member{ID: f.id, Addr: strings.TrimPrefix(f.srv.URL, "http://")}
}

func (f *fakeWorker) setReady(fn func() (int, string)) {
	f.mu.Lock()
	f.ready = fn
	f.mu.Unlock()
}

func (f *fakeWorker) setWork(fn func(w http.ResponseWriter, r *http.Request)) {
	f.mu.Lock()
	f.work = fn
	f.mu.Unlock()
}

func (f *fakeWorker) snapshot() (hits int, keys []string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.hits, append([]string(nil), f.idemKeys...)
}

// fastFleet builds a fleet with test-speed probes over the workers and
// starts it.
func fastFleet(t *testing.T, ws ...*fakeWorker) *Fleet {
	t.Helper()
	members := make([]Member, len(ws))
	for i, w := range ws {
		members[i] = w.member()
	}
	f := NewFleet(FleetConfig{
		Workers:         members,
		ProbeInterval:   10 * time.Millisecond,
		ProbeTimeout:    200 * time.Millisecond,
		EjectThreshold:  2,
		ReadmitCooldown: 50 * time.Millisecond,
		Seed:            1,
	})
	f.Start()
	t.Cleanup(f.Stop)
	return f
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func routerFor(t *testing.T, fleet *Fleet) *httptest.Server {
	t.Helper()
	rt := NewRouter(RouterConfig{Fleet: fleet})
	srv := httptest.NewServer(rt)
	t.Cleanup(srv.Close)
	return srv
}

func postJSON(t *testing.T, url, body string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// mpegOwner computes which of ids owns the MPEG compare key — the same
// math the router runs.
func mpegOwner(t *testing.T, ring *Ring) string {
	t.Helper()
	e, err := workloads.ByName("MPEG")
	if err != nil {
		t.Fatal(err)
	}
	owner, ok := ring.Owner(CompareKey(e.Part.Fingerprint()))
	if !ok {
		t.Fatal("empty ring")
	}
	return owner
}

func TestRouterRoutesToRingOwner(t *testing.T) {
	ws := []*fakeWorker{newFakeWorker(t, "w0"), newFakeWorker(t, "w1"), newFakeWorker(t, "w2")}
	fleet := fastFleet(t, ws...)
	waitFor(t, "fleet ready", 2*time.Second, func() bool { return fleet.EligibleCount() == 3 })
	srv := routerFor(t, fleet)

	owner := mpegOwner(t, fleet.Ring())
	for i := 0; i < 5; i++ {
		resp, data := postJSON(t, srv.URL+"/v1/compare", `{"workload":"MPEG"}`, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("compare = %d: %s", resp.StatusCode, data)
		}
		if got := resp.Header.Get(serve.WorkerHeader); got != owner {
			t.Fatalf("request %d served by %q, want ring owner %q", i, got, owner)
		}
		if got := resp.Header.Get(AttemptsHeader); got != "1" {
			t.Fatalf("attempts = %q, want 1", got)
		}
	}
	for _, w := range ws {
		hits, _ := w.snapshot()
		if w.id == owner && hits != 5 {
			t.Fatalf("owner %s saw %d hits, want 5", w.id, hits)
		}
		if w.id != owner && hits != 0 {
			t.Fatalf("non-owner %s saw %d hits, want 0", w.id, hits)
		}
	}
}

// TestRouterForwardsTenant: a compare sent through the router to a
// tenant-mode worker carries its X-Tenant header; without it the worker
// rejects every request with 400 unknown_tenant.
func TestRouterForwardsTenant(t *testing.T) {
	tenants, err := serve.ParseTenants("video;radar")
	if err != nil {
		t.Fatal(err)
	}
	s := serve.New(serve.Config{WorkerID: "w0", Tenants: tenants})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	fleet := NewFleet(FleetConfig{
		Workers:       []Member{{ID: "w0", Addr: l.Addr().String()}},
		ProbeInterval: 10 * time.Millisecond,
		ProbeTimeout:  200 * time.Millisecond,
		Seed:          1,
	})
	fleet.Start()
	t.Cleanup(fleet.Stop)
	waitFor(t, "fleet ready", 2*time.Second, func() bool { return fleet.EligibleCount() == 1 })
	srv := routerFor(t, fleet)

	resp, data := postJSON(t, srv.URL+"/v1/compare", `{"workload":"MPEG"}`, map[string]string{"X-Tenant": "video"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tenant compare through the router = %d: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get(serve.WorkerHeader); got != "w0" {
		t.Fatalf("served by %q, want w0", got)
	}
}

func TestRouterFailoverReusesIdempotencyKey(t *testing.T) {
	ws := []*fakeWorker{newFakeWorker(t, "w0"), newFakeWorker(t, "w1"), newFakeWorker(t, "w2")}
	fleet := fastFleet(t, ws...)
	waitFor(t, "fleet ready", 2*time.Second, func() bool { return fleet.EligibleCount() == 3 })
	srv := routerFor(t, fleet)
	owner := mpegOwner(t, fleet.Ring())

	// The owner answers 503: the router must fail over to the next
	// replica with the same key.
	for _, w := range ws {
		if w.id == owner {
			w.setWork(func(w http.ResponseWriter, r *http.Request) {
				w.WriteHeader(http.StatusServiceUnavailable)
				io.WriteString(w, `{"error":"mid-crash","class":"transient_fault"}`)
			})
		}
	}
	resp, data := postJSON(t, srv.URL+"/v1/compare", `{"workload":"MPEG"}`, map[string]string{
		"Idempotency-Key": "client-key-1",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover answer = %d: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get(AttemptsHeader); got != "2" {
		t.Fatalf("attempts = %q, want 2", got)
	}
	replica := fleet.Ring().Lookup(CompareKey(mustFingerprint(t)), 2)[1]
	if got := resp.Header.Get(serve.WorkerHeader); got != replica {
		t.Fatalf("served by %q, want first replica %q", got, replica)
	}
	var sawOwner, sawReplica []string
	for _, w := range ws {
		_, keys := w.snapshot()
		switch w.id {
		case owner:
			sawOwner = keys
		case replica:
			sawReplica = keys
		}
	}
	if len(sawOwner) != 1 || len(sawReplica) != 1 {
		t.Fatalf("key spread owner=%v replica=%v, want one attempt each", sawOwner, sawReplica)
	}
	if sawOwner[0] != "client-key-1" || sawReplica[0] != "client-key-1" {
		t.Fatalf("failover changed the key: owner saw %q, replica saw %q", sawOwner[0], sawReplica[0])
	}
}

func mustFingerprint(t *testing.T) [32]byte {
	t.Helper()
	e, err := workloads.ByName("MPEG")
	if err != nil {
		t.Fatal(err)
	}
	return e.Part.Fingerprint()
}

func TestRouterMintsKeysWhenClientSendsNone(t *testing.T) {
	w0 := newFakeWorker(t, "w0")
	fleet := fastFleet(t, w0)
	waitFor(t, "fleet ready", 2*time.Second, func() bool { return fleet.EligibleCount() == 1 })
	srv := routerFor(t, fleet)

	for i := 0; i < 2; i++ {
		resp, data := postJSON(t, srv.URL+"/v1/compare", `{"workload":"MPEG"}`, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("compare = %d: %s", resp.StatusCode, data)
		}
	}
	_, keys := w0.snapshot()
	if len(keys) != 2 || keys[0] == "" || keys[0] == keys[1] {
		t.Fatalf("minted keys = %v, want two distinct non-empty keys", keys)
	}
	if !strings.HasPrefix(keys[0], "rt-") {
		t.Fatalf("minted key %q missing router prefix", keys[0])
	}

	// A second router over the same fleet — the restart scenario, where
	// the minted counter restarts at zero — must mint from a DISJOINT key
	// stream, or the workers' replay store would answer the old router's
	// request N to the new router's unrelated request N.
	srv2 := routerFor(t, fleet)
	resp, data := postJSON(t, srv2.URL+"/v1/compare", `{"workload":"MPEG"}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compare via second router = %d: %s", resp.StatusCode, data)
	}
	_, keys = w0.snapshot()
	if len(keys) != 3 || keys[2] == keys[0] || keys[2] == keys[1] {
		t.Fatalf("minted keys = %v, want the second router's key distinct from the first's", keys)
	}
}

func TestRouterClientCancelDoesNotPenalizeWorker(t *testing.T) {
	w0 := newFakeWorker(t, "w0")
	w0.setWork(func(w http.ResponseWriter, r *http.Request) {
		// Consume the body first (as the real daemon does): the net/http
		// server only watches for a client disconnect — which is what
		// cancels r.Context() — once the request body is drained.
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done() // a slow sweep, outlived by the client
	})
	fleet := fastFleet(t, w0)
	waitFor(t, "fleet ready", 2*time.Second, func() bool { return fleet.EligibleCount() == 1 })
	srv := routerFor(t, fleet)

	// fastFleet ejects at 2 consecutive failures: if client cancellations
	// counted against the breaker, these three would eject w0.
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/compare", strings.NewReader(`{"workload":"MPEG"}`))
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
		cancel()
	}
	if n := fleet.EligibleCount(); n != 1 {
		t.Fatalf("eligible workers after client cancellations = %d, want 1 (impatient clients must not eject a healthy worker)", n)
	}
	w0.setWork(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"target":"MPEG","basic":{},"ds":{},"cds":{},"attempts":1,"worker_id":"w0"}`)
	})
	resp, data := postJSON(t, srv.URL+"/v1/compare", `{"workload":"MPEG"}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compare after cancellations = %d: %s", resp.StatusCode, data)
	}
}

func TestRouterOversizedWorkerAnswerFailsOver(t *testing.T) {
	ws := []*fakeWorker{newFakeWorker(t, "w0"), newFakeWorker(t, "w1"), newFakeWorker(t, "w2")}
	fleet := fastFleet(t, ws...)
	waitFor(t, "fleet ready", 2*time.Second, func() bool { return fleet.EligibleCount() == 3 })
	srv := routerFor(t, fleet)
	owner := mpegOwner(t, fleet.Ring())

	// The owner answers 200 with a body past the relay budget: relaying a
	// truncated prefix as a complete 200 would be a silent wrong answer,
	// so the router must treat it as a forward failure and walk on.
	huge := bytes.Repeat([]byte("x"), maxForwardBody+1)
	for _, w := range ws {
		if w.id == owner {
			w.setWork(func(w http.ResponseWriter, r *http.Request) {
				w.Write(huge)
			})
		}
	}
	resp, data := postJSON(t, srv.URL+"/v1/compare", `{"workload":"MPEG"}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("answer = %d: %s", resp.StatusCode, data[:min(len(data), 200)])
	}
	if got := resp.Header.Get(serve.WorkerHeader); got == owner || got == "" {
		t.Fatalf("served by %q, want a replica (oversized answers must not be relayed)", got)
	}
	if got := resp.Header.Get(AttemptsHeader); got != "2" {
		t.Fatalf("attempts = %q, want 2", got)
	}
	if len(data) > maxForwardBody {
		t.Fatalf("relayed body is %d bytes, past the budget", len(data))
	}
}

// TestPeerFillRingMatchesRouterVnodes pins the vnodes plumbing: a
// worker-side peer-fill ring built with the router's (non-default)
// vnode count must pick the same owner the router's ring does for
// every fingerprint.
func TestPeerFillRingMatchesRouterVnodes(t *testing.T) {
	members := []Member{
		{ID: "w0", Addr: "127.0.0.1:1"},
		{ID: "w1", Addr: "127.0.0.1:2"},
		{ID: "w2", Addr: "127.0.0.1:3"},
	}
	const vnodes = 7 // deliberately not DefaultVnodes
	routerRing := NewRing(vnodes, "w0", "w1", "w2")
	pf := NewPeerFill("w1", members, vnodes, time.Second, nil)
	for i := 0; i < 64; i++ {
		key := CompareKey([32]byte{byte(i), byte(i >> 8)})
		want, _ := routerRing.Owner(key)
		got, _ := pf.ring.Owner(key)
		if got != want {
			t.Fatalf("key %d: peer-fill ring owner = %q, router ring owner = %q (vnodes disagreement)", i, got, want)
		}
	}
}

func TestRouterDeadWorkerTransportFailover(t *testing.T) {
	ws := []*fakeWorker{newFakeWorker(t, "w0"), newFakeWorker(t, "w1"), newFakeWorker(t, "w2")}
	fleet := fastFleet(t, ws...)
	waitFor(t, "fleet ready", 2*time.Second, func() bool { return fleet.EligibleCount() == 3 })
	srv := routerFor(t, fleet)
	owner := mpegOwner(t, fleet.Ring())

	// Kill the owner outright: connection refused, not a 5xx.
	for _, w := range ws {
		if w.id == owner {
			w.srv.Close()
		}
	}
	resp, data := postJSON(t, srv.URL+"/v1/compare", `{"workload":"MPEG"}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("answer with dead owner = %d: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get(serve.WorkerHeader); got == owner || got == "" {
		t.Fatalf("served by %q, want a surviving replica", got)
	}
	// The dead worker is ejected once forward failures reach the
	// threshold; the next request then routes straight to the successor.
	postJSON(t, srv.URL+"/v1/compare", `{"workload":"MPEG"}`, nil)
	waitFor(t, "dead owner ejected", 2*time.Second, func() bool { return fleet.EligibleCount() == 2 })
	resp, _ = postJSON(t, srv.URL+"/v1/compare", `{"workload":"MPEG"}`, nil)
	if got := resp.Header.Get(AttemptsHeader); got != "1" {
		t.Fatalf("post-ejection attempts = %q, want 1 (no more probing the corpse)", got)
	}
}

func TestRouterClientErrorsDoNotFailOver(t *testing.T) {
	ws := []*fakeWorker{newFakeWorker(t, "w0"), newFakeWorker(t, "w1")}
	for _, w := range ws {
		w.setWork(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusBadRequest)
			io.WriteString(w, `{"error":"bad","class":"invalid_spec"}`)
		})
	}
	fleet := fastFleet(t, ws...)
	waitFor(t, "fleet ready", 2*time.Second, func() bool { return fleet.EligibleCount() == 2 })
	srv := routerFor(t, fleet)

	resp, data := postJSON(t, srv.URL+"/v1/compare", `{"workload":"MPEG"}`, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("answer = %d: %s", resp.StatusCode, data)
	}
	total := 0
	for _, w := range ws {
		hits, _ := w.snapshot()
		total += hits
	}
	if total != 1 {
		t.Fatalf("a 400 visited %d workers, want 1 (request errors never fail over)", total)
	}
}

func TestRouterAllWorkersDead(t *testing.T) {
	w0 := newFakeWorker(t, "w0")
	fleet := fastFleet(t, w0)
	waitFor(t, "fleet ready", 2*time.Second, func() bool { return fleet.EligibleCount() == 1 })
	srv := routerFor(t, fleet)
	w0.srv.Close()

	resp, data := postJSON(t, srv.URL+"/v1/compare", `{"workload":"MPEG"}`, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("answer = %d: %s, want 503", resp.StatusCode, data)
	}
	if !strings.Contains(string(data), "no_upstream") {
		t.Fatalf("body %s missing no_upstream class", data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 missing Retry-After")
	}

	// Router readiness turns truthful once every worker is ejected.
	waitFor(t, "router not ready", 2*time.Second, func() bool { return fleet.EligibleCount() == 0 })
	r, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("router readyz = %d with zero workers, want 503", r.StatusCode)
	}
}

func TestFleetEjectsDeadAndReadmitsRestartedWorker(t *testing.T) {
	// A worker on a listener we control, so it can die and come back on
	// the SAME address (the chaos restart scenario).
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"status":"ready","worker_id":"w0","pid":1}`)
	})
	hs := &http.Server{Handler: mux}
	go hs.Serve(l)

	fleet := NewFleet(FleetConfig{
		Workers:         []Member{{ID: "w0", Addr: addr}},
		ProbeInterval:   10 * time.Millisecond,
		ProbeTimeout:    200 * time.Millisecond,
		EjectThreshold:  2,
		ReadmitCooldown: 50 * time.Millisecond,
		Seed:            7,
	})
	fleet.Start()
	defer fleet.Stop()
	waitFor(t, "initial admission", 2*time.Second, func() bool { return fleet.EligibleCount() == 1 })

	hs.Close()
	waitFor(t, "ejection after death", 2*time.Second, func() bool { return fleet.EligibleCount() == 0 })
	if st := fleet.Snapshot().Workers[0].State; st != "ejected" {
		t.Fatalf("state = %q, want ejected", st)
	}

	// Restart on the same address: the cooldown's half-open probe must
	// readmit it.
	l2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rebinding %s: %v", addr, err)
	}
	hs2 := &http.Server{Handler: mux}
	go hs2.Serve(l2)
	defer hs2.Close()
	waitFor(t, "readmission after restart", 3*time.Second, func() bool { return fleet.EligibleCount() == 1 })
}

func TestFleetDrainingWorkerLeavesCandidatesWithoutPenalty(t *testing.T) {
	wa, wb := newFakeWorker(t, "wa"), newFakeWorker(t, "wb")
	fleet := fastFleet(t, wa, wb)
	waitFor(t, "fleet ready", 2*time.Second, func() bool { return fleet.EligibleCount() == 2 })

	wa.setReady(func() (int, string) {
		return http.StatusServiceUnavailable, `{"status":"draining","worker_id":"wa","pid":1}`
	})
	waitFor(t, "draining removal", 2*time.Second, func() bool { return fleet.EligibleCount() == 1 })
	snap := fleet.Snapshot()
	for _, w := range snap.Workers {
		if w.ID == "wa" && w.State != "draining" {
			t.Fatalf("wa state = %q, want draining", w.State)
		}
	}
	// Every key now routes to wb only.
	for i := 0; i < 10; i++ {
		key := CompareKey([32]byte{byte(i)})
		if c := fleet.Candidates(key, 0); len(c) != 1 || c[0] != "wb" {
			t.Fatalf("candidates = %v, want [wb]", c)
		}
	}

	// Coming back (a restart finished, or drain aborted) readmits on the
	// FIRST ready probe — no breaker cooldown for a clean drain.
	wa.setReady(func() (int, string) {
		return http.StatusOK, `{"status":"ready","worker_id":"wa","pid":2}`
	})
	waitFor(t, "instant readmission", time.Second, func() bool { return fleet.EligibleCount() == 2 })
}

func TestFleetSaturatedWorkerStaysRouted(t *testing.T) {
	w0 := newFakeWorker(t, "w0")
	fleet := fastFleet(t, w0)
	waitFor(t, "fleet ready", 2*time.Second, func() bool { return fleet.EligibleCount() == 1 })
	w0.setReady(func() (int, string) {
		return http.StatusServiceUnavailable, `{"status":"saturated","worker_id":"w0","pid":1,"queue_depth":8,"queue_capacity":8}`
	})
	// Saturation must NOT eject: give the probes a few rounds, then
	// check the worker is still a candidate.
	time.Sleep(60 * time.Millisecond)
	if fleet.EligibleCount() != 1 {
		t.Fatal("saturated worker was ejected; overload must stay routed (it sheds truthfully itself)")
	}
}

func TestRouterSweepRoutesByJournal(t *testing.T) {
	ws := []*fakeWorker{newFakeWorker(t, "w0"), newFakeWorker(t, "w1"), newFakeWorker(t, "w2")}
	fleet := fastFleet(t, ws...)
	waitFor(t, "fleet ready", 2*time.Second, func() bool { return fleet.EligibleCount() == 3 })
	srv := routerFor(t, fleet)

	body := `{"archs":["M1"],"journal":"night-7"}`
	owner, _ := fleet.Ring().Owner(SweepKey("night-7", []byte(body)))
	for i := 0; i < 3; i++ {
		resp, data := postJSON(t, srv.URL+"/v1/sweep", body, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sweep = %d: %s", resp.StatusCode, data)
		}
		if got := resp.Header.Get(serve.WorkerHeader); got != owner {
			t.Fatalf("sweep served by %q, want journal owner %q", got, owner)
		}
	}
}

func TestPeerFillWalksRingAndDecodes(t *testing.T) {
	// A peer that has the answer under any key.
	canned := serve.CompareResponse{WorkerID: "w-owner", RF: 2, CDS: serve.SchedulerResult{TotalCycles: 777}}
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v1/cache/") {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(canned)
	}))
	defer peer.Close()
	peerAddr := strings.TrimPrefix(peer.URL, "http://")

	members := []Member{{ID: "w-owner", Addr: peerAddr}, {ID: "w-self", Addr: "127.0.0.1:1"}}
	pf := NewPeerFill("w-self", members, DefaultVnodes, time.Second, nil)

	var fp [32]byte
	fp[0] = 9
	var key rescache.Key
	key[0] = 9
	got, ok := pf.Fill(context.Background(), fp, key)
	if !ok {
		t.Fatal("Fill missed against a serving peer")
	}
	if got.WorkerID != "w-owner" || got.CDS.TotalCycles != 777 {
		t.Fatalf("filled = %+v, want the peer's canned answer", got)
	}

	// Single-member fleet: no peer to ask.
	solo := NewPeerFill("w-self", []Member{{ID: "w-self", Addr: "127.0.0.1:1"}}, DefaultVnodes, time.Second, nil)
	if _, ok := solo.Fill(context.Background(), fp, key); ok {
		t.Fatal("solo fleet found a peer")
	}

	// Dead peer: a miss, never an error.
	deadFirst := NewPeerFill("w-self", []Member{{ID: "w-owner", Addr: "127.0.0.1:1"}, {ID: "w-self", Addr: peerAddr}}, DefaultVnodes, 100*time.Millisecond, nil)
	if _, ok := deadFirst.Fill(context.Background(), fp, key); ok {
		t.Fatal("dead peer produced a fill")
	}
}
