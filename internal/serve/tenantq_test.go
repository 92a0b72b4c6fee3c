package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"cds"
	"cds/internal/scherr"
	"cds/internal/workloads"
)

func TestParseTenants(t *testing.T) {
	got, err := ParseTenants("video:weight=3,budget=4;radar;batch:budget=2")
	if err != nil {
		t.Fatal(err)
	}
	want := []TenantSpec{
		{ID: "video", Weight: 3, Budget: 4},
		{ID: "radar"},
		{ID: "batch", Budget: 2},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseTenants = %+v, want %+v", got, want)
	}

	for _, bad := range []string{
		"", ";;", "a;a", "a:weight=0", "a:weight=x", "a:speed=3", "a:weight", ":weight=1",
	} {
		if _, err := ParseTenants(bad); err == nil {
			t.Errorf("ParseTenants(%q) accepted", bad)
		}
	}
}

// tenantServer builds a tenant-mode server whose compare backend blocks
// until release closes, so tests can fill slots and queues on purpose.
func tenantServer(workers int, tenants []TenantSpec, release chan struct{}, started chan string) *Server {
	return New(Config{
		Workers: workers,
		Queue:   8,
		Tenants: tenants,
		Compare: func(ctx context.Context, pa cds.Arch, part *cds.Part) (*cds.Comparison, error) {
			if started != nil {
				started <- "go"
			}
			select {
			case <-release:
			case <-ctx.Done():
				return nil, scherr.Canceled(ctx.Err())
			}
			return &cds.Comparison{DS: &cds.Result{}}, nil
		},
	})
}

func postTenant(t *testing.T, h http.Handler, path, tenant, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// TestTenantUnknown400: in tenant mode, a request naming no tenant — or
// one the server was not configured with — is a 400 before any work,
// on both compare and sweep.
func TestTenantUnknown400(t *testing.T) {
	s := tenantServer(1, []TenantSpec{{ID: "video"}}, nil, nil)
	for _, tc := range []struct{ path, tenant string }{
		{"/v1/compare", ""},
		{"/v1/compare", "ghost"},
		{"/v1/sweep", ""},
		{"/v1/sweep", "ghost"},
	} {
		w := postTenant(t, s.Handler(), tc.path, tc.tenant, `{"workload":"MPEG"}`)
		if w.Code != http.StatusBadRequest {
			t.Fatalf("%s tenant=%q = %d, want 400: %s", tc.path, tc.tenant, w.Code, w.Body.String())
		}
		if e := decode[ErrorBody](t, w); e.Class != "unknown_tenant" {
			t.Fatalf("%s tenant=%q class = %q, want unknown_tenant", tc.path, tc.tenant, e.Class)
		}
	}
}

// TestTenantBudgetShed429 pins the per-tenant admission contract: a
// tenant whose budget is exhausted is shed with 429, class
// tenant_budget, and a Retry-After sized to the actual backlog
// (1 + queued/workers) — while another tenant's queue stays open.
func TestTenantBudgetShed429(t *testing.T) {
	release := make(chan struct{})
	started := make(chan string, 8)
	s := tenantServer(1, []TenantSpec{
		{ID: "video", Weight: 2, Budget: 1},
		{ID: "radar", Weight: 1, Budget: 1},
	}, release, started)

	codes := make(chan int, 4)
	serveOne := func(tenant string) {
		w := postTenant(t, s.Handler(), "/v1/compare", tenant, `{"workload":"MPEG"}`)
		codes <- w.Code
	}
	go serveOne("video") // occupies the single slot
	<-started
	go serveOne("video") // fills video's budget of 1
	waitDepth := func(want int) {
		t.Helper()
		for i := 0; i < 500; i++ {
			if d, _ := s.tq.depth(); d == want {
				return
			}
			time.Sleep(time.Millisecond)
		}
		d, _ := s.tq.depth()
		t.Fatalf("queue depth = %d, want %d", d, want)
	}
	waitDepth(1)

	// Budget exhausted: the next video request is shed with the backlog
	// hint — 1 queued request over 1 worker → Retry-After 2.
	w := postTenant(t, s.Handler(), "/v1/compare", "video", `{"workload":"MPEG"}`)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over-budget request = %d, want 429: %s", w.Code, w.Body.String())
	}
	if ra := w.Header().Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q, want 2 (1 + 1 queued / 1 worker)", ra)
	}
	if e := decode[ErrorBody](t, w); e.Class != "tenant_budget" {
		t.Fatalf("class = %q, want tenant_budget", e.Class)
	}
	if s.Shed() != 1 {
		t.Fatalf("Shed() = %d, want 1", s.Shed())
	}

	// radar's own budget is untouched by video's shedding: its request
	// queues instead of bouncing.
	go serveOne("radar")
	waitDepth(2)

	// Shedding never starved the admitted work.
	close(release)
	for i := 0; i < 3; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("admitted request %d finished %d, want 200", i, code)
		}
	}
}

// TestQueueFullRetryAfter pins the non-tenant shed hint exactly: the
// shared-queue overload 429 always advises a 1-second backoff.
func TestQueueFullRetryAfter(t *testing.T) {
	release := make(chan struct{})
	started := make(chan string, 4)
	s := New(Config{
		Workers: 1,
		Queue:   1,
		Compare: func(ctx context.Context, pa cds.Arch, part *cds.Part) (*cds.Comparison, error) {
			started <- "go"
			select {
			case <-release:
			case <-ctx.Done():
				return nil, scherr.Canceled(ctx.Err())
			}
			return &cds.Comparison{DS: &cds.Result{}}, nil
		},
	})
	defer close(release)

	codes := make(chan int, 2)
	go func() { codes <- post(t, s.Handler(), "/v1/compare", `{"workload":"MPEG"}`).Code }()
	<-started
	go func() { codes <- post(t, s.Handler(), "/v1/compare", `{"workload":"MPEG"}`).Code }()
	for i := 0; i < 500 && queued(s) == 0; i++ {
		time.Sleep(time.Millisecond)
	}

	w := post(t, s.Handler(), "/v1/compare", `{"workload":"MPEG"}`)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("overload request = %d, want 429", w.Code)
	}
	if ra := w.Header().Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want 1", ra)
	}
	if e := decode[ErrorBody](t, w); e.Class != "overload" {
		t.Fatalf("class = %q, want overload", e.Class)
	}
}

// TestTenantWeightedDequeue drives the fair-share slot granting
// deterministically: one slot, tenants a (weight 3) and b (weight 1),
// six a-waiters and two b-waiters queued behind an a occupant. Granting
// one at a time must interleave 3:1 by virtual time — a b a a a b a a —
// not drain a's FIFO first.
func TestTenantWeightedDequeue(t *testing.T) {
	q := newTenantQueue(1, 8, []TenantSpec{{ID: "a", Weight: 3}, {ID: "b", Weight: 1}})
	ctx := context.Background()
	rel0, err := q.admit(ctx, "a") // occupies the slot
	if err != nil {
		t.Fatal(err)
	}

	type grant struct {
		id      string
		release func()
	}
	grants := make(chan grant, 8)
	enqueue := func(id string, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			before, _ := q.depth()
			go func() {
				r, err := q.admit(ctx, id)
				if err != nil {
					t.Errorf("admit %s: %v", id, err)
					return
				}
				grants <- grant{id, r}
			}()
			for j := 0; j < 500; j++ {
				if d, _ := q.depth(); d > before {
					break
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	enqueue("a", 6)
	enqueue("b", 2)

	rel0()
	var order []string
	for i := 0; i < 8; i++ {
		g := <-grants
		order = append(order, g.id)
		g.release()
	}
	want := []string{"a", "b", "a", "a", "a", "b", "a", "a"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("grant order %v, want %v", order, want)
	}
}

// TestUntenantedLaneFIFO pins the order an untenanted server grants
// slots in: it admits through one weighted-fair lane, so with one slot
// held, three waiters are granted strictly in arrival order.
func TestUntenantedLaneFIFO(t *testing.T) {
	started := make(chan string)
	release := make(chan struct{})
	s := New(Config{
		Workers: 1,
		Queue:   3,
		Compare: func(ctx context.Context, pa cds.Arch, part *cds.Part) (*cds.Comparison, error) {
			started <- part.App.Name
			select {
			case <-release:
			case <-ctx.Done():
				return nil, scherr.Canceled(ctx.Err())
			}
			return &cds.Comparison{DS: &cds.Result{}}, nil
		},
	})
	appName := func(workload string) string {
		t.Helper()
		e, err := workloads.ByName(workload)
		if err != nil {
			t.Fatal(err)
		}
		return e.Part.App.Name
	}

	codes := make(chan int, 4)
	serveOne := func(workload string) {
		codes <- post(t, s.Handler(), "/v1/compare", `{"workload":"`+workload+`"}`).Code
	}
	go serveOne("MPEG") // occupies the single slot
	<-started
	arrivals := []string{"E1", "E2", "E3"}
	for i, wl := range arrivals {
		go serveOne(wl)
		for j := 0; j < 500 && queued(s) <= i; j++ {
			time.Sleep(time.Millisecond)
		}
		if n := queued(s); n != i+1 {
			t.Fatalf("after %d arrivals queued = %d", i+1, n)
		}
	}

	var got, want []string
	for _, wl := range arrivals {
		want = append(want, appName(wl))
		release <- struct{}{} // finish the running request; the next is granted
		got = append(got, <-started)
	}
	release <- struct{}{}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("grant order %v, want arrival order %v", got, want)
	}
	for i := 0; i < 4; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("request finished %d, want 200", code)
		}
	}
}

// TestMetricsEndpoint: /metrics reports admission counters, the
// rescache snapshot and per-tenant queue state as plain text.
func TestMetricsEndpoint(t *testing.T) {
	release := make(chan struct{})
	close(release)
	s := tenantServer(2, []TenantSpec{{ID: "video", Weight: 2}, {ID: "radar"}}, release, nil)

	if w := postTenant(t, s.Handler(), "/v1/compare", "video", `{"workload":"MPEG"}`); w.Code != http.StatusOK {
		t.Fatalf("compare = %d: %s", w.Code, w.Body.String())
	}

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("metrics = %d", w.Code)
	}
	body := w.Body.String()
	for _, want := range []string{
		"schedd_served_total 1",
		"rescache_hits_total{cache=",
		`tenant_admitted_total{tenant="video"} 1`,
		`tenant_admitted_total{tenant="radar"} 0`,
		`tenant_weight{tenant="video"} 2`,
		`tenant_queue_depth{tenant="video"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}

	// Untenanted: one anonymous lane, so /metrics prints no tenant_ lines
	// and an X-Tenant header is ignored rather than rejected.
	u := tenantServer(2, nil, release, nil)
	if w := postTenant(t, u.Handler(), "/v1/compare", "x", `{"workload":"MPEG"}`); w.Code != http.StatusOK {
		t.Fatalf("untenanted compare with X-Tenant = %d: %s", w.Code, w.Body.String())
	}
	w = httptest.NewRecorder()
	u.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if body := w.Body.String(); !strings.Contains(body, "schedd_served_total 1") || strings.Contains(body, "tenant_") {
		t.Errorf("untenanted metrics want schedd_served_total 1 and no tenant_ lines:\n%s", body)
	}
}
