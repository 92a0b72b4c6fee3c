package serve

// Admission. Every server admits through one weighted-fair queue
// (tenantQueue): a fixed pool of execution slots granted across
// per-lane FIFOs, each lane with its own bounded wait queue (the
// admission budget). An untenanted server is the one-lane case: a single
// lane keyed "" with weight 1 and budget Config.Queue, which is a plain
// bounded FIFO in front of the slots — the service-level counterpart of
// the array side, where one application is the K=1 case of the tenant
// interleaver (internal/tenant).
//
// With tenants configured (schedd -tenants), every /v1/compare and
// /v1/sweep request names its tenant in the X-Tenant header, and each
// tenant gets its own lane: free slots go to lanes by the same
// virtual-time discipline the array-level interleaver uses for compute
// slices. A tenant posting faster than its budget drains is shed with a
// per-tenant 429 whose Retry-After reflects the actual backlog; other
// tenants' queues are untouched, so one hot tenant cannot starve the
// rest out of the admission queue. Untenanted servers ignore X-Tenant
// and shed with the plain "overload" 429.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"

	"cds/internal/rescache"
	"cds/internal/scherr"
)

// TenantHeader names the request header carrying the tenant ID when the
// server runs in multi-tenant mode.
const TenantHeader = "X-Tenant"

// TenantSpec declares one tenant of the service: its stable ID, its
// weight in the fair-share slot granting, and its admission budget (how
// many of its requests may wait for a slot before the next one is shed).
type TenantSpec struct {
	ID     string
	Weight int // fair-share weight; defaulted to 1
	Budget int // max queued requests; defaulted to the server's Queue
}

// ParseTenants parses the -tenants flag grammar: semicolon-separated
// tenants, each "id" or "id:key=val,key=val" with keys "weight" and
// "budget".
//
//	video:weight=3,budget=4;radar:weight=1;batch:budget=2
func ParseTenants(s string) ([]TenantSpec, error) {
	var specs []TenantSpec
	seen := map[string]bool{}
	for _, ent := range strings.Split(s, ";") {
		ent = strings.TrimSpace(ent)
		if ent == "" {
			continue
		}
		spec := TenantSpec{ID: ent}
		if i := strings.IndexByte(ent, ':'); i >= 0 {
			spec.ID = ent[:i]
			for _, kv := range strings.Split(ent[i+1:], ",") {
				kv = strings.TrimSpace(kv)
				if kv == "" {
					continue
				}
				key, val, ok := strings.Cut(kv, "=")
				if !ok {
					return nil, fmt.Errorf("serve: tenant %q: %q is not key=value", spec.ID, kv)
				}
				n, err := strconv.Atoi(val)
				if err != nil || n < 1 {
					return nil, fmt.Errorf("serve: tenant %q: %s must be a positive integer, got %q", spec.ID, key, val)
				}
				switch key {
				case "weight":
					spec.Weight = n
				case "budget":
					spec.Budget = n
				default:
					return nil, fmt.Errorf("serve: tenant %q: unknown key %q (want weight or budget)", spec.ID, key)
				}
			}
		}
		if spec.ID == "" {
			return nil, fmt.Errorf("serve: tenant entry %q has an empty id", ent)
		}
		if seen[spec.ID] {
			return nil, fmt.Errorf("serve: duplicate tenant id %q", spec.ID)
		}
		seen[spec.ID] = true
		specs = append(specs, spec)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("serve: no tenants in %q", s)
	}
	return specs, nil
}

// UnknownTenantError is the 400 verdict: the request named no tenant,
// or one the server was not configured with.
type UnknownTenantError struct{ ID string }

func (e *UnknownTenantError) Error() string {
	if e.ID == "" {
		return "request names no tenant (missing " + TenantHeader + " header)"
	}
	return fmt.Sprintf("unknown tenant %q", e.ID)
}

// TenantBudgetError is the per-tenant 429 verdict: the tenant's
// admission budget is exhausted. Queued carries the total backlog
// across all tenants, which sizes the Retry-After hint.
type TenantBudgetError struct {
	ID     string
	Budget int
	Queued int
}

func (e *TenantBudgetError) Error() string {
	return fmt.Sprintf("tenant %q admission budget exhausted (%d queued)", e.ID, e.Budget)
}

// tenantWaiter is one request waiting in a tenant's FIFO. ready closes
// when a slot is granted; granted is guarded by the queue mutex.
type tenantWaiter struct {
	ready   chan struct{}
	granted bool
}

// tenantLane is one tenant's admission state: its FIFO of waiters and
// its virtual-time position in the fair-share granting.
type tenantLane struct {
	spec     TenantSpec
	fifo     []*tenantWaiter
	vtime    float64
	inflight int
	admitted int64
	shed     int64
}

// tenantQueue grants a fixed pool of execution slots across per-tenant
// FIFOs by weighted fair queueing: each grant advances the lane's
// virtual time by 1/weight, and free slots always go to the eligible
// lane with the minimum virtual time (ties by configuration order). A
// lane waking from idle is seeded to the minimum active virtual time so
// banked idle credit cannot starve the others.
type tenantQueue struct {
	mu     sync.Mutex
	free   int // execution slots not currently granted
	queued int // waiters across every lane
	lanes  map[string]*tenantLane
	order  []string // configuration order, the dispatch tie-break
}

func newTenantQueue(workers, defaultBudget int, specs []TenantSpec) *tenantQueue {
	q := &tenantQueue{free: workers, lanes: make(map[string]*tenantLane, len(specs))}
	for _, spec := range specs {
		if spec.Weight < 1 {
			spec.Weight = 1
		}
		if spec.Budget < 1 {
			spec.Budget = defaultBudget
		}
		q.lanes[spec.ID] = &tenantLane{spec: spec}
		q.order = append(q.order, spec.ID)
	}
	return q
}

// known reports whether id names a configured tenant.
func (q *tenantQueue) known(id string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	_, ok := q.lanes[id]
	return ok
}

// admit blocks until the tenant is granted an execution slot, the
// tenant's budget rejects the request, or ctx ends. On success the
// returned release must be called exactly once.
func (q *tenantQueue) admit(ctx context.Context, id string) (release func(), err error) {
	q.mu.Lock()
	l, ok := q.lanes[id]
	if !ok {
		q.mu.Unlock()
		return nil, &UnknownTenantError{ID: id}
	}
	if len(l.fifo) >= l.spec.Budget {
		l.shed++
		qd := q.queued
		q.mu.Unlock()
		return nil, &TenantBudgetError{ID: id, Budget: l.spec.Budget, Queued: qd}
	}
	w := &tenantWaiter{ready: make(chan struct{})}
	if len(l.fifo) == 0 && l.inflight == 0 {
		// Waking from idle: start from the busy lanes' minimum virtual
		// time, not from the stale position banked while idle.
		if v, ok := q.minActiveVtime(l); ok && l.vtime < v {
			l.vtime = v
		}
	}
	l.fifo = append(l.fifo, w)
	q.queued++
	q.dispatch()
	q.mu.Unlock()

	select {
	case <-w.ready:
		return func() { q.release(l) }, nil
	case <-ctx.Done():
		q.mu.Lock()
		if w.granted {
			// The grant raced the cancellation: give the slot straight back.
			q.mu.Unlock()
			q.release(l)
			return nil, scherr.Canceled(ctx.Err())
		}
		for i, cand := range l.fifo {
			if cand == w {
				l.fifo = append(l.fifo[:i], l.fifo[i+1:]...)
				q.queued--
				break
			}
		}
		q.mu.Unlock()
		return nil, scherr.Canceled(ctx.Err())
	}
}

// minActiveVtime returns the minimum virtual time among lanes with work
// (queued or in flight), excluding l.
func (q *tenantQueue) minActiveVtime(except *tenantLane) (float64, bool) {
	min, found := 0.0, false
	for _, id := range q.order {
		l := q.lanes[id]
		if l == except || (len(l.fifo) == 0 && l.inflight == 0) {
			continue
		}
		if !found || l.vtime < min {
			min, found = l.vtime, true
		}
	}
	return min, found
}

// dispatch (mu held) hands free slots to the minimum-vtime lanes.
func (q *tenantQueue) dispatch() {
	for q.free > 0 {
		var best *tenantLane
		for _, id := range q.order {
			l := q.lanes[id]
			if len(l.fifo) == 0 {
				continue
			}
			if best == nil || l.vtime < best.vtime {
				best = l
			}
		}
		if best == nil {
			return
		}
		w := best.fifo[0]
		best.fifo = best.fifo[1:]
		q.queued--
		q.free--
		best.inflight++
		best.admitted++
		best.vtime += 1 / float64(best.spec.Weight)
		w.granted = true
		close(w.ready)
	}
}

func (q *tenantQueue) release(l *tenantLane) {
	q.mu.Lock()
	l.inflight--
	q.free++
	q.dispatch()
	q.mu.Unlock()
}

// depth reports the current total backlog and the summed budgets (the
// queue depth/capacity on /readyz).
func (q *tenantQueue) depth() (queued, capacity int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, l := range q.lanes {
		capacity += l.spec.Budget
	}
	return q.queued, capacity
}

// TenantQueueStat is one tenant's admission counters, as reported on
// /metrics.
type TenantQueueStat struct {
	ID       string
	Weight   int
	Budget   int
	Depth    int
	Inflight int
	Admitted int64
	Shed     int64
}

// stats snapshots every lane in configuration order.
func (q *tenantQueue) stats() []TenantQueueStat {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]TenantQueueStat, 0, len(q.order))
	for _, id := range q.order {
		l := q.lanes[id]
		out = append(out, TenantQueueStat{
			ID:       id,
			Weight:   l.spec.Weight,
			Budget:   l.spec.Budget,
			Depth:    len(l.fifo),
			Inflight: l.inflight,
			Admitted: l.admitted,
			Shed:     l.shed,
		})
	}
	return out
}

// tenantOf names the lane a request queues in: the X-Tenant header in
// tenant mode, the single "" lane otherwise (the header is ignored).
func (s *Server) tenantOf(r *http.Request) string {
	if len(s.cfg.Tenants) == 0 {
		return ""
	}
	return r.Header.Get(TenantHeader)
}

// checkTenant enforces the tenant header on a request before any work
// (including the cache fast path) happens for it. ok=false means the
// 400 has been written.
func (s *Server) checkTenant(w http.ResponseWriter, r *http.Request) bool {
	if id := s.tenantOf(r); !s.tq.known(id) {
		WriteError(w, http.StatusBadRequest, (&UnknownTenantError{ID: id}).Error(), "unknown_tenant")
		return false
	}
	return true
}

// admit takes an execution slot for the request: its lane's budget,
// then a weighted-fair wait for a slot. ok=false means the response has
// been written.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	release, err := s.tq.admit(r.Context(), s.tenantOf(r))
	if err == nil {
		return release, true
	}
	var unknown *UnknownTenantError
	var budget *TenantBudgetError
	switch {
	case errors.As(err, &unknown):
		WriteError(w, http.StatusBadRequest, err.Error(), "unknown_tenant")
	case errors.As(err, &budget):
		s.shed.Add(1)
		if len(s.cfg.Tenants) == 0 {
			w.Header().Set("Retry-After", "1")
			WriteError(w, http.StatusTooManyRequests, "queue full, load shed", "overload")
			break
		}
		// The hint is the backlog's expected drain time: the whole fleet
		// of workers chews through Queued requests ahead of this tenant's
		// next chance, so one second plus backlog-over-workers.
		w.Header().Set("Retry-After", strconv.Itoa(1+budget.Queued/s.cfg.Workers))
		WriteError(w, http.StatusTooManyRequests, err.Error(), "tenant_budget")
	default:
		s.writeErr(w, err)
	}
	return nil, false
}

// handleMetrics renders the plain-text counters: server admission,
// result-cache effectiveness (rescache.Snapshot) and, in tenant mode,
// the per-tenant queue state (an untenanted server prints no tenant_
// lines).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "schedd_served_total %d\n", s.served.Load())
	fmt.Fprintf(w, "schedd_shed_total %d\n", s.shed.Load())
	fmt.Fprintf(w, "schedd_cache_hits_total %d\n", s.cacheHits.Load())
	fmt.Fprintf(w, "schedd_peer_cache_fills_total %d\n", s.peerHits.Load())
	fmt.Fprintf(w, "schedd_panics_total %d\n", s.panics.Load())

	caches := rescache.Snapshot()
	names := make([]string, 0, len(caches))
	for name := range caches {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c := caches[name]
		fmt.Fprintf(w, "rescache_hits_total{cache=%q} %d\n", name, c.Hits)
		fmt.Fprintf(w, "rescache_misses_total{cache=%q} %d\n", name, c.Misses)
		fmt.Fprintf(w, "rescache_evictions_total{cache=%q} %d\n", name, c.Evictions)
		fmt.Fprintf(w, "rescache_peer_fills_total{cache=%q} %d\n", name, c.PeerFills)
		fmt.Fprintf(w, "rescache_entries{cache=%q} %d\n", name, c.Entries)
	}

	if len(s.cfg.Tenants) > 0 {
		for _, st := range s.tq.stats() {
			fmt.Fprintf(w, "tenant_queue_depth{tenant=%q} %d\n", st.ID, st.Depth)
			fmt.Fprintf(w, "tenant_inflight{tenant=%q} %d\n", st.ID, st.Inflight)
			fmt.Fprintf(w, "tenant_admitted_total{tenant=%q} %d\n", st.ID, st.Admitted)
			fmt.Fprintf(w, "tenant_shed_total{tenant=%q} %d\n", st.ID, st.Shed)
			fmt.Fprintf(w, "tenant_weight{tenant=%q} %d\n", st.ID, st.Weight)
			fmt.Fprintf(w, "tenant_budget{tenant=%q} %d\n", st.ID, st.Budget)
		}
	}
}
