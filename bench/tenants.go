package main

// tenants-miss: the same serve layer used the opposite way from
// fleet-zipf. One server runs in tenant mode (two execution slots, a
// budget of 16 queued requests per tenant, weights 1:2:4) and every
// request body is a distinct corpus point, so the result cache never
// hits: WFQ admission, spec decoding and full computation dominate. The
// points are the corpusSeed corpus, in an order the run's seed sets; the
// seed also draws the arrival times.
// Requests call the handler in-process: in the open-loop phases one
// goroutine per due request, so admission and 429 shedding see real
// contention; in the closed loop three callers for the two slots, so one
// request always waits for admission. The router is left out: it
// forwards only Content-Type and Idempotency-Key, so a tenant-mode fleet
// would answer every request 400 unknown_tenant.
//
// The result cache is off. Every key is new, so with it on each request
// would only miss and insert, and the server would hold 512 full
// comparisons (about 350 MiB) for the collector to mark on every cycle;
// that marking, not admission or computation, then set the latencies,
// which moved by twice as much from run to run. The server still hashes
// each spec and looks it up.

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"cds"
	"cds/internal/serve"
)

const (
	tenantsConfig   = "t1:weight=1;t2:weight=2;t4:weight=4"
	tenantsLowRate  = 200
	tenantsHighRate = 400
	tenantsWorkers  = 2
	tenantsQueue    = 16
	tenantsCallers  = 3
	// tenantsClosedPerSecond sizes the closed loop: requests per second
	// of the run, half the three callers' rate on the reference host.
	tenantsClosedPerSecond = 560
	// tenantsWindow is the shuffler window of the request keys.
	tenantsWindow = 48
	// tenantsCheckEvery picks the requests whose answers are recomputed
	// in-process; every request is distinct, so checking all would cost
	// as much as the run.
	tenantsCheckEvery = 25
)

var tenantIDs = []string{"t1", "t2", "t4"}

// tenantsRig is the server plus its traffic.
type tenantsRig struct {
	service
	srv     *serve.Server
	handler http.Handler
	keys    *shuffler
	ops     int64
}

// next is the next request: a fresh corpus point, tenants in turn.
func (t *tenantsRig) next() *call {
	op := t.ops
	t.ops++
	return &call{op: op, key: t.keys.at(int(op)), tenant: tenantIDs[op%int64(len(tenantIDs))]}
}

func startTenants(r *run, lk *links) (*tenantsRig, func(), error) {
	specs, err := serve.ParseTenants(tenantsConfig)
	if err != nil {
		return nil, nil, err
	}
	t := &tenantsRig{keys: newShuffler(r.cfg.seed, tenantsWindow)}
	t.service = service{callers: tenantsCallers, next: t.next, send: t.sender(r.rec, lk), depth: t.depth,
		check: func(c *call) bool { return c.op%tenantsCheckEvery == 0 }, bodies: newBodies(corpusSeed)}
	t.draw(r.cfg.seed, r.d, tenantsLowRate, tenantsHighRate, tenantsClosedPerSecond)
	t.srv = serve.New(serve.Config{Workers: tenantsWorkers, Queue: tenantsQueue, Tenants: specs})
	t.handler = traced(r.rec, lk, "serve.worker", "client.request", t.srv.Handler())
	return t, nil, nil
}

// depth reads the summed tenant backlog from /readyz.
func (t *tenantsRig) depth() int {
	w := httptest.NewRecorder()
	t.srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	return readyDepth(w.Body.Bytes())
}

// sender calls the handler in-process.
func (t *tenantsRig) sender(rec *recorder, lk *links) func(int, *call) {
	return func(_ int, c *call) {
		sp := rec.start(c.op, 0, "client.request")
		lk.set(c.op, "client.request", sp.id)
		defer rec.end(sp)
		req, err := http.NewRequest(http.MethodPost, "/v1/compare", bytes.NewReader(t.bodies.get(c.key)))
		if err != nil {
			c.err = err
			return
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(serve.TenantHeader, c.tenant)
		req.Header.Set(benchOpHeader, strconv.FormatInt(c.op, 10))
		w := httptest.NewRecorder()
		t.handler.ServeHTTP(w, req)
		c.lat = time.Since(c.due)
		c.answer(w.Code, w.Body.Bytes(), "")
	}
}

func runTenants(r *run) error {
	defer cds.SetResultCaching(cds.SetResultCaching(false))
	lk := &links{}
	t, _, err := setup(r, func() (*tenantsRig, func(), error) { return startTenants(r, lk) })
	if err != nil {
		return err
	}
	r.drive(&t.service, nil)
	if r.rec != nil {
		byTenant := map[string][]*call{}
		for _, c := range t.high {
			byTenant[c.tenant] = append(byTenant[c.tenant], c)
		}
		for _, id := range tenantIDs {
			r.layers["serve.tenant_p99_ms."+id] = samplesOf(byTenant[id]).pct(0.99)
		}
	}
	return nil
}
