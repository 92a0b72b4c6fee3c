package main

// fleet-zipf: the cache-hit path behind the router. A cluster.Router
// fronts two serve workers (one execution slot each) over real loopback
// HTTP/1.1; two keep-alive client connections post /v1/compare specs
// whose keys follow a Zipf(1.1) law over 20,000 corpus points, so most
// requests are answered from the result cache and the router hop
// dominates. Computation runs only on misses. The workers share one
// process, hence one process-global result cache: a key one worker
// computed is a hit on the other, and peer cache fill never runs.
//
// BENCHMARK.json does not list this workload: on a shared 2-vCPU VM its
// timings moved by more than their bounds from run to run even in the
// closed loop (see README.md).

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"cds/internal/cluster"
	"cds/internal/serve"
)

const (
	fleetKeys     = 20000
	fleetZipfS    = 1.1
	fleetLowRate  = 400
	fleetHighRate = 1000
	fleetConns    = 2
	// fleetClosedPerSecond sizes the closed loop: requests per second of
	// the run, half the two connections' rate on the reference host.
	fleetClosedPerSecond = 1100
	// zipfStream separates the key draw's random stream from the arrival
	// times', both seeded from the run's seed.
	zipfStream = 0x5a1f
)

// fleetRig is a running fleet plus its traffic.
type fleetRig struct {
	service
	workers []*serve.Server
	addrs   []string
	fleet   *cluster.Fleet
	router  *http.Server
	url     string
	clients []*http.Client
	probe   *http.Client
	ops     atomic.Int64
	zmu     sync.Mutex
	zipf    *rand.Zipf
}

// next is the next request: a key drawn from the Zipf law.
func (f *fleetRig) next() *call {
	f.zmu.Lock()
	k := int(f.zipf.Uint64())
	f.zmu.Unlock()
	return &call{op: f.ops.Add(1), key: k}
}

// startFleet draws the traffic and starts the workers, the router and the
// clients.
func startFleet(r *run, lk *links) (*fleetRig, func(), error) {
	f := &fleetRig{probe: &http.Client{Timeout: time.Second}}
	f.zipf = rand.NewZipf(rand.New(rand.NewSource(r.cfg.seed^zipfStream)), fleetZipfS, 1, fleetKeys-1)
	f.service = service{lanes: fleetConns, callers: fleetConns, next: f.next, send: f.sender(r.rec, lk),
		depth: f.depth, check: func(*call) bool { return true }, bodies: newBodies(r.cfg.seed)}
	f.draw(r.cfg.seed, r.d, fleetLowRate, fleetHighRate, fleetClosedPerSecond)

	var members []cluster.Member
	for i := 0; i < 2; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, nil, err
		}
		srv := serve.New(serve.Config{Workers: 1, WorkerID: fmt.Sprintf("w%d", i)})
		go srv.Serve(l)
		f.workers = append(f.workers, srv)
		f.addrs = append(f.addrs, l.Addr().String())
		members = append(members, cluster.Member{ID: fmt.Sprintf("w%d", i), Addr: l.Addr().String()})
	}
	f.fleet = cluster.NewFleet(cluster.FleetConfig{Workers: members, Seed: r.cfg.seed})
	f.fleet.Start()
	cfg := cluster.RouterConfig{Fleet: f.fleet}
	if r.rec != nil {
		// The router's own transport settings, with a span around each
		// forward: the worker as the router sees it.
		cfg.HTTP = &http.Client{Transport: &timedTransport{rec: r.rec, lk: lk, base: &http.Transport{
			MaxIdleConns: 512, MaxIdleConnsPerHost: 128, IdleConnTimeout: 90 * time.Second,
		}}}
	}
	rl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.close()
		return nil, nil, err
	}
	f.router = &http.Server{Handler: traced(r.rec, lk, "cluster.route", "client.request", cluster.NewRouter(cfg))}
	go f.router.Serve(rl)
	f.url = "http://" + rl.Addr().String() + "/v1/compare"
	for i := 0; i < fleetConns; i++ {
		f.clients = append(f.clients, &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}})
	}
	for _, w := range f.workers {
		for !w.Ready() {
			time.Sleep(time.Millisecond)
		}
	}
	return f, f.close, nil
}

func (f *fleetRig) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, c := range f.clients {
		c.CloseIdleConnections()
	}
	if f.router != nil {
		f.router.Shutdown(ctx)
	}
	if f.fleet != nil {
		f.fleet.Stop()
	}
	for _, w := range f.workers {
		w.Drain(ctx)
	}
}

// depth sums the workers' admission queues as their /readyz reports them.
func (f *fleetRig) depth() int {
	depth := 0
	for _, addr := range f.addrs {
		if resp, err := f.probe.Get("http://" + addr + "/readyz"); err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			depth += readyDepth(body)
		}
	}
	return depth
}

// sender posts a request through the router on client connection lane.
func (f *fleetRig) sender(rec *recorder, lk *links) func(lane int, c *call) {
	return func(lane int, c *call) {
		sp := rec.start(c.op, 0, "client.request")
		lk.set(c.op, "client.request", sp.id)
		defer rec.end(sp)
		req, err := http.NewRequest(http.MethodPost, f.url, bytes.NewReader(f.bodies.get(c.key)))
		if err != nil {
			c.err = err
			return
		}
		req.Header.Set("Content-Type", "application/json")
		// The router forwards the client's Idempotency-Key (it mints one
		// otherwise), which carries the operation id to the worker span.
		req.Header.Set("Idempotency-Key", fmt.Sprintf("bench-%d", c.op))
		resp, err := f.clients[lane].Do(req)
		if err != nil {
			c.err = err
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		c.lat = time.Since(c.due)
		if err != nil {
			c.err = err
			return
		}
		c.answer(resp.StatusCode, body, resp.Header.Get(cluster.AttemptsHeader))
	}
}

func runFleet(r *run) error {
	lk := &links{}
	f, closeFleet, err := setup(r, func() (*fleetRig, func(), error) { return startFleet(r, lk) })
	if err != nil {
		return err
	}
	all := r.drive(&f.service, closeFleet)
	if r.rec != nil {
		var attempts float64
		for _, c := range all {
			attempts += float64(c.attempts)
		}
		r.layers["cluster.attempts_per_req"] = attempts / float64(len(all))
	}
	return nil
}

// timedTransport records a serve.worker span around each forward the
// router makes, ending when the router has read the answer.
type timedTransport struct {
	rec  *recorder
	lk   *links
	base http.RoundTripper
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	op := opOf(req)
	sp := t.rec.start(op, t.lk.get(op, "cluster.route"), "serve.worker")
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.rec.end(sp)
		return nil, err
	}
	tag := cacheTag(resp.Header)
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() { t.rec.endTag(sp, tag) }}
	return resp, nil
}

// spanBody ends its span when the body is closed.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Close() error {
	b.once.Do(b.end)
	return b.ReadCloser.Close()
}
