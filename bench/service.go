package main

// Shared machinery of the two service workloads. A run has three
// open-loop phases and a closed-loop one:
//
//   - warm-up, low rate and high rate, open loop: each request has a due
//     time drawn from a seeded Poisson process and is timed from that due
//     time, so a stall also charges the requests queued behind it. The
//     warm-up is not measured. The low- and high-rate latencies are
//     printed as extras (p50_ms.low and so on).
//   - a closed loop: a fixed, seeded sequence of requests sent by a fixed
//     number of callers, each sending its next request as soon as the
//     previous one is answered. Its throughput and latency are the
//     end-to-end ops_per_s, p50_ms and p99_ms.
//
// The end-to-end metrics come from the closed loop because a closed loop
// offers a slow host less load: its latencies scale with the host's speed
// and can be scaled back. An open loop at a fixed rate queues up on a
// slow second instead, and on a shared 2-vCPU VM its percentiles moved by
// 15 to 100 percent from run to run, beyond any bound that would catch a
// regression.
//
// The rates are the load on the reference host (see speed.go). The
// open-loop phases run in chunks of serviceChunk; before each chunk the
// run reads the host's speed and stretches the chunk's due times by the
// speed read so far, so a host running at half the reference speed gets
// half the load.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cds"
	"cds/internal/conc"
	"cds/internal/scherr"
	"cds/internal/serve"
	"cds/internal/spec"
	"cds/internal/workloads"
)

// phases are the lengths of a service run's open-loop phases on the
// reference host. The closed loop takes the remaining half of the run.
type phases struct{ warm, low, high time.Duration }

// closedShare is the share of the run the closed loop's fixed work takes
// on the reference host.
const closedShare = 0.5

func phasesOf(d time.Duration) phases {
	share := func(f float64) time.Duration { return time.Duration(f * float64(d)) }
	return phases{warm: share(0.1), low: share(0.15), high: share(0.25)}
}

// service is a service workload's traffic and how to send it.
type service struct {
	ph              phases
	warm, low, high []*call
	closed          []*call
	bodies          *bodies // the request bodies by key; the rig picks their generator seed
	lanes           int     // client connections; 0 sends each open-loop request on its own goroutine
	callers         int     // closed-loop callers
	next            func() *call
	send            func(lane int, c *call)
	depth           func() int       // current admission queue depth
	check           func(*call) bool // the answers to recompute in-process
}

// draw lays out the phases from the seed and generates their request
// bodies: the open-loop phases at lowRate and highRate, then closedPerSec
// requests per second of the run for the closed loop.
func (s *service) draw(seed int64, d time.Duration, lowRate, highRate, closedPerSec float64) {
	rng := rand.New(rand.NewSource(seed))
	s.ph = phasesOf(d)
	s.warm = schedule(rng, lowRate, s.ph.warm, s.next)
	s.low = schedule(rng, lowRate, s.ph.low, s.next)
	s.high = schedule(rng, highRate, s.ph.high, s.next)
	s.closed = make([]*call, max(int(closedPerSec*d.Seconds()), 1))
	for i := range s.closed {
		s.closed[i] = s.next()
	}
	for _, phase := range [][]*call{s.warm, s.low, s.high, s.closed} {
		for _, c := range phase {
			s.bodies.get(c.key)
		}
	}
}

// drive runs the phases, stops the servers (stop may be nil), records the
// metrics and checks the answers. It returns every call made.
func (r *run) drive(s *service, stop func()) []*call {
	r.chunked(s.warm, s.lanes, s.send)
	var depth *poller
	if r.rec != nil {
		depth = poll(100*time.Millisecond, func() float64 { return float64(s.depth()) })
	}
	cache := markCache()
	w := startWindow()
	r.chunked(s.low, s.lanes, s.send)
	r.chunked(s.high, s.lanes, s.send)
	closed := r.closedPhase(s)
	measured := len(s.low) + len(s.high) + len(closed)
	w.stop(r, measured)
	cache.record(r, measured)
	if depth != nil {
		d := depth.halt()
		r.layers["serve.queue_depth_max"] = d[len(d)-1]
	}
	if stop != nil {
		stop()
	}

	r.recordService(s.low, s.high, closed)
	all := append(append(append(append([]*call(nil), s.warm...), s.low...), s.high...), closed...)
	keys := r.checkAnswers(all, s.bodies, s.check)
	if r.rec != nil {
		r.layersFromSpans()
		raw, inputs := sampleBodies(s.bodies, keys, 500)
		r.attributeParse(raw)
		r.attributeAllocs(context.Background(), inputs[:min(len(inputs), 100)])
	}
	return all
}

// call is one request of a service workload and what came back.
type call struct {
	op       int64
	key      int
	tenant   string
	off      time.Duration // due offset from the phase start
	due      time.Time
	late     time.Duration // how late the generator issued it
	lat      time.Duration // due time to complete answer
	status   int
	out      outcome
	attempts int
	err      error
}

// failed reports a transport error, a 5xx or a shed request. A 422 is a
// correct answer when the reference is infeasible, which the reference
// check decides.
func (c *call) failed() bool {
	return c.err != nil || c.status >= 500 || c.status == http.StatusTooManyRequests ||
		(c.status != http.StatusOK && c.status != http.StatusUnprocessableEntity)
}

// schedule lays out an open-loop phase: due offsets from the seeded rng,
// requests from next.
func schedule(rng *rand.Rand, rate float64, d time.Duration, next func() *call) []*call {
	var calls []*call
	for _, off := range arrivals(rng, rate, d) {
		c := next()
		c.off = off
		calls = append(calls, c)
	}
	return calls
}

// chunked runs an open-loop phase chunk by chunk: it reads the host's
// speed, then issues the calls due in the next serviceChunk of the phase,
// paced to the speed read so far, and waits for their answers.
func (r *run) chunked(calls []*call, lanes int, send func(lane int, c *call)) {
	for i := 0; i < len(calls); {
		base := calls[i].off.Truncate(serviceChunk)
		j := i
		for j < len(calls) && calls[j].off < base+serviceChunk {
			j++
		}
		r.speed.read(probeSlice)
		openLoop(calls[i:j], lanes, send, base, r.speed.scale())
		i = j
	}
}

// openLoop issues the calls at their due times: their offsets less base,
// divided by pace, counted from now. With lanes > 0 each call goes to one
// of that many senders (client connections); with lanes == 0 every call is
// sent on its own goroutine.
func openLoop(calls []*call, lanes int, send func(lane int, c *call), base time.Duration, pace float64) {
	start := time.Now()
	for _, c := range calls {
		c.due = start.Add(time.Duration(float64(c.off-base) / pace))
	}
	var wg sync.WaitGroup
	var queue chan *call
	if lanes > 0 {
		queue = make(chan *call, len(calls)) // one slot per call: the generator never blocks
		for l := 0; l < lanes; l++ {
			wg.Add(1)
			go func(l int) {
				defer wg.Done()
				for c := range queue {
					send(l, c)
				}
			}(l)
		}
	}
	for _, c := range calls {
		if d := time.Until(c.due); d > 0 {
			time.Sleep(d)
		}
		c.late = time.Since(c.due)
		if queue != nil {
			queue <- c
			continue
		}
		wg.Add(1)
		go func(c *call) {
			defer wg.Done()
			send(0, c)
		}(c)
	}
	if queue != nil {
		close(queue)
	}
	wg.Wait()
}

// closedPhase sends the closed loop's requests, s.callers at a time (lane
// l to caller l), and records the end-to-end throughput and latency. It
// runs in chunks of about probeEvery of work; between chunks the callers
// pause while the host's speed is read, and each chunk's time and
// latencies are scaled by the mean of the readings on either side of it.
// A host so slow that the phase
// overruns maxStretch times its nominal length cuts it short. It returns
// the calls made.
func (r *run) closedPhase(s *service) []*call {
	nominal := time.Duration(closedShare * float64(r.d))
	chunks := max(int(nominal/probeEvery), 1)
	n := len(s.closed)
	lat := make(samples, 0, n)
	raw := make(samples, 0, n)
	var busy, rawBusy time.Duration
	deadline := time.Now().Add(maxStretch * nominal)
	done := 0
	before := r.speed.read(probeSlice)
	for c := 0; c < chunks; c++ {
		if time.Now().After(deadline) {
			fmt.Fprintf(os.Stderr, "note: %s closed loop stopped after %d of %d requests, at %v\n", r.cfg.workload, done, n, maxStretch*nominal)
			break
		}
		lo, hi := c*n/chunks, (c+1)*n/chunks
		t0 := time.Now()
		var next atomic.Int64
		next.Store(int64(lo))
		var wg sync.WaitGroup
		for l := 0; l < s.callers; l++ {
			wg.Add(1)
			go func(l int) {
				defer wg.Done()
				for i := int(next.Add(1)) - 1; i < hi; i = int(next.Add(1)) - 1 {
					call := s.closed[i]
					call.due = time.Now()
					s.send(l, call)
				}
			}(l)
		}
		wg.Wait()
		d := time.Since(t0)
		after := r.speed.read(probeSlice)
		speed := (before + after) / 2
		before = after
		rawBusy += d
		busy += time.Duration(float64(d) * speed)
		for _, call := range s.closed[lo:hi] {
			if !call.failed() {
				raw = append(raw, call.lat)
				lat = append(lat, time.Duration(float64(call.lat)*speed))
			}
		}
		done = hi
	}
	r.e2e["ops_per_s"], r.raw["ops_per_s"] = float64(done)/busy.Seconds(), float64(done)/rawBusy.Seconds()
	r.e2e["p50_ms"], r.raw["p50_ms"] = lat.pct(0.5), raw.pct(0.5)
	r.e2e["p99_ms"], r.raw["p99_ms"] = lat.pct(0.99), raw.pct(0.99)
	r.tail(lat, "")
	return s.closed[:done]
}

// answer fills the call from a /v1/compare response.
func (c *call) answer(status int, body []byte, attempts string) {
	c.status = status
	c.attempts = 1
	if n, err := strconv.Atoi(attempts); err == nil {
		c.attempts = n
	}
	if status != http.StatusOK {
		return
	}
	var resp serve.CompareResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		c.err = fmt.Errorf("decoding answer: %w", err)
		return
	}
	c.out = outcome{
		Basic: resp.Basic.TotalCycles, DS: resp.DS.TotalCycles, CDS: resp.CDS.TotalCycles,
		RF: resp.RF, DT: resp.DTBytes, ImpDS: resp.DSImprovement, ImpCDS: resp.CDSImprovement,
		BasicErr: resp.Basic.Error, DSErr: resp.DS.Error, CDSErr: resp.CDS.Error,
	}
}

// expected is the answer the service owes a spec: what the uncached
// in-process facade computes, mapped onto the HTTP status the service
// gives it.
func expected(cmp *cds.Comparison, err error) (int, outcome) {
	usable := cmp != nil && cmp.Usable() && !errors.Is(err, scherr.ErrTransient) && !errors.Is(err, scherr.ErrCanceled)
	switch {
	case err == nil || usable:
		return http.StatusOK, outcomeOf(cmp)
	case errors.Is(err, scherr.ErrInfeasible):
		return http.StatusUnprocessableEntity, outcome{}
	}
	return http.StatusInternalServerError, outcome{}
}

// bodies generates /v1/compare request bodies for corpus points on demand
// and keeps them: a body is a workloads.GenSpec point as an embedded spec.
type bodies struct {
	seed int64
	mu   sync.Mutex
	m    map[int][]byte
}

func newBodies(seed int64) *bodies { return &bodies{seed: seed, m: map[int][]byte{}} }

func (b *bodies) get(key int) []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	if body, ok := b.m[key]; ok {
		return body
	}
	raw, err := json.Marshal(workloads.GenSpec(b.seed, key))
	if err != nil {
		panic(fmt.Sprintf("bench: marshaling a generated spec: %v", err)) // generated specs always marshal
	}
	body, err := json.Marshal(serve.CompareRequest{Spec: raw})
	if err != nil {
		panic(fmt.Sprintf("bench: marshaling a compare request: %v", err))
	}
	b.m[key] = body
	return body
}

// parse decodes the spec a body carries.
func parseBody(body []byte) (cds.Arch, *cds.Part, error) {
	var req serve.CompareRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return cds.Arch{}, nil, err
	}
	part, pa, err := spec.Parse(req.Spec)
	return pa, part, err
}

// samplesOf returns the latency samples of the calls that succeeded:
// failed requests count as missing any latency limit, so they are left out
// of the sample and counted in failed and error_ratio instead.
func samplesOf(calls []*call) samples {
	var s samples
	for _, c := range calls {
		if !c.failed() {
			s = append(s, c.lat)
		}
	}
	return s
}

// recordService counts the measured requests and their failures and
// records the open-loop phases' latencies as extras, scaled by the run's
// median host speed.
func (r *run) recordService(low, high, closed []*call) {
	all := append(append(append([]*call(nil), low...), high...), closed...)
	var failed, shed int64
	for _, c := range all {
		if c.failed() {
			failed++
			if c.status == http.StatusTooManyRequests {
				shed++
			}
		}
	}
	// A refused or failed request is a failed operation, not a wrong
	// answer: it is counted, and the checks judge only the answers.
	r.res.Attempted += int64(len(all))
	r.res.Failed += failed
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "note: %s: %d of %d requests failed (%d shed)\n", r.cfg.workload, failed, len(all), shed)
	}
	r.extra("error_ratio", ratio(failed, int64(len(all))), "failed/attempted")
	r.layers["serve.shed_ratio"] = ratio(shed, int64(len(all)))
	speed := r.speed.scale()
	for _, p := range []struct {
		name  string
		calls []*call
	}{{"low", low}, {"high", high}} {
		s := samplesOf(p.calls).scaledBy(speed)
		r.extra("p50_ms."+p.name, s.pct(0.5), "ms")
		r.extra("p99_ms."+p.name, s.pct(0.99), "ms")
		r.tail(s, "."+p.name)
	}
	var late []float64
	for _, c := range append(append([]*call(nil), low...), high...) {
		late = append(late, float64(c.late)/float64(time.Millisecond))
	}
	sort.Float64s(late)
	r.layers["harness.gen_late_p99_ms"] = percentile(late, 0.99)
	r.extra("gen_late_p99_ms", percentile(late, 0.99)*speed, "ms")
}

// cacheMark is a reading of the comparison cache's counters.
type cacheMark struct{ hits, evictions int64 }

func markCache() cacheMark {
	h, _, e := cds.ComparisonCacheStats()
	return cacheMark{h, e}
}

// record sets the result-cache metrics over requests answered since the
// mark. The hit ratio is hits per request: a served miss is counted twice
// by the cache itself (lookup, then compute), so hits/(hits+misses) would
// understate it.
func (m cacheMark) record(r *run, requests int) {
	now := markCache()
	r.layers["rescache.hit_ratio"] = ratio(now.hits-m.hits, int64(requests))
	r.layers["rescache.evictions_per_req"] = ratio(now.evictions-m.evictions, int64(requests))
}

// benchOpHeader carries the operation id to handlers the benchmark wraps
// directly; behind the router it travels in the Idempotency-Key.
const benchOpHeader = "X-Bench-Op"

// opOf reads the operation id of a request.
func opOf(r *http.Request) int64 {
	if v := r.Header.Get(benchOpHeader); v != "" {
		n, _ := strconv.ParseInt(v, 10, 64)
		return n
	}
	n, _ := strconv.ParseInt(strings.TrimPrefix(r.Header.Get("Idempotency-Key"), "bench-"), 10, 64)
	return n
}

// links remembers each operation's open span per layer, so a handler
// wrapped further down can name its parent.
type links struct{ m sync.Map }

type linkKey struct {
	op    int64
	layer string
}

func (l *links) set(op int64, layer string, id int64) { l.m.Store(linkKey{op, layer}, id) }

func (l *links) get(op int64, layer string) int64 {
	v, _ := l.m.Load(linkKey{op, layer})
	id, _ := v.(int64)
	return id
}

// traced wraps a handler in a span named name whose parent is the
// operation's span in the parent layer. The worker's span is tagged with
// its cache verdict from the Server-Timing header.
func traced(rec *recorder, lk *links, name, parent string, h http.Handler) http.Handler {
	if rec == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		op := opOf(req)
		sp := rec.start(op, lk.get(op, parent), name)
		lk.set(op, name, sp.id)
		h.ServeHTTP(w, req)
		rec.endTag(sp, cacheTag(w.Header()))
	})
}

// cacheTag is the result-cache verdict a worker reports in its
// Server-Timing header: hit, miss or peer.
func cacheTag(h http.Header) string {
	tag, _ := strings.CutPrefix(h.Get("Server-Timing"), "cache;desc=")
	return tag
}

// poller samples a reading every interval, and once more when started
// and when halted, until halted.
type poller struct {
	stop    chan struct{}
	done    chan struct{}
	read    func() float64
	samples []float64
}

func poll(every time.Duration, read func() float64) *poller {
	p := &poller{stop: make(chan struct{}), done: make(chan struct{}), read: read, samples: []float64{read()}}
	go func() {
		defer close(p.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				p.samples = append(p.samples, read())
			}
		}
	}()
	return p
}

// halt stops the poller and returns its samples, sorted.
func (p *poller) halt() []float64 {
	close(p.stop)
	<-p.done
	s := append(p.samples, p.read())
	sort.Float64s(s)
	return s
}

// readyDepth reads queue_depth from a /readyz answer.
func readyDepth(body []byte) int {
	var rz serve.ReadyzResponse
	if json.Unmarshal(body, &rz) != nil {
		return 0
	}
	return rz.QueueDepth
}

// attributeParse times spec.Parse over request bodies, serially.
func (r *run) attributeParse(bodies [][]byte) {
	var total time.Duration
	n := 0
	for _, body := range bodies {
		var req serve.CompareRequest
		if json.Unmarshal(body, &req) != nil {
			continue
		}
		t := time.Now()
		_, _, _ = spec.Parse(req.Spec) // timing only; answers are checked elsewhere
		total += time.Since(t)
		n++
	}
	r.layers["spec.parse_ms"] = mean(float64(total)/float64(time.Millisecond), n)
}

// sampleBodies returns up to n bodies, in key order, and their specs as
// comparison inputs.
func sampleBodies(b *bodies, keys []int, n int) ([][]byte, []compareInput) {
	sort.Ints(keys)
	if len(keys) > n {
		keys = keys[:n]
	}
	var raw [][]byte
	var inputs []compareInput
	for _, k := range keys {
		body := b.get(k)
		raw = append(raw, body)
		if pa, part, err := parseBody(body); err == nil {
			inputs = append(inputs, compareInput{pa, part})
		}
	}
	return raw, inputs
}

// checkAnswers checks the picked calls' answers: every answer for one key
// must be the same, and must equal what the uncached facade computes for
// that key in-process. It returns the keys checked.
func (r *run) checkAnswers(calls []*call, b *bodies, pick func(*call) bool) []int {
	first := map[int]*call{}
	for _, c := range calls {
		if c.failed() || !pick(c) {
			continue
		}
		f, ok := first[c.key]
		if !ok {
			first[c.key] = c
			continue
		}
		if f.status != c.status || f.out != c.out {
			r.failOp("key %d: answers differ between requests: %d %+v vs %d %+v", c.key, f.status, f.out, c.status, c.out)
		}
	}
	keys := make([]int, 0, len(first))
	for k := range first {
		keys = append(keys, k)
	}
	sort.Ints(keys)

	type reference struct {
		status int
		out    outcome
		err    error
	}
	refs := make([]reference, len(keys))
	prev := cds.SetResultCaching(false)
	ctx := context.Background()
	_ = conc.ForEach(ctx, procs, len(keys), func(i int) error { // jobs record their own errors
		pa, part, err := parseBody(b.get(keys[i]))
		if err != nil {
			refs[i].err = err
			return nil
		}
		cmp, err := cds.CompareAllCtx(ctx, pa, part)
		refs[i].status, refs[i].out = expected(cmp, err)
		return nil
	})
	cds.SetResultCaching(prev)
	for i, k := range keys {
		c, ref := first[k], refs[i]
		switch {
		case ref.err != nil:
			r.failOp("key %d: reference: %v", k, ref.err)
		case c.status != ref.status || c.out != ref.out:
			r.failOp("key %d: answered %d %+v, reference %d %+v", k, c.status, c.out, ref.status, ref.out)
		}
	}
	return keys
}
