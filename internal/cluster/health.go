package cluster

// Fleet membership and health. Every worker gets its own jittered probe
// loop against the worker's truthful /readyz, and its own
// internal/retry breaker as the ejection state machine:
//
//	probe ok (ready/saturated)  -> Record(true)   (closed = in the ring)
//	probe fails / connect error -> Record(false)  (threshold opens = ejected)
//	breaker open                -> skip probes until the cooldown admits
//	                               a half-open probe; one success readmits
//
// "Draining" is deliberately NOT a breaker failure: a worker answering
// readyz 503/"draining" is healthy and finishing its in-flight work —
// it leaves the routing candidates immediately but keeps its breaker
// closed, so a restart on the same address readmits it on the first
// successful probe with no cooldown penalty.
//
// "Saturated" (503 with a full admission queue) keeps the worker in the
// ring: it is alive and truthfully shedding; routing away from it would
// move the overload to its neighbors and flap the ring. The router
// relays its 429/503 answers instead.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"cds/internal/retry"
	"cds/internal/serve"
)

// FleetConfig parameterizes fleet health tracking.
type FleetConfig struct {
	// Workers is the initial membership (-workers flag or the first read
	// of -workers-file); SetMembers replaces it at runtime.
	Workers []Member
	// Vnodes per member on the ring (DefaultVnodes when <= 0).
	Vnodes int
	// ProbeInterval is the mean time between readyz probes per worker
	// (default 500ms); each wait is jittered to half..full interval so a
	// fleet's probes do not phase-lock.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe HTTP call (default 1s).
	ProbeTimeout time.Duration
	// EjectThreshold is how many consecutive failed probes (or reported
	// forward failures) eject a worker (default 3).
	EjectThreshold int
	// ReadmitCooldown is how long an ejected worker waits before a
	// half-open readmission probe (default 2s).
	ReadmitCooldown time.Duration
	// Seed makes the probe jitter deterministic.
	Seed int64
	// HTTP substitutes the probe transport (tests); nil builds a client
	// with ProbeTimeout.
	HTTP *http.Client
	// Logf observes state transitions; nil disables.
	Logf func(format string, args ...any)
}

func (c FleetConfig) withDefaults() FleetConfig {
	if c.Vnodes <= 0 {
		c.Vnodes = DefaultVnodes
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.EjectThreshold <= 0 {
		c.EjectThreshold = 3
	}
	if c.ReadmitCooldown <= 0 {
		c.ReadmitCooldown = 2 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// workerState is one member's health record.
type workerState struct {
	// member is atomic because a probe loop reads the address while
	// SetMembers may be swapping it (a kept worker that moved ports).
	member   atomic.Pointer[Member]
	br       *retry.Breaker
	draining atomic.Bool
	// lastPID/lastUptimeMS snapshot the worker's most recent identity
	// report (surfaced on /v1/ring; oracles use PID flips to prove a
	// restart happened).
	lastPID      atomic.Int64
	lastUptimeMS atomic.Int64
	// stop closes when the member leaves the fleet (SetMembers removal),
	// ending its probe loop without touching the others.
	stop chan struct{}
}

// Fleet tracks a worker set's health and owns the routing ring. The
// membership is dynamic: SetMembers swaps in a new worker list (the
// router's -workers-file + SIGHUP reload), starting probe loops for
// joiners and stopping them for leavers, while kept workers carry their
// breaker state across the change. Construct with NewFleet, then Start
// the probe loops; Stop before discarding.
type Fleet struct {
	cfg  FleetConfig
	http *http.Client
	stop chan struct{}
	wg   sync.WaitGroup

	// mu guards the membership view: the member list, the ring built
	// from it, and the health-state map. Probe loops and request paths
	// read under RLock; only SetMembers writes.
	mu      sync.RWMutex
	members []Member
	ring    *Ring
	workers map[string]*workerState
	started bool
	// laneSeq deals each probe loop (including late joiners) a distinct
	// jitter stream.
	laneSeq int64
}

// NewFleet builds the fleet state (no probes yet; call Start).
func NewFleet(cfg FleetConfig) *Fleet {
	cfg = cfg.withDefaults()
	h := cfg.HTTP
	if h == nil {
		h = &http.Client{Timeout: cfg.ProbeTimeout}
	}
	f := &Fleet{
		cfg:     cfg,
		http:    h,
		stop:    make(chan struct{}),
		workers: map[string]*workerState{},
		ring:    NewRing(cfg.Vnodes),
	}
	f.SetMembers(cfg.Workers)
	return f
}

// Ring exposes the current consistent-hash ring.
func (f *Fleet) Ring() *Ring {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.ring
}

// Members returns the current membership in configuration order.
func (f *Fleet) Members() []Member {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return append([]Member(nil), f.members...)
}

// Start launches one probe goroutine per current worker. Each loop
// probes immediately, so the fleet view converges within one probe
// round of startup. Workers joining later (SetMembers) get their loops
// started on arrival.
func (f *Fleet) Start() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.started {
		return
	}
	f.started = true
	for _, m := range f.members {
		f.startProbe(f.workers[m.ID])
	}
}

// startProbe (mu held) launches one worker's probe loop.
func (f *Fleet) startProbe(st *workerState) {
	rng := newJitter(f.cfg.Seed, f.laneSeq)
	f.laneSeq++
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		for {
			f.probe(st)
			// Jitter to [interval/2, interval): steady cadence, no
			// phase lock across workers.
			d := f.cfg.ProbeInterval/2 + time.Duration(rng.next()%uint64(f.cfg.ProbeInterval/2+1))
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-st.stop:
				t.Stop()
				return
			case <-f.stop:
				t.Stop()
				return
			}
		}
	}()
}

// SetMembers replaces the fleet membership. Kept workers (matched by
// ID) carry their breaker and drain state — and their running probe
// loop — across the change, with only their address updated; removed
// workers' probe loops stop; added workers start fresh (and, once Start
// has run, probing immediately). The ring rebuilds from the new ID set,
// so only the keys owned by leavers move. Returns the joined and left
// worker IDs.
func (f *Fleet) SetMembers(members []Member) (added, removed []string) {
	f.mu.Lock()
	keep := make(map[string]bool, len(members))
	ids := make([]string, len(members))
	for i, m := range members {
		keep[m.ID] = true
		ids[i] = m.ID
		m := m
		if st, ok := f.workers[m.ID]; ok {
			st.member.Store(&m) // the address may have moved
			continue
		}
		st := &workerState{
			br:   retry.NewBreaker(f.cfg.EjectThreshold, f.cfg.ReadmitCooldown, nil),
			stop: make(chan struct{}),
		}
		st.member.Store(&m)
		f.workers[m.ID] = st
		added = append(added, m.ID)
		if f.started {
			f.startProbe(st)
		}
	}
	for id, st := range f.workers {
		if !keep[id] {
			close(st.stop)
			delete(f.workers, id)
			removed = append(removed, id)
		}
	}
	f.members = append([]Member(nil), members...)
	f.ring = NewRing(f.cfg.Vnodes, ids...)
	f.mu.Unlock()
	for _, id := range added {
		f.cfg.Logf("cluster: worker %s joined the fleet", id)
	}
	for _, id := range removed {
		f.cfg.Logf("cluster: worker %s left the fleet", id)
	}
	return added, removed
}

// ReloadMembersFile re-reads a members file (LoadMembersFile) and swaps
// it in with SetMembers — schedrouter's SIGHUP handler. A file that
// fails to load keeps the current membership: a half-edited file must
// never empty the fleet.
func (f *Fleet) ReloadMembersFile(path string) {
	members, err := LoadMembersFile(path)
	if err != nil {
		f.cfg.Logf("cluster: reload %s: %v (keeping %d workers)", path, err, len(f.Members()))
		return
	}
	added, removed := f.SetMembers(members)
	f.cfg.Logf("cluster: reloaded %s: %d workers (+%d -%d)", path, len(members), len(added), len(removed))
}

// Stop terminates the probe loops and waits for them.
func (f *Fleet) Stop() {
	close(f.stop)
	f.wg.Wait()
}

// probe runs one readyz check against a worker, paced by its breaker:
// an open circuit (ejected worker mid-cooldown) skips the HTTP call
// entirely; the half-open probe the cooldown admits is the readmission
// check.
func (f *Fleet) probe(st *workerState) {
	if err := st.br.Allow(); err != nil {
		return // ejected, cooldown still running
	}
	m := st.member.Load()
	ctx, cancel := context.WithTimeout(context.Background(), f.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+m.Addr+"/readyz", nil)
	if err != nil {
		st.br.Abort()
		return
	}
	resp, err := f.http.Do(req)
	if err != nil {
		wasIn := st.br.State() == retry.Closed
		st.br.Record(false)
		if wasIn && st.br.State() == retry.Open {
			f.cfg.Logf("cluster: worker %s ejected (probe: %v)", m.ID, err)
		}
		return
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	resp.Body.Close()
	var rz serve.ReadyzResponse
	_ = json.Unmarshal(body, &rz)
	if rz.PID > 0 {
		st.lastPID.Store(int64(rz.PID))
		st.lastUptimeMS.Store(rz.UptimeMS)
	}

	wasDraining, wasOut := st.draining.Load(), st.br.State() != retry.Closed
	switch {
	case resp.StatusCode == http.StatusOK:
		st.draining.Store(false)
		st.br.Record(true)
	case rz.Status == "draining":
		// Healthy but leaving: out of the candidates, breaker untouched
		// closed so the restarted worker readmits instantly.
		st.draining.Store(true)
		st.br.Record(true)
	case rz.Status == "saturated":
		// Alive and truthfully shedding: stays in the ring.
		st.draining.Store(false)
		st.br.Record(true)
	default:
		// A 503 with no recognizable story, or any other status: count
		// against health like a failed probe.
		st.br.Record(false)
	}
	if wasOut && st.br.State() == retry.Closed {
		f.cfg.Logf("cluster: worker %s readmitted (pid %d)", m.ID, rz.PID)
	}
	if !wasDraining && st.draining.Load() {
		f.cfg.Logf("cluster: worker %s draining, removed from candidates", m.ID)
	}
}

// ReportForwardFailure records a forwarding transport failure against a
// worker's breaker, so a dead worker is ejected after threshold real
// requests even between probe ticks.
func (f *Fleet) ReportForwardFailure(id string) {
	f.mu.RLock()
	st, ok := f.workers[id]
	f.mu.RUnlock()
	if !ok {
		return
	}
	wasIn := st.br.State() == retry.Closed
	st.br.Record(false)
	if wasIn && st.br.State() == retry.Open {
		f.cfg.Logf("cluster: worker %s ejected (forward failures)", id)
	}
}

// eligible reports whether a worker is a routing candidate: breaker
// closed (healthy) and not draining.
func (f *Fleet) eligible(id string) bool {
	f.mu.RLock()
	st, ok := f.workers[id]
	f.mu.RUnlock()
	return ok && st.br.State() == retry.Closed && !st.draining.Load()
}

// Addr returns a member's address.
func (f *Fleet) Addr(id string) (string, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	st, ok := f.workers[id]
	if !ok {
		return "", false
	}
	return st.member.Load().Addr, true
}

// Candidates returns up to max eligible workers for key, in ring walk
// order (owner first). When NO worker is eligible the full walk is
// returned instead: with the whole fleet ejected, trying a possibly
// recovered worker beats refusing outright — the forward itself is the
// cheapest possible probe.
func (f *Fleet) Candidates(key []byte, max int) []string {
	walk := f.Ring().Lookup(key, 0)
	var out []string
	for _, id := range walk {
		if f.eligible(id) {
			out = append(out, id)
		}
	}
	if out == nil {
		out = walk
	}
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}

// EligibleCount reports how many workers are currently routing
// candidates (router readiness).
func (f *Fleet) EligibleCount() int {
	f.mu.RLock()
	states := make([]*workerState, 0, len(f.workers))
	for _, st := range f.workers {
		states = append(states, st)
	}
	f.mu.RUnlock()
	n := 0
	for _, st := range states {
		if st.br.State() == retry.Closed && !st.draining.Load() {
			n++
		}
	}
	return n
}

// WorkerStatus is one member's row in a fleet snapshot (/v1/ring).
type WorkerStatus struct {
	ID       string `json:"id"`
	Addr     string `json:"addr"`
	State    string `json:"state"` // ready | draining | ejected
	PID      int    `json:"pid,omitempty"`
	UptimeMS int64  `json:"uptime_ms,omitempty"`
}

// RingStatus is the /v1/ring answer: membership, health, and ring
// geometry.
type RingStatus struct {
	Vnodes   int            `json:"vnodes"`
	Eligible int            `json:"eligible"`
	Workers  []WorkerStatus `json:"workers"`
}

// Snapshot reports every member's current state, in membership order.
func (f *Fleet) Snapshot() RingStatus {
	out := RingStatus{Vnodes: f.cfg.Vnodes, Eligible: f.EligibleCount()}
	f.mu.RLock()
	members := append([]Member(nil), f.members...)
	states := make([]*workerState, len(members))
	for i, m := range members {
		states[i] = f.workers[m.ID]
	}
	f.mu.RUnlock()
	for i, m := range members {
		st := states[i]
		ws := WorkerStatus{
			ID:       m.ID,
			Addr:     m.Addr,
			State:    "ready",
			PID:      int(st.lastPID.Load()),
			UptimeMS: st.lastUptimeMS.Load(),
		}
		switch {
		case st.draining.Load():
			ws.State = "draining"
		case st.br.State() != retry.Closed:
			ws.State = "ejected"
		}
		out.Workers = append(out.Workers, ws)
	}
	return out
}

// jitter is a tiny seeded xorshift64* used only for probe spacing.
type jitter struct{ s uint64 }

func newJitter(seed, lane int64) *jitter {
	s := uint64(seed)*0x9e3779b97f4a7c15 + uint64(lane)*0xbf58476d1ce4e5b9 + 0x2545f4914f6cdd1d
	return &jitter{s: s}
}

func (j *jitter) next() uint64 {
	j.s ^= j.s << 13
	j.s ^= j.s >> 7
	j.s ^= j.s << 17
	return j.s * 0x2545f4914f6cdd1d
}
