package sim

import (
	"cmp"
	"fmt"
	"slices"

	"cds/internal/core"
	"cds/internal/trace"
)

// policy says when a visit's transfers may issue on the DMA channel.
type policy int8

const (
	// static issues as soon as the channel is free: the offline machine,
	// where every transfer is known up front.
	static policy = iota
	// online issues only after the lane's previous visit computed: the
	// serialized streaming baseline.
	online
	// prefetch is online, except that a visit whose FB set and context
	// words fit beside the executing visit issues under its compute
	// (Resano et al.'s hybrid prefetch).
	prefetch
)

// lane is one schedule the walk executes, plus the walk's per-lane
// output. The walk reads the schedule's execution order through its
// period (core.Period.At), so no lane expands its schedule.
type lane struct {
	s *core.Schedule
	// stream holds per-visit streaming inputs, parallel to the execution
	// order; nil means every visit is ready at cycle 0 with an empty
	// context working set.
	stream []StreamVisit
	// arrive is the first cycle any of the lane's transfers may issue.
	arrive int
	// oneSet maps every visit onto a single FB set: a machine without
	// the double buffer, where a visit's loads wait for the previous
	// visit's stores.
	oneSet bool

	// res accumulates the lane's traffic, stalls and visit intervals;
	// its TotalCycles is left to the caller.
	res Result
	// done is the cycle the lane's last compute or store finished.
	done int
	// walked counts the lane's visits the walk ran; it fast-forwarded
	// through the rest.
	walked int
}

// newLane returns the lane of s.
func newLane(s *core.Schedule) lane {
	n := s.NumVisits()
	// One array holds both interval lists.
	iv := make([]int, 2*n)
	return lane{s: s, res: Result{VisitStart: iv[:n:n], VisitEnd: iv[n:]}}
}

// checkSchedule rejects a nil schedule or an invalid machine.
func checkSchedule(s *core.Schedule) error {
	if s == nil {
		return fmt.Errorf("sim: nil schedule")
	}
	return s.Arch.Validate()
}

// walkOne walks a single lane over all its visits and returns its
// result.
func walkOne(l lane, pol policy, rec *trace.Recorder) *Result {
	lanes := []lane{l}
	total := walk(lanes, []TenantSlice{{N: l.s.NumVisits()}}, pol, rec, nil)
	lanes[0].res.TotalCycles = total
	return &lanes[0].res
}

func (l *lane) streamVisit(vi int) StreamVisit {
	if l.stream == nil {
		return StreamVisit{}
	}
	return l.stream[vi]
}

// pending is a visit whose stores have not drained yet; at most one per
// (lane, FB set). v is the visit, visit its index in the lane's
// execution order and block its block number there.
type pending struct {
	lane, set, visit, block, end int
	v                            *core.Visit
}

// machine is the walk's state: one DMA channel, one RC array and the
// pending stores of every lane.
type machine struct {
	lanes []lane
	pol   policy
	rec   *trace.Recorder
	// stores holds the pending stores, at most one per (lane, FB set).
	// It is sized up front (newMachine) and only resliced, so a small
	// one stays on its caller's stack.
	stores          []pending
	dmaFree, rcFree int
}

// newMachine returns a machine for the lanes whose pending stores live
// in buf when they fit.
func newMachine(lanes []lane, pol policy, rec *trace.Recorder, buf []pending) machine {
	n := 0
	for i := range lanes {
		if lanes[i].oneSet {
			n++
			continue
		}
		sets := 0
		for _, v := range lanes[i].s.Period().Visits {
			sets = max(sets, v.Set+1)
		}
		n += sets
	}
	if n > cap(buf) {
		buf = make([]pending, 0, n)
	}
	return machine{lanes: lanes, pol: pol, rec: rec, stores: buf[:0]}
}

// drain issues q's stores once the channel frees and q's compute ends.
func (m *machine) drain(q pending) {
	l := &m.lanes[q.lane]
	v := q.v
	start := max(m.dmaFree, q.end)
	for _, mv := range v.Stores {
		cost := l.s.Arch.DataCycles(mv.Bytes)
		m.rec.Span(trace.Span{
			Resource: trace.DMA, Kind: trace.KindStore, Name: mv.Datum,
			Start: start, End: start + cost,
			Cluster: v.Cluster, Block: q.block, Visit: q.visit, Set: v.Set,
			Bytes: mv.Bytes,
		})
		start += cost
		l.res.DataCycles += cost
		l.res.StoreBytes += mv.Bytes
	}
	m.dmaFree = start
	l.done = max(l.done, start)
}

// visit runs visit vi of lane li, v in block block, after prev (nil for
// the lane's first visit), and returns the cycle its transfers issued:
// it drains the stores pending on its FB set, issues its context burst
// and its loads, and computes.
func (m *machine) visit(li, vi int, v *core.Visit, block int, prev *core.Visit) int {
	l := &m.lanes[li]
	l.walked++
	p := l.s.Arch
	set := v.Set
	if l.oneSet {
		set = 0
	}
	pi := slices.IndexFunc(m.stores, func(q pending) bool { return q.lane == li && q.set == set })
	if pi >= 0 {
		m.drain(m.stores[pi])
	}

	issue := max(m.dmaFree, l.arrive, l.streamVisit(vi).Ready)
	prefetched := false
	if prev != nil && m.pol != static {
		prevEnd := l.res.VisitEnd[vi-1]
		hoist := m.pol == prefetch && v.Set != prev.Set &&
			v.CtxWords+l.streamVisit(vi-1).GroupWords <= p.CMWords
		if !hoist {
			issue = max(issue, prevEnd)
		}
		prefetched = hoist && issue < prevEnd
	}

	ctxCost := p.ContextCycles(v.CtxWords)
	kind := trace.KindContext
	if prefetched && ctxCost > 0 {
		kind = trace.KindPrefetch
		l.res.PrefetchCycles += ctxCost
		l.res.PrefetchCount++
	}
	m.rec.Span(trace.Span{
		Resource: trace.DMA, Kind: kind,
		Start: issue, End: issue + ctxCost,
		Cluster: v.Cluster, Block: block, Visit: vi, Set: v.Set,
		Words: v.CtxWords,
	})
	l.res.CtxCycles += ctxCost
	l.res.CtxWords += v.CtxWords
	m.dmaFree = issue + ctxCost
	for _, mv := range v.Loads {
		cost := p.DataCycles(mv.Bytes)
		m.rec.Span(trace.Span{
			Resource: trace.DMA, Kind: trace.KindLoad, Name: mv.Datum,
			Start: m.dmaFree, End: m.dmaFree + cost,
			Cluster: v.Cluster, Block: block, Visit: vi, Set: v.Set,
			Bytes: mv.Bytes,
		})
		m.dmaFree += cost
		l.res.DataCycles += cost
		l.res.LoadBytes += mv.Bytes
	}

	start := max(m.dmaFree, m.rcFree)
	l.res.StallCycles += start - m.rcFree
	m.rcFree = start + v.ComputeCycles
	l.res.VisitStart[vi] = start
	l.res.VisitEnd[vi] = m.rcFree
	l.res.ComputeCycles += v.ComputeCycles
	l.done = max(l.done, m.rcFree)
	m.rec.Span(trace.Span{
		Resource: trace.RCArray, Kind: trace.KindCompute,
		Start: start, End: m.rcFree,
		Cluster: v.Cluster, Block: block, Visit: vi, Set: v.Set,
	})
	if m.rec != nil && prev != nil && v.Set != prev.Set {
		m.rec.Mark(trace.Mark{
			Kind: trace.MarkFBSwitch, Cycle: start, Visit: vi,
			Name: switchLabel(prev.Set, v.Set),
		})
	}

	if pi < 0 {
		pi = len(m.stores)
		m.stores = m.stores[:pi+1]
	}
	m.stores[pi] = pending{li, set, vi, block, m.rcFree, v}
	return issue
}

// finish drains the trailing stores, oldest compute first, and returns
// the makespan.
func (m *machine) finish() int {
	slices.SortFunc(m.stores, func(a, b pending) int {
		return cmp.Or(cmp.Compare(a.end, b.end), cmp.Compare(a.lane, b.lane), cmp.Compare(a.visit, b.visit))
	})
	for _, q := range m.stores {
		m.drain(q)
	}
	return max(m.rcFree, m.dmaFree)
}

// walk is the machine model (see the package comment). It executes the
// slices of order, each a run of one lane's visits, on one DMA channel
// and one RC array, and returns the makespan. Each visit:
//
//  1. drains the stores of the lane's previous visit on its FB set,
//     which cannot start before that visit's compute ends;
//  2. issues its context burst and then its data loads, no earlier than
//     the channel frees, the lane arrives, the visit is ready, and what
//     the policy allows;
//  3. computes once its loads are done and the array is free.
//
// Trailing stores drain last, oldest compute first. Lanes never share
// FB sets: tenant quotas partition the Frame Buffer. When sliceStart is
// non-nil, sliceStart[si] receives the cycle slice si's first transfer
// issued. A nil rec records nothing and costs nothing. A static,
// unrecorded walk of one lane in one slice fast-forwards through the
// steady runs of its period that repeat (skip).
func walk(lanes []lane, order []TenantSlice, pol policy, rec *trace.Recorder, sliceStart []int) int {
	var buf [8]pending
	m := newMachine(lanes, pol, rec, buf[:])
	// ff is set when the walk may fast-forward; st holds the states at
	// the start of the last two steady runs.
	ff := pol == static && rec == nil && len(lanes) == 1 && len(order) == 1
	var st [2]runState
	for si, sl := range order {
		l := &lanes[sl.Lane]
		per := l.s.Period()
		var prev *core.Visit
		if sl.First > 0 {
			pj, _ := per.At(sl.First - 1)
			prev = &per.Visits[pj]
		}
		for vi, end := sl.First, sl.First+sl.N; vi < end; vi++ {
			j, run := per.At(vi)
			if ff && j == per.Lead && per.Len > 0 {
				if n := m.skip(l, &per, &st, vi, run); n > 0 {
					if vi += n; vi == end {
						break
					}
					j, run = per.At(vi)
					prev = &per.Visits[per.Lead+per.Len-1]
				}
			}
			v := &per.Visits[j]
			issue := m.visit(sl.Lane, vi, v, v.Block+run, prev)
			if sliceStart != nil && vi == sl.First {
				sliceStart[si] = issue
			}
			prev = v
		}
	}
	return m.finish()
}

// skip is the fast-forward step of the walk at visit vi of lane l, the
// first of steady run k of the lane's period per. It records the machine
// state at the run's start in st; when that state equals the state at
// the start of the previous run, taken relative to each run's start,
// every later run repeats the previous one shifted by the same number of
// cycles. It then fast-forwards through the runs left and returns the
// number of visits skipped.
func (m *machine) skip(l *lane, per *core.Period, st *[2]runState, vi, k int) int {
	cur, last := &st[k%2], &st[(k+1)%2]
	cur.take(m, l, vi)
	if k == 0 || !cur.repeats(last) {
		return 0
	}
	n := per.Repeat - k
	m.fastForward(l, last, cur, vi, per.Len, n)
	return n * per.Len
}

// runState is the machine state at the start of one steady run: the
// clocks and pending stores relative to rc, the RC-free cycle then, and
// the lane's counts so far. ok is false when the pending stores do not
// fit, and then the state never repeats.
type runState struct {
	rc, dma, done int
	stores        [8]pending
	n             int
	ok            bool
	res           Result
}

// take records the state at the start of the run whose first visit is
// base.
func (r *runState) take(m *machine, l *lane, base int) {
	r.rc, r.dma, r.done = m.rcFree, m.dmaFree-m.rcFree, l.done-m.rcFree
	r.ok = len(m.stores) <= len(r.stores)
	r.n = 0
	if r.ok {
		r.n = copy(r.stores[:], m.stores)
		for i := range r.n {
			r.stores[i].end -= m.rcFree
			r.stores[i].visit -= base
		}
	}
	r.res = l.res
}

// repeats reports whether the state equals prev relative to each run's
// start. A pending visit counts by what its drain does: its set and its
// stores.
func (r *runState) repeats(prev *runState) bool {
	if !r.ok || !prev.ok || r.n != prev.n || r.dma != prev.dma || r.done != prev.done {
		return false
	}
	for i := range r.n {
		a, b := &r.stores[i], &prev.stores[i]
		if a.lane != b.lane || a.set != b.set || a.visit != b.visit || a.end != b.end ||
			(a.v != b.v && !slices.Equal(a.v.Stores, b.v.Stores)) {
			return false
		}
	}
	return true
}

// fastForward skips the runs left, n runs of size visits from base, each
// the run before base shifted: its start state last, base's cur.
func (m *machine) fastForward(l *lane, last, cur *runState, base, size, n int) {
	d := cur.rc - last.rc
	from := base - size
	for k := 1; k <= n; k++ {
		for j := range size {
			l.res.VisitStart[base+(k-1)*size+j] = l.res.VisitStart[from+j] + k*d
			l.res.VisitEnd[base+(k-1)*size+j] = l.res.VisitEnd[from+j] + k*d
		}
	}
	r, a, b := &l.res, &cur.res, &last.res
	r.ComputeCycles += n * (a.ComputeCycles - b.ComputeCycles)
	r.DataCycles += n * (a.DataCycles - b.DataCycles)
	r.CtxCycles += n * (a.CtxCycles - b.CtxCycles)
	r.StallCycles += n * (a.StallCycles - b.StallCycles)
	r.LoadBytes += n * (a.LoadBytes - b.LoadBytes)
	r.StoreBytes += n * (a.StoreBytes - b.StoreBytes)
	r.CtxWords += n * (a.CtxWords - b.CtxWords)
	m.rcFree += n * d
	m.dmaFree += n * d
	l.done += n * d
	for i := range m.stores {
		m.stores[i].end += n * d
		m.stores[i].visit += n * size
		m.stores[i].block += n
	}
}

// switchLabel names an FB set switch mark. The two-set machine's labels
// are constants, so recording them allocates nothing.
func switchLabel(from, to int) string {
	switch {
	case from == 0 && to == 1:
		return "set 0 -> 1"
	case from == 1 && to == 0:
		return "set 1 -> 0"
	}
	return fmt.Sprintf("set %d -> %d", from, to)
}
