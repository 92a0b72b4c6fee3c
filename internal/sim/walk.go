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
// output.
type lane struct {
	s *core.Schedule
	// visits is the schedule's execution order: its explicit list, or
	// its expansion (core.Schedule.Visits). A lane of the period walk
	// (walkPeriod) leaves it nil.
	visits []core.Visit
	// stream holds per-visit streaming inputs, parallel to visits; nil
	// means every visit is ready at cycle 0 with an empty context
	// working set.
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
}

// newLane returns the lane of s, its visits expanded when expand is set.
func newLane(s *core.Schedule, expand bool) lane {
	n := s.NumVisits()
	// One array holds both interval lists.
	iv := make([]int, 2*n)
	l := lane{s: s, res: Result{VisitStart: iv[:n:n], VisitEnd: iv[n:]}}
	if expand {
		l.visits = explicitVisits(s)
	}
	return l
}

// explicitVisits returns the execution order of s: its stored list when
// that is explicit, else a fresh expansion.
func explicitVisits(s *core.Schedule) []core.Visit {
	if per := s.Period(); per.Len == 0 {
		return per.Visits
	}
	return s.Visits()
}

// checkSchedule rejects a nil schedule or an invalid machine.
func checkSchedule(s *core.Schedule) error {
	if s == nil {
		return fmt.Errorf("sim: nil schedule")
	}
	return s.Arch.Validate()
}

// walkOne walks a single expanded lane over all its visits and returns
// its result.
func walkOne(l lane, pol policy, rec *trace.Recorder) *Result {
	lanes := []lane{l}
	total := walk(lanes, []TenantSlice{{N: len(l.visits)}}, pol, rec, nil)
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
// execution order.
type pending struct {
	lane, set, visit, end int
	v                     *core.Visit
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
	// walked counts the visits run.
	walked int
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
			Cluster: v.Cluster, Block: v.Block, Visit: q.visit, Set: v.Set,
			Bytes: mv.Bytes,
		})
		start += cost
		l.res.DataCycles += cost
		l.res.StoreBytes += mv.Bytes
	}
	m.dmaFree = start
	l.done = max(l.done, start)
}

// visit runs visit vi of lane li, v, after prev (nil for the lane's
// first visit), and returns the cycle its transfers issued: it drains
// the stores pending on its FB set, issues its context burst and its
// loads, and computes.
func (m *machine) visit(li, vi int, v, prev *core.Visit) int {
	m.walked++
	l := &m.lanes[li]
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
		Cluster: v.Cluster, Block: v.Block, Visit: vi, Set: v.Set,
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
			Cluster: v.Cluster, Block: v.Block, Visit: vi, Set: v.Set,
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
		Cluster: v.Cluster, Block: v.Block, Visit: vi, Set: v.Set,
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
	m.stores[pi] = pending{li, set, vi, m.rcFree, v}
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
// issued. A nil rec records nothing and costs nothing.
func walk(lanes []lane, order []TenantSlice, pol policy, rec *trace.Recorder, sliceStart []int) int {
	var buf [8]pending
	m := newMachine(lanes, pol, rec, buf[:])
	for si, sl := range order {
		vs := lanes[sl.Lane].visits
		for vi := sl.First; vi < sl.First+sl.N; vi++ {
			var prev *core.Visit
			if vi > 0 {
				prev = &vs[vi-1]
			}
			issue := m.visit(sl.Lane, vi, &vs[vi], prev)
			if sliceStart != nil && vi == sl.First {
				sliceStart[si] = issue
			}
		}
	}
	return m.finish()
}

// walkPeriod is walk for one lane on the static machine, unrecorded, over
// the schedule's period (core.Period) instead of its expansion, and
// returns the result. The machine's behavior from a state depends on
// that state only relative to the clock: every step is a max or a sum of
// cycles, and the static machine has no absolute ready time. So once the
// state at the start of a steady run equals the state at the start of
// the previous one, taken relative to each run's start, every later run
// repeats the previous one shifted by the same number of cycles, and the
// walk fast-forwards through them: it shifts the clocks and the pending
// stores, adds the previous run's counts once per run skipped and fills
// their visit intervals by offset. It also returns the number of visits
// it ran.
func walkPeriod(l lane) (*Result, int) {
	var buf [8]pending
	lanes := []lane{l}
	m := newMachine(lanes, static, nil, buf[:])
	ln := &lanes[0]
	per := l.s.Period()
	vs := per.Visits
	var prev *core.Visit
	step := func(vi int, v *core.Visit) {
		m.visit(0, vi, v, prev)
		prev = v
	}
	if per.Len == 0 {
		per.Lead, per.Repeat = len(vs), 1 // explicit: all of it leads
	}
	for i := range per.Lead {
		step(i, &vs[i])
	}
	steady := vs[per.Lead : per.Lead+per.Len]
	// st holds the states at the start of the current run and the one
	// before it.
	var st [2]runState
	for k := 0; k < per.Repeat; k++ {
		base := per.Lead + k*per.Len
		cur, last := &st[k%2], &st[(k+1)%2]
		cur.take(&m, ln, base)
		if k > 0 && cur.repeats(last) {
			m.fastForward(ln, last, cur, base, per.Len, per.Repeat-k)
			break
		}
		for j := range steady {
			step(base+j, &steady[j])
		}
	}
	off := (per.Repeat - 1) * per.Len
	for i := per.Lead + per.Len; i < len(vs); i++ {
		step(i+off, &vs[i])
	}
	ln.res.TotalCycles = m.finish()
	return &ln.res, m.walked
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
