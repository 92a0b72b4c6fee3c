package core

import "fmt"

// Replay walks an allocation report in the schedule's execution order,
// the order of the paper's Figures 4 and 5. The replay emits each
// visit's events as one contiguous run, in visit order, in three phases:
// pre-visit placements (Kernel -1, Iter -1); then kernel by kernel (loop
// fission) each iteration's step, its placements before the kernel runs
// and its releases after; then end-of-visit releases (Kernel -1, Iter >=
// 0), after the visit's stores. The walk keeps which instance is live on
// which FB set, keyed by each event's Inst, and resolves a read to the
// reader's own set or else the lowest set the instance is live on. The
// verifier's liveness check and the functional machine both run on it.
type Replay struct {
	s   *Schedule
	rep *AllocationReport
	// Inst keys the schedule's instances.
	Inst Instances
	// Sets is one more than the largest set a visit or event names.
	Sets int
	// live[set*Inst.Len()+key] is the stored index (into the report's
	// Events) of the event that placed the instance on the set, or -1;
	// nLive counts the placed instances.
	live  []int32
	nLive int
}

// ReplayHooks are the walk's callbacks, all required. A hook's error
// stops the walk and is returned as it is.
type ReplayHooks struct {
	// Event fires for each event of visit vi once the live table has
	// applied it. slot is the event's table slot (Slot); load is true
	// for a placement the visit fills from external memory, one of a
	// datum among the visit's Loads.
	Event func(vi, slot int, ev *AllocEvent, load bool) error
	// Step fires for each iteration iter of each kernel of visit vi, in
	// execution order, between the step's placements and its releases.
	Step func(vi, kernel, iter int) error
	// Stores fires once per visit, after its steps and before its
	// end-of-visit releases.
	Stores func(vi int) error
}

// NewReplay prepares a walk of rep, the schedule's recorded allocation
// replay (AllocateWithOptions). A summary report (Allocate) is an error.
// It is kept within the compiler's inlining budget, so a caller's Replay
// does not escape to the heap.
func NewReplay(s *Schedule, rep *AllocationReport) (*Replay, error) {
	if rep.summary {
		return nil, errSummary
	}
	sets := -1
	for _, v := range s.period.Visits {
		sets = max(sets, v.Set)
	}
	// The report stores every event's set.
	for _, ev := range rep.Events {
		sets = max(sets, ev.Set)
	}
	return &Replay{s: s, rep: rep, Inst: InstancesOf(s), Sets: sets + 1}, nil
}

// Slots returns the size of a per-(set, instance) table.
func (r *Replay) Slots() int { return r.Sets * r.Inst.Len() }

// Slot returns ev's per-(set, instance) table slot, set × Inst.Len() +
// Inst, or -1 when its set is negative or its Inst is outside the
// schedule's key space.
func (r *Replay) Slot(ev *AllocEvent) int {
	n, k := r.Inst.Len(), int(ev.Inst)
	if ev.Set < 0 || k < 0 || k >= n {
		return -1
	}
	return ev.Set*n + k
}

// Find returns the slot of instance key on set, else on the lowest set
// it is live on, or -1 when no set holds it.
func (r *Replay) Find(set, key int) int {
	n := r.Inst.Len()
	if r.live[set*n+key] >= 0 {
		return set*n + key
	}
	for o := range r.Sets {
		if r.live[o*n+key] >= 0 {
			return o*n + key
		}
	}
	return -1
}

// Placed returns the event that placed the instance live at slot.
func (r *Replay) Placed(slot int) *AllocEvent { return &r.rep.Events[r.live[slot]] }

// Walk replays the events in execution order and calls the hooks, for
// every visit. It fails on an event whose instance is not one of its
// visit's iterations, on a step event out of execution order and on an
// event after the last visit's run. Its own errors carry no package
// prefix. The visit and event indices it reports, and the visit indices
// it passes the hooks, are those of the execution and replay orders.
func (r *Replay) Walk(h ReplayHooks) error { return r.walk(h, false) }

// WalkPeriod is Walk over the report's period (EventPeriod): it walks the
// leading visits, the steady run, and the trailing visits. When no
// instance is placed at either end of the steady run, the live table is
// the same at both, so each later run would replay it exactly with the
// same events: those runs are not walked. Otherwise every run is walked.
// It is for hooks whose own state is empty whenever the live table is
// and which do not read their visits' blocks across runs.
func (r *Replay) WalkPeriod(h ReplayHooks) error { return r.walk(h, true) }

// walk is Walk, and WalkPeriod when period is set.
func (r *Replay) walk(h ReplayHooks, period bool) error {
	s := r.s
	a := s.P.App
	r.live = make([]int32, r.Slots())
	for i := range r.live {
		r.live[i] = -1
	}
	r.nLive = 0
	p := r.rep.period()
	// runEnd is the visit that ends the stored steady run; liveAt the
	// placed instances at its start.
	runEnd, liveAt := -1, 0
	if period && p.Repeat > 1 {
		runEnd = p.First + p.Visits
	}

	// loading[id] == vi+1 marks a datum visit vi loads.
	loading := make([]int32, a.NumData())

	end := 0
	for vi, nv := 0, s.NumVisits(); vi < nv; vi++ {
		if vi == p.First {
			liveAt = r.nLive
		}
		if vi == runEnd && end == p.Lead+p.Len && liveAt == 0 && r.nLive == 0 {
			vi += (p.Repeat - 1) * p.Visits
			end += (p.Repeat - 1) * p.Len
			if vi == nv {
				break
			}
		}
		v := s.Visit(vi)
		first := end
		// The visit's events are stored from Events[stored] on.
		j, e := r.rep.VisitEvents(first, v.Cluster, v.Block)
		run, stored := r.rep.Events[j:j+e-first], int32(j)
		end = e
		stamp := int32(vi + 1)
		for _, m := range v.Loads {
			if id := a.DatumID(m.Datum); id >= 0 {
				loading[id] = stamp
			}
		}

		apply := func(i int) error {
			ev := &run[i]
			slot := r.Slot(ev)
			if slot < 0 || r.Inst.Iter(int(ev.Inst)) >= v.Iters {
				return fmt.Errorf("visit %d: event %d (%s of %q on set %d) names no instance of the visit's %d iterations",
					vi, first+i, ev.Op, r.rep.Object(*ev), ev.Set, v.Iters)
			}
			load := false
			if ev.Op == OpAlloc {
				if r.live[slot] < 0 {
					r.nLive++
				}
				r.live[slot] = stored + int32(i)
				load = loading[r.Inst.Datum(int(ev.Inst))] == stamp
			} else {
				if r.live[slot] >= 0 {
					r.nLive--
				}
				r.live[slot] = -1
			}
			return h.Event(vi, slot, ev, load)
		}

		for i := range run {
			if ev := &run[i]; ev.Kernel < 0 && ev.Iter == -1 {
				if err := apply(i); err != nil {
					return err
				}
			}
		}

		// next is the cursor over the run's step events (Kernel >= 0).
		next := 0
		for _, ki := range s.P.Clusters[v.Cluster].Kernels {
			for iter := 0; iter < v.Iters; iter++ {
				from := next
				for ; next < len(run); next++ {
					ev := &run[next]
					if ev.Kernel < 0 {
						continue
					}
					if ev.Kernel != ki || ev.Iter != iter {
						break
					}
					if ev.Op == OpAlloc {
						if err := apply(next); err != nil {
							return err
						}
					}
				}
				if err := h.Step(vi, ki, iter); err != nil {
					return err
				}
				for i := from; i < next; i++ {
					if ev := &run[i]; ev.Kernel >= 0 && ev.Op == OpRelease {
						if err := apply(i); err != nil {
							return err
						}
					}
				}
			}
		}
		for ; next < len(run); next++ {
			if ev := &run[next]; ev.Kernel >= 0 {
				return fmt.Errorf("visit %d: event %d (%s of %q, kernel %d iteration %d) is out of execution order",
					vi, first+next, ev.Op, r.rep.Object(*ev), ev.Kernel, ev.Iter)
			}
		}

		if err := h.Stores(vi); err != nil {
			return err
		}

		for i := range run {
			if ev := &run[i]; ev.Kernel < 0 && ev.Iter != -1 {
				if err := apply(i); err != nil {
					return err
				}
			}
		}
	}
	if end < r.rep.NumEvents() {
		ev := r.rep.Event(end)
		return fmt.Errorf("event %d (%s of %q, cluster %d block %d) belongs to no visit in execution order",
			end, ev.Op, r.rep.Object(ev), ev.Cluster, ev.Block)
	}
	return nil
}
