package core

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"cds/internal/alloc"
)

// AllocOp is the kind of one allocation-trace event.
type AllocOp int

const (
	// OpAlloc places an object instance in the Frame Buffer.
	OpAlloc AllocOp = iota
	// OpRelease frees an object instance.
	OpRelease
)

func (o AllocOp) String() string {
	if o == OpAlloc {
		return "alloc"
	}
	return "release"
}

// AllocEvent is one step of the Frame Buffer allocation replay. The
// sequence of events reproduces the paper's Figure 5 timelines. An event
// holds no pointers: the report names its instance (Object, DatumName).
type AllocEvent struct {
	Op  AllocOp
	Set int
	// Addr is the first extent's address; Bytes the full size; Split
	// whether the instance had to be split across free blocks.
	Addr, Bytes int
	Split       bool
	// Inst is the instance's key (InstancesOf); consumers key their
	// per-instance state by it. An int32 beside Split packs it into
	// Split's word.
	Inst int32
	// Cluster, Block, Iter locate the event in the schedule. Iter is -1
	// for the pre-visit input loading phase.
	Cluster, Block, Iter int
	// Kernel is the kernel index (into App.Kernels) whose execution
	// step this event belongs to, or -1 for pre-visit loading and
	// end-of-visit releases.
	Kernel int
}

// AllocationReport summarizes the full allocation replay of a schedule.
// Allocate fills a summary report, which keeps no event log;
// AllocateWithOptions fills a recorded one.
//
// A recorded report stores its events as a period, as a schedule stores
// its visits (EventPeriod): the replay of a steady run that leaves every
// Frame Buffer set empty and every remembered address in place repeats
// in each later run, shifted by one block per run. NumEvents and Event
// read the replay order it stands for; every reader of the events goes
// through them (or through VisitEvents, Replay and EventPeriod.At).
type AllocationReport struct {
	// Events lists the stored events: the leading events, one steady
	// run's and the trailing events (EventPeriod), in replay order. A
	// report of a schedule without a steady block, or one built by
	// NewAllocationReport, stores every event. It is nil in a summary
	// report (Allocate).
	Events []AllocEvent
	// PeakUsed gives the high-water occupancy of each FB set.
	PeakUsed map[int]int
	// Splits counts instances that had to be split across free blocks
	// (the paper reports zero for all its experiments).
	Splits int
	// Regular reports whether every object instance kept the same
	// address across all RF blocks (the paper's regularity goal).
	Regular bool
	// IrregularObjects lists the instances that moved between blocks.
	IrregularObjects []string

	// inst keys the events' instances; names is their name table,
	// built on first request and shared by copies of the report. A
	// report without names (not built by Allocate or
	// NewAllocationReport) names no instance. summary marks a report
	// whose replay kept no event log, so its nil Events is not an empty
	// log. replayed counts the blocks the replay walked. evp is the
	// stored form of Events, nil when Events is the whole replay; a
	// pointer, so that a summary report stays as small as it was.
	inst     Instances
	names    *instanceNames
	evp      *EventPeriod
	replayed int32
	summary  bool
}

// wholeReplay is the stored form of a report that stores every event.
var wholeReplay EventPeriod

// EventPeriod is the stored form of a recorded report's events. Events
// lists the Lead leading events, one steady run of Len events starting at
// Lead and the trailing events. The steady run is the replay of the
// Visits visits that start at visit First of the execution order (one run
// of the schedule's steady block); it runs Repeat times in a row, its
// k-th run numbering its events' blocks Block+k and covering the visits
// from First+k*Visits on. The zero EventPeriod means Events is the whole
// replay.
type EventPeriod struct {
	Lead, Len, Repeat int
	First, Visits     int
}

// At maps event i of the replay order to its index in Events and its
// steady run: the event is Events[j] with its block advanced by that
// count.
func (p *EventPeriod) At(i int) (int, int) { return periodAt(i, p.Lead, p.Len, p.Repeat) }

// EventPeriod returns the stored form of the report's events.
func (r *AllocationReport) EventPeriod() EventPeriod { return *r.period() }

// period returns the stored form of the report's events.
func (r *AllocationReport) period() *EventPeriod {
	if r.evp == nil {
		return &wholeReplay
	}
	return r.evp
}

// NumEvents returns the number of events in replay order.
func (r *AllocationReport) NumEvents() int {
	p := r.period()
	return len(r.Events) + (p.Repeat-1)*p.Len
}

// Event returns event i of the replay order, 0 <= i < NumEvents().
func (r *AllocationReport) Event(i int) AllocEvent {
	j, k := r.period().At(i)
	ev := r.Events[j]
	ev.Block += k
	return ev
}

// VisitEvents locates the events of the visit of the given cluster and
// block whose run starts at event first of the replay order. They are
// Events[j : j+end-first], as stored (their blocks not advanced to the
// visit's run), and end is the replay index just past them. The run is
// empty when event first belongs to another visit.
func (r *AllocationReport) VisitEvents(first, cluster, block int) (j, end int) {
	p := r.period()
	if first >= r.NumEvents() {
		return len(r.Events), first
	}
	j, k := p.At(first)
	// stop bounds the stored part that holds event first.
	stop := len(r.Events)
	if j < p.Lead {
		stop = p.Lead
	} else if j < p.Lead+p.Len {
		stop = p.Lead + p.Len
	}
	n := j
	for n < stop && r.Events[n].Block+k == block && r.Events[n].Cluster == cluster {
		n++
	}
	return j, first + n - j
}

// CheckRecorded returns an error for a summary report (Allocate), whose
// events were not kept, so that a walk of the events never mistakes it
// for an empty replay.
func (r *AllocationReport) CheckRecorded() error {
	if r.summary {
		return errSummary
	}
	return nil
}

// errSummary is the error of a walk asked of a summary report.
var errSummary = errors.New("core: allocation report is a summary without events (replay with AllocateWithOptions to record them)")

// instanceNames is a report's table of instance names, indexed by
// instance key. It is built once, on first request, so a cached report
// read by concurrent requests names its events without a race.
type instanceNames struct {
	once sync.Once
	tab  []string
}

// newReport returns an empty report of the schedule's instances.
func newReport(s *Schedule) *AllocationReport {
	return &AllocationReport{PeakUsed: map[int]int{}, Regular: true,
		inst: InstancesOf(s), names: &instanceNames{}}
}

// NewAllocationReport returns a report of the given events of schedule s,
// each keyed by its Inst. It is for replays built outside Allocate, such
// as tests' hand-made ones.
func NewAllocationReport(s *Schedule, events []AllocEvent) *AllocationReport {
	rep := newReport(s)
	rep.Events = events
	return rep
}

// named reports whether k is an instance key of the report's schedule.
func (r *AllocationReport) named(k int) bool {
	return r.names != nil && k >= 0 && k < r.inst.Len()
}

// Object returns the name of ev's instance, "<datum>#i<iter>".
func (r *AllocationReport) Object(ev AllocEvent) string {
	k := int(ev.Inst)
	if !r.named(k) {
		return fmt.Sprintf("instance %d", k)
	}
	r.names.once.Do(func() {
		r.names.tab = make([]string, r.inst.Len())
		for k := range r.names.tab {
			r.names.tab[k] = r.inst.Name(k)
		}
	})
	return r.names.tab[k]
}

// DatumName returns the name of ev's application datum.
func (r *AllocationReport) DatumName(ev AllocEvent) string {
	k := int(ev.Inst)
	if !r.named(k) {
		return ""
	}
	return r.inst.a.DatumName(r.inst.Datum(k))
}

// eventJSON is an event's JSON form: the event with its instance and
// datum names, Datum empty on releases.
type eventJSON struct {
	Op                   AllocOp
	Set                  int
	Object               string
	Datum                string
	Addr, Bytes          int
	Split                bool
	Cluster, Block, Iter int
	Kernel               int
}

// MarshalJSON encodes the report with each event of the replay order and
// its Object and Datum names.
func (r *AllocationReport) MarshalJSON() ([]byte, error) {
	events := make([]eventJSON, r.NumEvents())
	for i := range events {
		ev := r.Event(i)
		e := eventJSON{Op: ev.Op, Set: ev.Set, Object: r.Object(ev), Addr: ev.Addr, Bytes: ev.Bytes,
			Split: ev.Split, Cluster: ev.Cluster, Block: ev.Block, Iter: ev.Iter, Kernel: ev.Kernel}
		if ev.Op == OpAlloc {
			e.Datum = r.DatumName(ev)
		}
		events[i] = e
	}
	if r.Events == nil {
		events = nil
	}
	return json.Marshal(struct {
		Events           []eventJSON
		PeakUsed         map[int]int
		Splits           int
		Regular          bool
		IrregularObjects []string
	}{events, r.PeakUsed, r.Splits, r.Regular, r.IrregularObjects})
}

// AllocOptions tunes the allocation replay; the zero value is the paper's
// configuration except for splitting, which Allocate exposes directly.
type AllocOptions struct {
	// AllowSplit enables the paper's last-resort splitting across free
	// blocks.
	AllowSplit bool
	// FitPolicy selects the free-block choice (first-fit by default;
	// best/worst-fit exist for the ablation).
	FitPolicy alloc.FitPolicy
	// OneSided disables the paper's two-sided placement: results are
	// allocated from the top like everything else. Exists to measure
	// what the data-top/results-bottom discipline buys.
	OneSided bool
}

// Allocate replays the schedule through the Frame Buffer allocator of
// section 5 (first-fit, shared objects and input data from the top,
// results from the bottom, release at last use, address regularity across
// blocks) and verifies that every visit's working set actually fits.
// allowSplit enables the paper's last-resort splitting.
//
// The report is a summary: it carries the peaks, splits and regularity
// but no event log (Events is nil). Every check of the replay runs all
// the same, but the walk stops at the replay's period: once a block
// leaves the allocators and the remembered addresses as it found them,
// each following block of the same visits would repeat it exactly, so
// it is counted instead of walked. AllocateWithOptions walks every block
// and records the events.
func Allocate(s *Schedule, allowSplit bool) (*AllocationReport, error) {
	return allocate(s, AllocOptions{AllowSplit: allowSplit}, false)
}

// AllocateWithOptions is Allocate with an explicit allocator policy. Its
// report records every event, for the consumers that walk them (the
// verifier, code generation, the functional machine, the Figure 5 views).
func AllocateWithOptions(s *Schedule, opts AllocOptions) (*AllocationReport, error) {
	return allocate(s, opts, true)
}

// allocate is the one allocation replay; record keeps its event log.
func allocate(s *Schedule, opts AllocOptions, record bool) (*AllocationReport, error) {
	a := s.P.App
	if !a.Finalized() {
		// The replay walks interned datum IDs.
		return &AllocationReport{PeakUsed: map[int]int{}, Regular: true, summary: !record},
			fmt.Errorf("core: allocation replay of app %q: not finalized (build it with app.Builder or call Finalize)", a.Name)
	}
	rep := newReport(s)
	rep.summary = !record
	in := rep.inst
	n := in.Len()

	// One allocator per FB set, keyed by instance.
	nSets := 0
	for _, c := range s.P.Clusters {
		nSets = max(nSets, c.Set+1)
	}
	fbs := make([]*alloc.FB, nSets)
	for _, c := range s.P.Clusters {
		if fbs[c.Set] == nil {
			fb := alloc.New(s.Arch.FBSetBytes, opts.AllowSplit, n, in.Name)
			fb.SetFitPolicy(opts.FitPolicy)
			fbs[c.Set] = fb
		}
	}

	resultDir := alloc.FromBottom
	if opts.OneSided {
		resultDir = alloc.FromTop
	}
	plans, err := planReplay(s, resultDir)
	if err != nil {
		return rep, err
	}
	per := &s.period
	if record {
		// The recording stores the stored visits' events and mostly
		// one steady run more: a block that remembers its first
		// addresses is not yet the period.
		nAllocs := 0
		for i := range per.Visits {
			v := &per.Visits[i]
			n := v.Iters * plans[v.Cluster].allocsPerIter
			if per.Lead <= i && i < per.Lead+per.Len {
				n *= min(per.Repeat, 2)
			}
			nAllocs += n
		}
		if nAllocs > 0 {
			// Every placement is released exactly once (the leak
			// check below), so twice the placement bound bounds the
			// events.
			rep.Events = make([]AllocEvent, 0, 2*nAllocs)
		}
	}

	// prefer[cluster*n+key] remembers each instance's address from the
	// previous block, or -1: keyed by cluster (which fixes the set) and
	// instance, since two clusters on one set may each load their own
	// copy of the same datum, at different addresses. irregular
	// collects the instance keys that moved.
	prefer := make([]int32, len(s.Info.Clusters)*n)
	for i := range prefer {
		prefer[i] = -1
	}
	irregular := map[int]bool{}
	// moved records that a placement changed a remembered address since
	// the current block began.
	moved := false

	place := func(fb *alloc.FB, set int, id int32, iter int, dir alloc.Dir, ev AllocEvent) error {
		k := in.Key(id, iter)
		pk := ev.Cluster*n + k
		want := int(prefer[pk])
		p, err := fb.Alloc(k, a.SizeByID(id), dir, want)
		if err != nil {
			return fmt.Errorf("core: allocation replay failed for %s (cluster %d block %d): %w",
				in.Name(k), ev.Cluster, ev.Block, err)
		}
		if want >= 0 && p.Addr() != want {
			irregular[k] = true
		}
		if prefer[pk] != int32(p.Addr()) {
			prefer[pk] = int32(p.Addr())
			moved = true
		}
		if record {
			ev.Op = OpAlloc
			ev.Set = set
			ev.Inst = int32(k)
			ev.Addr = p.Addr()
			ev.Bytes = p.Bytes()
			ev.Split = p.Split()
			rep.Events = append(rep.Events, ev)
		}
		return nil
	}
	free := func(fb *alloc.FB, set int, id int32, iter int, ev AllocEvent) error {
		k := in.Key(id, iter)
		p, ok := fb.Lookup(k)
		if !ok {
			return fmt.Errorf("core: allocation replay: release of absent %s (cluster %d block %d)",
				in.Name(k), ev.Cluster, ev.Block)
		}
		if err := fb.Release(k); err != nil {
			return err
		}
		if record {
			ev.Op = OpRelease
			ev.Set = set
			ev.Inst = int32(k)
			ev.Addr = p.Addr()
			ev.Bytes = p.Bytes()
			rep.Events = append(rep.Events, ev)
		}
		return nil
	}

	// Loop fission runs the same visits in every RF block. The replay
	// stops at its period: a steady run (one block) that starts and ends
	// with every set empty and remembers no new address leaves the
	// replay state as it found it, so each following run of the steady
	// block would repeat it exactly, splits included, its events
	// shifted by one block per run. A recording stores that run's
	// events once with the count of runs (EventPeriod). start and end
	// bound the current block; splits counts the splits made before it
	// and mark the events recorded before it.
	steadyEnd := per.Lead + per.Repeat*per.Len
	skippedSplits, start, end, splits, mark, periodic := 0, 0, 0, 0, 0, false
	for i, nv := 0, s.NumVisits(); i < nv; i++ {
		if i == end {
			start, end = i, per.blockEnd(i, nv)
			rep.replayed++
			periodic, moved, splits, mark = allEmpty(fbs), false, totalSplits(fbs), len(rep.Events)
		}
		j, run := per.At(i)
		v := per.Visits[j]
		v.Block += run
		c := s.Info.Clusters[v.Cluster].Cluster
		pl := &plans[v.Cluster]
		fb := fbs[c.Set]
		ev := AllocEvent{Cluster: c.Index, Block: v.Block, Iter: -1, Kernel: -1}

		// Phase 1: shared data this cluster loads, farthest-reaching
		// first (Figure 4: for v = last cluster down to c+2).
		// Phase 2: per-kernel input data, last kernel first
		// (Figure 4: for k = last kernel down to first). Streamed
		// inputs are deferred to phase 3.
		for _, id := range pl.loads {
			for iter := 0; iter < v.Iters; iter++ {
				if err := place(fb, c.Set, id, iter, alloc.FromTop, ev); err != nil {
					return rep, err
				}
			}
		}

		// Phase 3: execution. The paper's Figure 4 pseudo-code walks
		// iteration-major, but its execution model (Figure 3's loop
		// fission) runs each kernel for all RF iterations back to
		// back; releases must follow the EXECUTION order or reused
		// space would be overwritten while a later kernel still needs
		// it. We therefore walk kernel-major: for k, for iter.
		for _, kr := range pl.kernels {
			for iter := 0; iter < v.Iters; iter++ {
				ev := ev
				ev.Iter = iter
				ev.Kernel = kr.kernel
				// Streamed inputs arrive just before their first
				// consuming kernel of this iteration.
				for _, id := range kr.streamed {
					if _, already := fb.Lookup(in.Key(id, iter)); already {
						continue
					}
					if err := place(fb, c.Set, id, iter, alloc.FromTop, ev); err != nil {
						return rep, err
					}
				}
				for _, out := range kr.outputs {
					if err := place(fb, c.Set, out.id, iter, out.dir, ev); err != nil {
						return rep, err
					}
				}
				for _, id := range kr.releases {
					if err := free(fb, c.Set, id, iter, ev); err != nil {
						return rep, err
					}
				}
			}
		}

		// Phase 4: end of visit. Persistent results leave once their
		// store completes; without in-place release everything else
		// leaves too; retained objects whose span ends here leave.
		for iter := 0; iter < v.Iters; iter++ {
			ev := ev
			ev.Iter = iter
			for _, id := range pl.leaving {
				if err := free(fb, c.Set, id, iter, ev); err != nil {
					return rep, err
				}
			}
			// The object lives in its home set's FB even when the
			// final consumer runs on another set.
			for _, r := range pl.retiring {
				if err := free(fbs[r.set], r.set, r.id, iter, ev); err != nil {
					return rep, err
				}
			}
		}

		if err := fb.CheckInvariants(); err != nil {
			return rep, fmt.Errorf("core: allocator invariants after cluster %d block %d: %w",
				c.Index, v.Block, err)
		}

		if i+1 == end && periodic && !moved && allEmpty(fbs) && per.Len > 0 &&
			start >= per.Lead && end-start == per.Len && end < steadyEnd && (steadyEnd-end)%per.Len == 0 {
			runs := (steadyEnd - end) / per.Len
			skippedSplits += (totalSplits(fbs) - splits) * runs
			if record {
				rep.evp = &EventPeriod{Lead: mark, Len: len(rep.Events) - mark, Repeat: runs + 1,
					First: start, Visits: per.Len}
			}
			i, end = steadyEnd-1, steadyEnd
		}
	}

	// Every FB set must be empty at the end: all lifetimes matched.
	for set, fb := range fbs {
		if fb == nil {
			continue
		}
		if fb.Used() != 0 {
			return rep, fmt.Errorf("core: %d bytes leaked in FB set %d: %v", fb.Used(), set, fb.Live())
		}
		rep.PeakUsed[set] = fb.PeakUsed()
		rep.Splits += fb.Splits()
	}
	rep.Splits += skippedSplits
	for k := range irregular {
		rep.IrregularObjects = append(rep.IrregularObjects, in.Name(k))
	}
	sort.Strings(rep.IrregularObjects)
	rep.Regular = len(rep.IrregularObjects) == 0
	return rep, nil
}

// blockEnd returns the end of the block that starts at visit start of
// the execution order: the run of visits that share its Block.
func (p *Period) blockEnd(start, n int) int {
	end := start + 1
	for end < n && p.block(end) == p.block(start) {
		end++
	}
	return end
}

// block returns the block of visit i of the execution order.
func (p *Period) block(i int) int {
	j, run := p.At(i)
	return p.Visits[j].Block + run
}

// allEmpty reports whether every FB set holds nothing.
func allEmpty(fbs []*alloc.FB) bool {
	for _, fb := range fbs {
		if fb != nil && fb.Used() != 0 {
			return false
		}
	}
	return true
}

// totalSplits returns the splits made so far across the FB sets.
func totalSplits(fbs []*alloc.FB) int {
	n := 0
	for _, fb := range fbs {
		if fb != nil {
			n += fb.Splits()
		}
	}
	return n
}

// clusterReplay is one cluster's part of the allocation replay, resolved
// to datum IDs once per replay. It depends only on the cluster and the
// schedule's retention, so every visit of the cluster walks the same
// lists; only the iteration count changes.
type clusterReplay struct {
	// loads is phases 1 and 2: retained data this cluster loads,
	// farthest reaching first, then per-kernel input data, last kernel
	// first, without retained or streamed ones.
	loads []int32
	// kernels is phase 3, in execution order.
	kernels []kernelReplay
	// leaving and retiring are phase 4's releases: the cluster's own
	// objects, then retained objects whose span ends here (on their
	// home set).
	leaving  []int32
	retiring []retiredObject
	// allocsPerIter bounds the placements of one iteration of a visit.
	allocsPerIter int
}

// kernelReplay is one kernel's step of phase 3.
type kernelReplay struct {
	kernel int
	// streamed lists the streamed inputs placed unless already
	// resident; outputs the results with their placement side;
	// releases the in-place releases after the kernel.
	streamed []int32
	outputs  []placedOutput
	releases []int32
}

type placedOutput struct {
	id  int32
	dir alloc.Dir
}

type retiredObject struct {
	id  int32
	set int
}

// planReplay resolves every cluster's replay lists over datum IDs, from
// the analysis' compiled walks and the retention stamped per cluster on a
// pooled per-ID scratch, as the footprint model does. The lists of all
// clusters are carved from shared arrays. Retained objects pinned to a
// cluster's set or accessed remotely on another set are never released
// by the cluster itself.
func planReplay(s *Schedule, resultDir alloc.Dir) ([]clusterReplay, error) {
	a, info := s.P.App, s.Info
	plans := make([]clusterReplay, len(info.Clusters))
	nk, nids, nouts := 0, len(info.Clusters)*len(s.Retained), 0
	for c := range info.Clusters {
		w := info.Walk(c)
		if w == nil {
			return nil, fmt.Errorf("core: allocation replay of app %q: the analysis has no compiled walks", a.Name)
		}
		nids += len(w.Persistent)
		for _, st := range w.Steps {
			nids += 2*len(st.D) + len(st.StreamIn) + len(st.Release) + len(st.Inter)
			nouts += len(st.Out)
		}
		nk += len(w.Steps)
	}
	kernels := make([]kernelReplay, 0, nk)
	ids := make([]int32, 0, nids)
	outs := make([]placedOutput, 0, nouts)
	var retiring []retiredObject

	sc := getScratch(a.NumData())
	defer putScratch(sc)
	rid := sc.retained[:0]
	for _, r := range s.Retained {
		rid = append(rid, int32(a.DatumID(r.Name)))
	}
	sc.retained = rid

	for ci := range info.Clusters {
		c := info.Clusters[ci].Cluster
		w := info.Walk(ci)
		pl := &plans[ci]
		sc.begin()
		ep := sc.epoch
		// here marks the data retained on the cluster's set
		// (cross-set retained objects count on every set); pinned and
		// remote mirror pinnedFor and remoteFor.
		here, pinned, remote := sc.live, sc.pinned, sc.remote
		for i := range s.Retained {
			r, id := &s.Retained[i], rid[i]
			if id < 0 {
				continue
			}
			if r.Set == c.Set || r.CrossSet {
				here[id] = ep
			}
			if r.From <= c.Index && c.Index <= r.To {
				if r.Set == c.Set {
					pinned[id] = ep
				} else if r.CrossSet {
					remote[id] = ep
				}
			}
		}
		// owned appends the IDs the cluster releases itself.
		owned := func(dst, src []int32) []int32 {
			for _, id := range src {
				if pinned[id] != ep && remote[id] != ep {
					dst = append(dst, id)
				}
			}
			return dst
		}
		mark := len(ids)

		// Phase 1: retained data this cluster loads, farthest reaching
		// first, then by name.
		shared := sc.order[:0]
		for i := range s.Retained {
			if r := &s.Retained[i]; r.Kind == RetainedData && r.Set == c.Set && r.From == c.Index {
				shared = append(shared, int32(i))
			}
		}
		slices.SortFunc(shared, func(x, y int32) int {
			rx, ry := &s.Retained[x], &s.Retained[y]
			return cmp.Or(cmp.Compare(ry.To, rx.To), strings.Compare(rx.Name, ry.Name))
		})
		for _, i := range shared {
			ids = append(ids, rid[i])
		}
		sc.order = shared
		// Phase 2: each kernel's own inputs, last kernel first, but
		// not the retained ones (loaded in phase 1 by this cluster or
		// still resident from an earlier cluster of the block) or the
		// streamed ones.
		for i := len(w.Steps) - 1; i >= 0; i-- {
			for _, id := range w.Steps[i].D {
				if here[id] != ep && !a.IsStreamedID(id) {
					ids = append(ids, id)
				}
			}
		}
		pl.loads, mark = carve(ids, mark)

		first := len(kernels)
		for i, kc := range info.Clusters[ci].PerKernel {
			st := &w.Steps[i]
			kr := kernelReplay{kernel: kc.Kernel}
			for _, id := range a.KernelInputIDs(kc.Kernel) {
				if a.IsStreamedID(id) && remote[id] != ep {
					ids = append(ids, id)
				}
			}
			kr.streamed, mark = carve(ids, mark)
			omark := len(outs)
			for _, id := range st.Out {
				dir := resultDir
				if here[id] == ep {
					// Shared results go to the top: they are data
					// for the next clusters.
					dir = alloc.FromTop
				}
				outs = append(outs, placedOutput{id, dir})
			}
			kr.outputs, _ = carve(outs, omark)
			if s.InPlaceRelease {
				ids = owned(ids, st.Release)
				kr.releases, mark = carve(ids, mark)
			}
			kernels = append(kernels, kr)
			pl.allocsPerIter += len(kr.streamed) + len(kr.outputs)
		}
		pl.kernels, _ = carve(kernels, first)
		pl.allocsPerIter += len(pl.loads)

		ids = owned(ids, w.Persistent)
		if !s.InPlaceRelease {
			for _, st := range w.Steps {
				ids = owned(owned(ids, st.D), st.Inter)
			}
		}
		pl.leaving, _ = carve(ids, mark)
		rmark := len(retiring)
		for i := range s.Retained {
			if r := &s.Retained[i]; r.To == c.Index && (r.Set == c.Set || r.CrossSet) {
				retiring = append(retiring, retiredObject{rid[i], r.Set})
			}
		}
		pl.retiring, _ = carve(retiring, rmark)
	}
	return plans, nil
}
