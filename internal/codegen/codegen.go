// Package codegen lowers a data schedule into the TinyRISC-level
// instruction stream the MorphoSys code generator emits: DMA programming
// for context loads (LDCTXT), frame-buffer fills and drains (LDFB/STFB)
// with the exact addresses chosen by the allocation algorithm, and kernel
// invocations (EXEC). A replay checker validates the stream against the
// machine's transfer discipline: contexts must be resident before a kernel
// runs, FB transfers must stay in bounds, and a store may only drain data
// some kernel actually produced.
//
// Spatial non-overlap of placements is guaranteed upstream by the
// allocation replay (whose allocator invariants are checked per visit);
// the checker here focuses on the control/transfer rules.
package codegen

import (
	"fmt"
	"slices"
	"strings"

	"cds/internal/app"
	"cds/internal/arch"
	"cds/internal/core"
)

// Op is a TinyRISC-level operation.
type Op int

const (
	// OpLdCtxt loads a kernel's context words into the Context Memory.
	OpLdCtxt Op = iota
	// OpLdFB DMAs a datum from external memory into a Frame Buffer set.
	OpLdFB
	// OpStFB DMAs a result from a Frame Buffer set to external memory.
	OpStFB
	// OpExec runs one kernel iteration on the RC array.
	OpExec
)

var opNames = [...]string{OpLdCtxt: "LDCTXT", OpLdFB: "LDFB", OpStFB: "STFB", OpExec: "EXEC"}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Instr is one instruction of the generated program.
type Instr struct {
	Op Op
	// Kernel names the kernel for LDCTXT and EXEC.
	Kernel string
	// Words is the context volume for LDCTXT.
	Words int
	// Object names the FB-resident instance for LDFB/STFB; Datum the
	// underlying application datum.
	Object, Datum string
	// Set, Addr, Bytes give the FB target of LDFB/STFB.
	Set, Addr, Bytes int
	// ExtAddr is the external-memory address of the transfer. Generate
	// never assigns one, so it is always -1; it survives as the ext=
	// column of the text format (Marshal/Parse).
	ExtAddr int
	// Cluster, Block, Iter locate the instruction in the schedule
	// (Iter is -1 for pre-visit work).
	Cluster, Block, Iter int
}

// String renders the instruction in the assembly-like form the CLI prints.
func (i Instr) String() string {
	switch i.Op {
	case OpLdCtxt:
		return fmt.Sprintf("LDCTXT  %-12s %4d words", i.Kernel, i.Words)
	case OpLdFB:
		return fmt.Sprintf("LDFB    %-12s set%d @%-5d %4d bytes", i.Object, i.Set, i.Addr, i.Bytes)
	case OpStFB:
		return fmt.Sprintf("STFB    %-12s set%d @%-5d %4d bytes", i.Object, i.Set, i.Addr, i.Bytes)
	case OpExec:
		return fmt.Sprintf("EXEC    %-12s iter %d", i.Kernel, i.Iter)
	}
	return "???"
}

// Program is the generated instruction stream.
type Program struct {
	Arch   arch.Params
	Instrs []Instr
}

// String renders the whole program.
func (p *Program) String() string {
	var b strings.Builder
	for _, i := range p.Instrs {
		b.WriteString(i.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Count returns the number of instructions with the given op.
func (p *Program) Count(op Op) int {
	n := 0
	for _, i := range p.Instrs {
		if i.Op == op {
			n++
		}
	}
	return n
}

// Generate lowers the schedule. It replays the allocation algorithm to
// learn every instance's address and lowers the schedule from that
// replay (GenerateFrom).
func Generate(s *core.Schedule) (*Program, error) {
	rep, err := core.AllocateWithOptions(s, core.AllocOptions{AllowSplit: true})
	if err != nil {
		return nil, fmt.Errorf("codegen: %w", err)
	}
	return GenerateFrom(s, rep)
}

// GenerateFrom lowers the schedule using rep, the schedule's recorded
// allocation replay (core.AllocateWithOptions with splitting allowed),
// for every instance's address; a summary report is an error. It emits
// per visit: LDCTXT for each kernel whose contexts move, LDFB for each
// input instance, EXEC per kernel per iteration, and STFB for each
// result instance the schedule stores (using the address the instance
// occupied when produced). The program covers every visit of the
// execution order.
func GenerateFrom(s *core.Schedule, rep *core.AllocationReport) (*Program, error) {
	e, err := newEmitter(s, rep)
	if err != nil {
		return nil, err
	}
	prog := &Program{Arch: s.Arch, Instrs: make([]Instr, 0, s.Sum(e.size))}
	for vi := range s.NumVisits() {
		if prog.Instrs, err = e.visit(vi, prog.Instrs); err != nil {
			return nil, err
		}
	}
	return prog, nil
}

// emitter lowers a schedule one visit at a time, in execution order,
// from the schedule's recorded allocation replay. Across visits it keeps
// the live table of the replay's placements.
type emitter struct {
	s    *core.Schedule
	rep  *core.AllocationReport
	a    *app.App
	inst core.Instances
	// n is the instance key space; nSets bounds the sets visits run on.
	n, nSets int
	// live[set*n+key] is the stored index (into rep.Events) of the
	// event that placed the instance on the set, or -1; nLive counts
	// the placed instances.
	live  []int32
	nLive int
	// pending[key] == vi+1 marks an instance visit vi still has to
	// store; resident collects the ones still placed after the visit.
	pending  []int32
	resident []int
	// event is the replay index of the next visit's first event.
	event int
}

// newEmitter prepares the lowering of s from rep; a summary report is an
// error.
func newEmitter(s *core.Schedule, rep *core.AllocationReport) (*emitter, error) {
	if err := rep.CheckRecorded(); err != nil {
		return nil, fmt.Errorf("codegen: %w", err)
	}
	inst := core.InstancesOf(s)
	e := &emitter{s: s, rep: rep, a: s.P.App, inst: inst, n: inst.Len()}
	for _, v := range s.Period().Visits {
		e.nSets = max(e.nSets, v.Set+1)
	}
	e.live = make([]int32, e.nSets*e.n)
	for i := range e.live {
		e.live[i] = -1
	}
	e.pending = make([]int32, e.n)
	return e, nil
}

// size bounds the instructions of visit v: a load, a store and an EXEC
// per movement or kernel and iteration, plus the context loads.
func (e *emitter) size(v *core.Visit) int {
	return (len(v.Loads)+len(v.Stores)+len(e.s.P.Clusters[v.Cluster].Kernels))*v.Iters + len(v.CtxLoads)
}

// place records that the event stored at Events[j] placed the instance
// at slot.
func (e *emitter) place(slot, j int) {
	if e.live[slot] < 0 {
		e.nLive++
	}
	e.live[slot] = int32(j)
}

// visit appends the instructions of visit vi, the next visit of the
// execution order, to out.
func (e *emitter) visit(vi int, out []Instr) ([]Instr, error) {
	s, rep, a, inst, n := e.s, e.rep, e.a, e.inst, e.n
	v := s.Visit(vi)
	// The visit's events are [first, end) of the replay order, stored
	// as run from Events[j] on.
	first := e.event
	j, end := rep.VisitEvents(first, v.Cluster, v.Block)
	run := rep.Events[j : j+end-first]
	e.event = end
	// slotOf returns the live-table slot of the visit's event i (of
	// the replay order). The event must name an instance of the
	// schedule on a set some visit runs on.
	slotOf := func(i int) (int, error) {
		ev := &run[i-first]
		k := int(ev.Inst)
		if k < 0 || k >= n || ev.Set < 0 || ev.Set >= e.nSets {
			return 0, fmt.Errorf("codegen: event %d: %s of %q on set %d is not an instance of the schedule",
				i, ev.Op, rep.Object(*ev), ev.Set)
		}
		return ev.Set*n + k, nil
	}
	base := Instr{Cluster: v.Cluster, Block: v.Block, Iter: -1, ExtAddr: -1}
	stamp := int32(vi + 1)

	// Pending stores: every iteration instance of every stored datum.
	for _, m := range v.Stores {
		if id := a.DatumID(m.Datum); id >= 0 {
			for iter := 0; iter < v.Iters; iter++ {
				e.pending[inst.Key(int32(id), iter)] = stamp
			}
		}
	}

	// Walk the visit's allocation events: input allocs become LDFB;
	// releases of pending stores become STFB just before the space is
	// reclaimed.
	emitStore := func(key, iter int, placed *core.AllocEvent) {
		in := base
		in.Op = OpStFB
		in.Object = rep.Object(*placed)
		in.Datum = a.DatumName(inst.Datum(key))
		in.Set = placed.Set
		in.Addr = placed.Addr
		in.Bytes = placed.Bytes
		in.Iter = iter
		out = append(out, in)
	}
	// Pre-visit allocation events (Iter == -1) establish the input
	// placements; the LDFB stream itself is driven by the schedule's
	// movement list so that the Basic Scheduler's duplicate per-kernel
	// loads are emitted faithfully (they reload into the one placed
	// copy).
	inVisit := first
	for ; inVisit < end && run[inVisit-first].Iter == -1; inVisit++ {
		ev := &run[inVisit-first]
		if ev.Op != core.OpAlloc {
			return nil, fmt.Errorf("codegen: unexpected pre-visit %s of %s", ev.Op, rep.Object(*ev))
		}
		slot, err := slotOf(inVisit)
		if err != nil {
			return nil, err
		}
		e.place(slot, j+inVisit-first)
	}
	for _, m := range v.Loads {
		per := m.Bytes / v.Iters
		id := a.DatumID(m.Datum)
		for iter := 0; iter < v.Iters; iter++ {
			pi := int32(-1)
			if id >= 0 {
				pi = e.live[v.Set*n+inst.Key(int32(id), iter)]
			}
			if pi < 0 {
				if a.IsStreamed(m.Datum) {
					// Arrives just in time for its first
					// consumer; emitted when its in-visit
					// placement event arrives. A streamed datum
					// that is RETAINED is instead placed
					// pre-visit (phase 1 of the allocator), so
					// it is already live here and its one
					// charged load is emitted below like any
					// resident input.
					continue
				}
				return nil, fmt.Errorf("codegen: load of unplaced %s#i%d (visit c%d b%d)", m.Datum, iter, v.Cluster, v.Block)
			}
			placed := &rep.Events[pi]
			in := base
			in.Op = OpLdFB
			in.Object = rep.Object(*placed)
			in.Datum = m.Datum
			in.Set = placed.Set
			in.Addr = placed.Addr
			in.Bytes = per
			out = append(out, in)
		}
	}
	// Execution follows the paper's loop fission (Figure 3): each
	// kernel's contexts are loaded once and the kernel runs all of the
	// visit's iterations back to back, so the Context Memory never needs
	// more than the executing kernel (plus whatever prefetch fits).
	// Context loads are omitted for kernels still resident from an
	// earlier visit. CtxLoads is ordered like the cluster's kernels
	// (kernels whose group was a Context Memory hit contribute no entry;
	// a group larger than the whole CM streams once per kernel). Walk
	// both in lockstep so every charged load is emitted exactly once.
	ctxCursor := 0
	for _, ki := range s.P.Clusters[v.Cluster].Kernels {
		k := a.Kernels[ki]
		if ctxCursor < len(v.CtxLoads) && v.CtxLoads[ctxCursor].Datum == k.CtxGroup() {
			in := base
			in.Op = OpLdCtxt
			in.Kernel = k.CtxGroup()
			in.Words = v.CtxLoads[ctxCursor].Bytes
			out = append(out, in)
			ctxCursor++
		}
		for iter := 0; iter < v.Iters; iter++ {
			in := base
			in.Op = OpExec
			in.Kernel = k.Name
			in.Iter = iter
			out = append(out, in)
		}
	}
	if ctxCursor != len(v.CtxLoads) {
		return nil, fmt.Errorf("codegen: visit c%d b%d: %d context loads not attributable to kernels",
			v.Cluster, v.Block, len(v.CtxLoads)-ctxCursor)
	}
	// Result placements and releases follow; stores are emitted just
	// before their space is reclaimed.
	for i := inVisit; i < end; i++ {
		ev := &run[i-first]
		slot, err := slotOf(i)
		if err != nil {
			return nil, err
		}
		key := int(ev.Inst)
		switch ev.Op {
		case core.OpAlloc:
			e.place(slot, j+i-first)
			if id := inst.Datum(key); a.IsStreamedID(id) {
				// A just-in-time tile load.
				in := base
				in.Op = OpLdFB
				in.Object = rep.Object(*ev)
				in.Datum = a.DatumName(id)
				in.Set = ev.Set
				in.Addr = ev.Addr
				in.Bytes = ev.Bytes
				in.Iter = ev.Iter
				out = append(out, in)
			}
		case core.OpRelease:
			pi := e.live[slot]
			if pi < 0 {
				return nil, fmt.Errorf("codegen: release of untracked %s (set %d)", rep.Object(*ev), ev.Set)
			}
			if e.pending[key] == stamp {
				emitStore(key, ev.Iter, &rep.Events[pi])
				e.pending[key] = 0
			}
			e.live[slot] = -1
			e.nLive--
		}
	}
	// Stores whose instances stay resident (retained final results):
	// drain them from their live placement, in instance-name order.
	live := e.live[v.Set*n : (v.Set+1)*n]
	e.resident = e.resident[:0]
	absent := false
	for _, m := range v.Stores {
		id := a.DatumID(m.Datum)
		absent = absent || id < 0
		for iter := 0; id >= 0 && iter < v.Iters; iter++ {
			if k := inst.Key(int32(id), iter); e.pending[k] == stamp {
				e.pending[k] = 0
				e.resident = append(e.resident, k)
				absent = absent || live[k] < 0
			}
		}
	}
	if absent {
		return nil, absentStore(s, v, inst, live, e.resident)
	}
	slices.SortFunc(e.resident, func(x, y int) int {
		return strings.Compare(rep.Object(rep.Events[live[x]]), rep.Object(rep.Events[live[y]]))
	})
	for _, k := range e.resident {
		emitStore(k, -1, &rep.Events[live[k]])
	}
	return out, nil
}

// absentStore reports the first instance, in name order, that visit v
// stores but that holds no placement on the visit's set: one of the
// resident keys without a live entry, or an instance of a datum the
// application does not have.
func absentStore(s *core.Schedule, v core.Visit, inst core.Instances, live []int32, resident []int) error {
	first := ""
	note := func(name string) {
		if first == "" || name < first {
			first = name
		}
	}
	for _, k := range resident {
		if live[k] < 0 {
			note(fmt.Sprintf("%s#i%d", s.P.App.DatumName(inst.Datum(k)), inst.Iter(k)))
		}
	}
	for _, m := range v.Stores {
		if s.P.App.DatumID(m.Datum) < 0 {
			for iter := 0; iter < v.Iters; iter++ {
				note(fmt.Sprintf("%s#i%d", m.Datum, iter))
			}
		}
	}
	return fmt.Errorf("codegen: store of absent %s (visit c%d b%d)", first, v.Cluster, v.Block)
}
