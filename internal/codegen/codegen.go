// Package codegen lowers a data schedule into the TinyRISC-level
// instruction stream the MorphoSys code generator emits: DMA programming
// for context loads (LDCTXT), frame-buffer fills and drains (LDFB/STFB)
// with the exact addresses chosen by the allocation algorithm, and kernel
// invocations (EXEC). A replay checker validates the stream against the
// machine's transfer discipline: contexts must be resident before a kernel
// runs, FB transfers must stay in bounds, and a store may only drain data
// some kernel actually produced.
//
// Spatial non-overlap of placements is guaranteed upstream by
// core.Allocate (whose allocator invariants are checked per visit); the
// checker here focuses on the control/transfer rules.
package codegen

import (
	"fmt"
	"sort"
	"strings"

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
// learn every instance's address, then emits per visit: LDCTXT for each
// kernel whose contexts move, LDFB for each input instance, EXEC per
// kernel per iteration, and STFB for each result instance the schedule
// stores (using the address the instance occupied when produced).
func Generate(s *core.Schedule) (*Program, error) {
	rep, err := core.Allocate(s, true)
	if err != nil {
		return nil, fmt.Errorf("codegen: %w", err)
	}

	// Group allocation events by visit (block, cluster); they were
	// produced in visit order, so a simple cursor suffices.
	type visitKey struct{ block, cluster int }
	eventsByVisit := map[visitKey][]core.AllocEvent{}
	for _, ev := range rep.Events {
		k := visitKey{ev.Block, ev.Cluster}
		eventsByVisit[k] = append(eventsByVisit[k], ev)
	}

	prog := &Program{Arch: s.Arch}
	a := s.P.App

	// live tracks current placements of instances per set.
	type liveKey struct {
		set  int
		inst string
	}
	live := map[liveKey]core.AllocEvent{}

	for _, v := range s.Visits {
		evs := eventsByVisit[visitKey{v.Block, v.Cluster}]
		base := Instr{Cluster: v.Cluster, Block: v.Block, Iter: -1, ExtAddr: -1}

		// Pending stores: every iteration instance of every stored
		// datum.
		pending := map[string]bool{}
		for _, m := range v.Stores {
			for iter := 0; iter < v.Iters; iter++ {
				pending[instanceName(m.Datum, iter)] = true
			}
		}

		// Walk the visit's allocation events: input allocs become
		// LDFB; releases of pending stores become STFB just before
		// the space is reclaimed.
		emitStore := func(ev core.AllocEvent, placed core.AllocEvent) {
			in := base
			in.Op = OpStFB
			in.Object = ev.Object
			in.Datum = placed.Datum
			in.Set = placed.Set
			in.Addr = placed.Addr
			in.Bytes = placed.Bytes
			in.Iter = ev.Iter
			prog.Instrs = append(prog.Instrs, in)
		}
		// Pre-visit allocation events (Iter == -1) establish the input
		// placements; the LDFB stream itself is driven by the
		// schedule's movement list so that the Basic Scheduler's
		// duplicate per-kernel loads are emitted faithfully (they
		// reload into the one placed copy).
		evRest := evs
		for len(evRest) > 0 && evRest[0].Iter == -1 {
			ev := evRest[0]
			evRest = evRest[1:]
			if ev.Op != core.OpAlloc {
				return nil, fmt.Errorf("codegen: unexpected pre-visit %s of %s", ev.Op, ev.Object)
			}
			live[liveKey{ev.Set, ev.Object}] = ev
		}
		for _, m := range v.Loads {
			per := m.Bytes / v.Iters
			for iter := 0; iter < v.Iters; iter++ {
				inst := instanceName(m.Datum, iter)
				placed, ok := live[liveKey{v.Set, inst}]
				if !ok {
					if a.IsStreamed(m.Datum) {
						// Arrives just in time for its first
						// consumer; emitted when its in-visit
						// placement event arrives. A streamed
						// datum that is RETAINED is instead
						// placed pre-visit (phase 1 of the
						// allocator), so it is already live here
						// and its one charged load is emitted
						// below like any resident input.
						continue
					}
					return nil, fmt.Errorf("codegen: load of unplaced %s (visit c%d b%d)", inst, v.Cluster, v.Block)
				}
				in := base
				in.Op = OpLdFB
				in.Object = inst
				in.Datum = m.Datum
				in.Set = placed.Set
				in.Addr = placed.Addr
				in.Bytes = per
				prog.Instrs = append(prog.Instrs, in)
			}
		}
		// Execution follows the paper's loop fission (Figure 3): each
		// kernel's contexts are loaded once and the kernel runs all of
		// the visit's iterations back to back, so the Context Memory
		// never needs more than the executing kernel (plus whatever
		// prefetch fits). Context loads are omitted for kernels still
		// resident from an earlier visit.
		// CtxLoads is ordered like the cluster's kernels (kernels whose
		// group was a Context Memory hit contribute no entry; a group
		// larger than the whole CM streams once per kernel). Walk both
		// in lockstep so every charged load is emitted exactly once.
		ctxCursor := 0
		for _, ki := range s.P.Clusters[v.Cluster].Kernels {
			k := a.Kernels[ki]
			if ctxCursor < len(v.CtxLoads) && v.CtxLoads[ctxCursor].Datum == k.CtxGroup() {
				in := base
				in.Op = OpLdCtxt
				in.Kernel = k.CtxGroup()
				in.Words = v.CtxLoads[ctxCursor].Bytes
				prog.Instrs = append(prog.Instrs, in)
				ctxCursor++
			}
			for iter := 0; iter < v.Iters; iter++ {
				in := base
				in.Op = OpExec
				in.Kernel = k.Name
				in.Iter = iter
				prog.Instrs = append(prog.Instrs, in)
			}
		}
		if ctxCursor != len(v.CtxLoads) {
			return nil, fmt.Errorf("codegen: visit c%d b%d: %d context loads not attributable to kernels",
				v.Cluster, v.Block, len(v.CtxLoads)-ctxCursor)
		}
		// Result placements and releases follow; stores are emitted
		// just before their space is reclaimed.
		for _, ev := range evRest {
			switch ev.Op {
			case core.OpAlloc:
				live[liveKey{ev.Set, ev.Object}] = ev
				if a.IsStreamed(ev.Datum) {
					// A just-in-time tile load.
					in := base
					in.Op = OpLdFB
					in.Object = ev.Object
					in.Datum = ev.Datum
					in.Set = ev.Set
					in.Addr = ev.Addr
					in.Bytes = ev.Bytes
					in.Iter = ev.Iter
					prog.Instrs = append(prog.Instrs, in)
				}
			case core.OpRelease:
				k := liveKey{ev.Set, ev.Object}
				placed, ok := live[k]
				if !ok {
					return nil, fmt.Errorf("codegen: release of untracked %s (set %d)", ev.Object, ev.Set)
				}
				if pending[ev.Object] {
					emitStore(ev, placed)
					delete(pending, ev.Object)
				}
				delete(live, k)
			}
		}
		// Stores whose instances stay resident (retained final
		// results): drain them from their live placement, in
		// deterministic order.
		rest := make([]string, 0, len(pending))
		for inst := range pending {
			rest = append(rest, inst)
		}
		sort.Strings(rest)
		for _, inst := range rest {
			placed, ok := live[liveKey{v.Set, inst}]
			if !ok {
				return nil, fmt.Errorf("codegen: store of absent %s (visit c%d b%d)", inst, v.Cluster, v.Block)
			}
			ev := core.AllocEvent{Object: inst, Iter: -1}
			emitStore(ev, placed)
		}
	}
	return prog, nil
}

func instanceName(datum string, iter int) string {
	return fmt.Sprintf("%s#i%d", datum, iter)
}
