package verify

import (
	"cds/internal/core"
)

// checkLiveness replays the allocation events against the execution
// order (the same replay discipline the functional machine uses, minus
// the bytes) and asserts the data-flow invariants:
//
//   - every datum a kernel reads is PLACED in some Frame Buffer set at
//     that step (not released earlier — a dead read) and WRITTEN (loaded
//     from external memory or produced by an earlier kernel — not a read
//     of garbage);
//   - every external load brings in either a true external input or a
//     result some earlier visit stored (the external memory never serves
//     a datum nothing wrote);
//   - every store drains a placed, written instance.
//
// The replay emits each visit's events contiguously and in execution
// order: pre-visit placements, then kernel by kernel each iteration's
// step, then end-of-visit releases. A step event out of that order is
// itself a violation.
func checkLiveness(s *core.Schedule, rep *core.AllocationReport) error {
	a := s.P.App
	t := tablesOf(s, rep)
	n := t.inst.Len()

	// state[set*n+key] records an instance's placement on a set.
	const (
		placed  = 1 << iota // resident
		written             // resident AND carrying real bytes
	)
	state := make([]uint8, t.sets*n)
	// findPlacement returns the state slot of the instance on the
	// visit's own set, else on the lowest other set it is live on, or
	// -1.
	findPlacement := func(set, key int) int {
		if state[set*n+key]&placed != 0 {
			return set*n + key
		}
		for o := range t.sets {
			if state[o*n+key]&placed != 0 {
				return o*n + key
			}
		}
		return -1
	}

	// extWritten[id*ext+abs] marks datum id's result of absolute
	// iteration abs as stored to external memory.
	ext := 0
	for _, v := range s.Visits {
		ext = max(ext, v.Block*s.RF+v.Iters)
	}
	extWritten := make([]bool, a.NumData()*ext)
	// loading[id] == vi+1 marks a datum visit vi loads.
	loading := make([]int32, a.NumData())

	end := 0
	for vi, v := range s.Visits {
		first := end
		for end < len(rep.Events) && rep.Events[end].Block == v.Block && rep.Events[end].Cluster == v.Cluster {
			end++
		}
		run := rep.Events[first:end]
		stamp := int32(vi + 1)
		for _, m := range v.Loads {
			if id := a.DatumID(m.Datum); id >= 0 {
				loading[id] = stamp
			}
		}

		apply := func(ev *core.AllocEvent) error {
			key, slot, err := t.locate(ev, v.Iters)
			if err != nil {
				return err
			}
			switch ev.Op {
			case core.OpAlloc:
				state[slot] |= placed
				id := t.inst.Datum(key)
				if loading[id] != stamp {
					return nil
				}
				// The placement is filled from external memory: the
				// datum must exist out there.
				abs := v.Block*s.RF + t.inst.Iter(key)
				if a.ProducerID(id) >= 0 && !extWritten[int(id)*ext+abs] {
					return violated("liveness", "visit %d loads %s@%d which was never stored to external memory",
						vi, a.DatumName(id), abs)
				}
				state[slot] |= written
			case core.OpRelease:
				state[slot] = 0
			}
			return nil
		}

		for i := range run {
			if ev := &run[i]; ev.Kernel < 0 && ev.Iter == -1 {
				if err := apply(ev); err != nil {
					return err
				}
			}
		}

		// next is the cursor over the run's step events (Kernel >= 0).
		next := 0
		for _, ki := range s.P.Clusters[v.Cluster].Kernels {
			k := a.Kernels[ki]
			for slot := 0; slot < v.Iters; slot++ {
				// The step's placements come before its reads; its
				// releases after its writes.
				from := next
				for ; next < len(run); next++ {
					ev := &run[next]
					if ev.Kernel < 0 {
						continue
					}
					if ev.Kernel != ki || ev.Iter != slot {
						break
					}
					if ev.Op == core.OpAlloc {
						if err := apply(ev); err != nil {
							return err
						}
					}
				}
				for _, in := range a.KernelInputIDs(ki) {
					pk := findPlacement(v.Set, t.inst.Key(in, slot))
					if pk < 0 {
						return violated("liveness", "visit %d: kernel %s reads %s#i%d which is dead (no live placement)",
							vi, k.Name, a.DatumName(in), slot)
					}
					if state[pk]&written == 0 {
						return violated("liveness", "visit %d: kernel %s reads %s#i%d which was never written",
							vi, k.Name, a.DatumName(in), slot)
					}
				}
				for _, out := range a.KernelOutputIDs(ki) {
					pk := findPlacement(v.Set, t.inst.Key(out, slot))
					if pk < 0 {
						return violated("liveness", "visit %d: kernel %s writes %s#i%d with no live placement",
							vi, k.Name, a.DatumName(out), slot)
					}
					state[pk] |= written
				}
				for i := from; i < next; i++ {
					if ev := &run[i]; ev.Kernel >= 0 && ev.Op == core.OpRelease {
						if err := apply(ev); err != nil {
							return err
						}
					}
				}
			}
		}
		for ; next < len(run); next++ {
			if ev := &run[next]; ev.Kernel >= 0 {
				return violated("liveness", "visit %d: event %d (%s of %q, kernel %d iteration %d) is out of execution order",
					vi, first+next, ev.Op, ev.Object, ev.Kernel, ev.Iter)
			}
		}

		for _, m := range v.Stores {
			id := a.DatumID(m.Datum)
			for slot := 0; slot < v.Iters; slot++ {
				pk := -1
				if id >= 0 {
					pk = findPlacement(v.Set, t.inst.Key(int32(id), slot))
				}
				if pk < 0 {
					return violated("liveness", "visit %d stores %s#i%d which is dead (no live placement)", vi, m.Datum, slot)
				}
				if state[pk]&written == 0 {
					return violated("liveness", "visit %d stores %s#i%d which was never written", vi, m.Datum, slot)
				}
				extWritten[id*ext+v.Block*s.RF+slot] = true
			}
		}

		for i := range run {
			if ev := &run[i]; ev.Kernel < 0 && ev.Iter != -1 {
				if err := apply(ev); err != nil {
					return err
				}
			}
		}
	}
	if end < len(rep.Events) {
		ev := &rep.Events[end]
		return violated("liveness", "event %d (%s of %q, cluster %d block %d) belongs to no visit in execution order",
			end, ev.Op, ev.Object, ev.Cluster, ev.Block)
	}
	return nil
}
