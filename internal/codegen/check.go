package codegen

import (
	"fmt"

	"cds/internal/app"
	"cds/internal/arch"
	"cds/internal/core"
)

// CheckReport summarizes a successful replay of a program against the
// machine's transfer discipline.
type CheckReport struct {
	// LoadBytes, StoreBytes, CtxWords are the volumes the program
	// moves; they must match the schedule it was generated from.
	LoadBytes, StoreBytes, CtxWords int
	// Execs counts kernel invocations.
	Execs int
}

// Check replays the program and enforces the MorphoSys transfer rules:
//
//   - LDCTXT must fit the Context Memory (FIFO eviction applies);
//   - EXEC requires the kernel's contexts to be resident;
//   - LDFB/STFB regions must lie inside the Frame Buffer set;
//   - STFB objects are canonical instance names ("<datum>#i<slot>",
//     core.ParseInstance) whose slot some visit of the schedule runs;
//   - STFB may only drain an object some EXEC produced in the same visit
//     (a kernel of the executing cluster writes that datum), or that a
//     prior LDFB brought in (re-store of pass-through data is rejected —
//     the schedulers never generate it).
//
// When sched is non-nil, the program's transfer volumes are also required
// to match the schedule's totals exactly.
func Check(p *Program, sched *core.Schedule) (*CheckReport, error) {
	if p == nil {
		return nil, fmt.Errorf("codegen: nil program")
	}
	if err := p.Arch.Validate(); err != nil {
		return nil, err
	}
	rep := &CheckReport{}

	var (
		a    *app.App
		inst core.Instances
		// produced[key] marks an instance an EXEC'd kernel wrote that
		// is still storable.
		produced []bool
		// groups names the context groups by ID, in order of first
		// use: with a schedule the app's groups come first, appGroups
		// of them. words[g] is group g's context words under the
		// schedule, 0 for a group the app does not have.
		groups    []string
		words     []int
		appGroups int
	)
	groupID := map[string]int{}
	intern := func(name string) int {
		g, ok := groupID[name]
		if !ok {
			g = len(groups)
			groupID[name] = g
			groups = append(groups, name)
			words = append(words, 0)
		}
		return g
	}
	if sched != nil {
		a = sched.P.App
		if !a.Finalized() {
			return nil, fmt.Errorf("codegen: app %q is not finalized", a.Name)
		}
		inst = core.InstancesOf(sched)
		produced = make([]bool, inst.Len())
		for ki := range a.Kernels {
			words[intern(a.Kernels[ki].CtxGroup())] = a.Kernels[ki].ContextWords
		}
		appGroups = len(groups)
	}
	cm := arch.NewContextMemory(p.Arch.CMWords, len(groups), func(g int) string { return groups[g] })

	// EXECs of one kernel come in runs: remember the last one's index.
	lastKernel := -1

	for idx, in := range p.Instrs {
		fail := func(format string, args ...interface{}) error {
			return fmt.Errorf("codegen: instr %d (%s): %s", idx, in, fmt.Sprintf(format, args...))
		}
		switch in.Op {
		case OpLdCtxt:
			if in.Words <= 0 {
				return nil, fail("non-positive context words")
			}
			g := intern(in.Kernel)
			want := in.Words
			if sched != nil {
				if g < appGroups && in.Words > words[g] {
					return nil, fail("loads %d words but kernel has %d", in.Words, words[g])
				}
				want = words[g]
			}
			if want <= p.Arch.CMWords {
				if _, err := cm.Load(g, want); err != nil {
					return nil, fail("context memory: %v", err)
				}
			}
			// Kernels larger than the whole CM stream their contexts
			// every visit; the residency check is skipped for them.
			rep.CtxWords += in.Words
		case OpLdFB:
			if err := fbRange(p.Arch, in); err != nil {
				return nil, fail("%v", err)
			}
			rep.LoadBytes += in.Bytes
		case OpStFB:
			if err := fbRange(p.Arch, in); err != nil {
				return nil, fail("%v", err)
			}
			if sched != nil {
				datum, slot, ok := core.ParseInstance(in.Object)
				if !ok || slot >= inst.Iters {
					return nil, fail("malformed instance name %q: want <datum>#i<slot> with slot in [0,%d)", in.Object, inst.Iters)
				}
				id := a.DatumID(datum)
				if id < 0 || !produced[inst.Key(int32(id), slot)] {
					return nil, fail("stores %s which no executed kernel produced", in.Object)
				}
				produced[inst.Key(int32(id), slot)] = false
			}
			rep.StoreBytes += in.Bytes
		case OpExec:
			ki := -1
			if sched != nil {
				if lastKernel >= 0 && a.Kernels[lastKernel].Name == in.Kernel {
					ki = lastKernel
				} else if k, ok := a.KernelIndex(in.Kernel); ok {
					ki, lastKernel = k, k
				}
			}
			if sched != nil {
				group := in.Kernel
				if ki >= 0 {
					group = a.Kernels[ki].CtxGroup()
				}
				if g := intern(group); !cm.Resident(g) && words[g] <= p.Arch.CMWords {
					return nil, fail("kernel %s has no contexts resident", in.Kernel)
				}
			}
			if ki >= 0 && in.Iter >= 0 && in.Iter < inst.Iters {
				for _, id := range a.KernelOutputIDs(ki) {
					produced[inst.Key(id, in.Iter)] = true
				}
			}
			rep.Execs++
		default:
			return nil, fail("unknown op")
		}
	}

	if sched != nil {
		if rep.LoadBytes != sched.TotalLoadBytes() {
			return nil, fmt.Errorf("codegen: program loads %d bytes, schedule says %d",
				rep.LoadBytes, sched.TotalLoadBytes())
		}
		if rep.StoreBytes != sched.TotalStoreBytes() {
			return nil, fmt.Errorf("codegen: program stores %d bytes, schedule says %d",
				rep.StoreBytes, sched.TotalStoreBytes())
		}
		if rep.CtxWords != sched.TotalCtxWords() {
			return nil, fmt.Errorf("codegen: program loads %d context words, schedule says %d",
				rep.CtxWords, sched.TotalCtxWords())
		}
		wantExecs := 0
		for i := range sched.NumVisits() {
			v := sched.Visit(i)
			wantExecs += v.Iters * len(sched.P.Clusters[v.Cluster].Kernels)
		}
		if rep.Execs != wantExecs {
			return nil, fmt.Errorf("codegen: program has %d EXECs, schedule implies %d", rep.Execs, wantExecs)
		}
	}
	return rep, nil
}

func fbRange(pa arch.Params, in Instr) error {
	if in.Bytes <= 0 {
		return fmt.Errorf("non-positive transfer size %d", in.Bytes)
	}
	if in.Addr < 0 || in.Addr+in.Bytes > pa.FBSetBytes {
		return fmt.Errorf("FB region [%d,%d) outside set of %d bytes", in.Addr, in.Addr+in.Bytes, pa.FBSetBytes)
	}
	if in.Set < 0 || in.Set >= pa.FBSets {
		return fmt.Errorf("FB set %d out of range (%d sets)", in.Set, pa.FBSets)
	}
	return nil
}
