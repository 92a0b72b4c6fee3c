package codegen

import (
	"fmt"
	"slices"

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
	c, err := newChecker(p.Arch, sched)
	if err != nil {
		return nil, err
	}
	for i := range p.Instrs {
		if err := c.step(&p.Instrs[i]); err != nil {
			return nil, err
		}
	}
	if err := c.totals(); err != nil {
		return nil, err
	}
	return &c.rep, nil
}

// CheckFrom checks the program GenerateFrom(s, rep) lowers as Check(prog,
// s) does, with the same verdict and error text, without lowering every
// visit. It lowers the visits of the report's period (core.EventPeriod):
// the leading ones, the steady run and the trailing ones. Once no
// instance is placed at either end of the steady run, each later run
// lowers to the same instructions, only their blocks advanced, which
// Check does not read. It then checks the steady run's instructions run
// after run until the checker's state at the end of a run (the Context
// Memory residency and the produced table) equals the state at its
// start: each later run would repeat that run exactly, so their volumes
// and EXECs are added by arithmetic. A report without a period, or whose
// steady run leaves instances placed, is lowered and checked in full.
func CheckFrom(s *core.Schedule, rep *core.AllocationReport) (*CheckReport, error) {
	e, err := newEmitter(s, rep)
	if err != nil {
		return nil, err
	}
	// Lower the walked visits: mostly the stored ones and one steady run
	// more, as the recording. instrs[lo:hi] is the steady run's program,
	// which runs skip more times.
	per, size := s.Period(), 0
	for j := range per.Visits {
		n := e.size(&per.Visits[j])
		if per.Lead <= j && j < per.Lead+per.Len {
			n *= min(per.Repeat, 2)
		}
		size += n
	}
	instrs := make([]Instr, 0, size)
	p := rep.EventPeriod()
	lo, hi, skip, liveAt := 0, 0, 0, 0
	for vi, nv := 0, s.NumVisits(); vi < nv; vi++ {
		if p.Repeat > 1 && vi == p.First {
			lo, liveAt = len(instrs), e.nLive
		}
		if p.Repeat > 1 && vi == p.First+p.Visits && e.event == p.Lead+p.Len && liveAt == 0 && e.nLive == 0 {
			hi, skip = len(instrs), p.Repeat-1
			vi += skip * p.Visits
			e.event += skip * p.Len
			if vi == nv {
				break
			}
		}
		if instrs, err = e.visit(vi, instrs); err != nil {
			return nil, err
		}
	}
	if skip == 0 {
		lo, hi = 0, 0
	}

	c, err := newChecker(s.Arch, s)
	if err != nil {
		return nil, err
	}
	steps := func(ins []Instr) error {
		for i := range ins {
			if err := c.step(&ins[i]); err != nil {
				return err
			}
		}
		return nil
	}
	if err := steps(instrs[:lo]); err != nil {
		return nil, err
	}
	if skip > 0 {
		// st holds the checker's state at the start of the last two
		// runs, on storage taken once.
		var st [2]checkState
		g, n := 2*len(c.groups), len(c.produced)
		cms, produced := make([]int, 2*g), make([]bool, 2*n)
		st[0].cm, st[1].cm = cms[:0:g], cms[g:g:2*g]
		st[0].produced, st[1].produced = produced[:0:n], produced[n:n:2*n]
		for k := 0; k <= skip; k++ {
			cur, last := &st[k%2], &st[(k+1)%2]
			c.take(cur)
			if k > 0 && cur.same(last) {
				c.repeat(cur, last, skip+1-k, hi-lo)
				break
			}
			if err := steps(instrs[lo:hi]); err != nil {
				return nil, err
			}
		}
	}
	if err := steps(instrs[hi:]); err != nil {
		return nil, err
	}
	if err := c.totals(); err != nil {
		return nil, err
	}
	return &c.rep, nil
}

// checker holds Check's state between instructions.
type checker struct {
	pa    arch.Params
	sched *core.Schedule
	a     *app.App
	inst  core.Instances
	// produced[key] marks an instance an EXEC'd kernel wrote that is
	// still storable.
	produced []bool
	// groups names the context groups by ID, in order of first use:
	// with a schedule the app's groups come first, appGroups of them.
	// words[g] is group g's context words under the schedule, 0 for a
	// group the app does not have.
	groups    []string
	words     []int
	appGroups int
	groupID   map[string]int
	cm        *arch.ContextMemory
	// EXECs of one kernel come in runs: lastKernel is the last one's
	// index.
	lastKernel int
	rep        CheckReport
	// idx is the program index of the next instruction.
	idx int
}

func newChecker(pa arch.Params, sched *core.Schedule) (*checker, error) {
	if err := pa.Validate(); err != nil {
		return nil, err
	}
	c := &checker{pa: pa, sched: sched, lastKernel: -1}
	if sched == nil {
		c.groupID = map[string]int{}
	} else {
		c.a = sched.P.App
		if !c.a.Finalized() {
			return nil, fmt.Errorf("codegen: app %q is not finalized", c.a.Name)
		}
		c.inst = core.InstancesOf(sched)
		c.produced = make([]bool, c.inst.Len())
		// The app's groups are at most one per kernel.
		nk := len(c.a.Kernels)
		c.groupID = make(map[string]int, nk)
		c.groups, c.words = make([]string, 0, nk), make([]int, 0, nk)
		for ki := range c.a.Kernels {
			c.words[c.intern(c.a.Kernels[ki].CtxGroup())] = c.a.Kernels[ki].ContextWords
		}
		c.appGroups = len(c.groups)
	}
	c.cm = arch.NewContextMemory(pa.CMWords, len(c.groups), func(g int) string { return c.groups[g] })
	return c, nil
}

// intern returns the ID of the named context group.
func (c *checker) intern(name string) int {
	g, ok := c.groupID[name]
	if !ok {
		g = len(c.groups)
		c.groupID[name] = g
		c.groups = append(c.groups, name)
		c.words = append(c.words, 0)
	}
	return g
}

// step checks the next instruction of the program.
func (c *checker) step(in *Instr) error {
	idx := c.idx
	c.idx++
	fail := func(format string, args ...interface{}) error {
		return fmt.Errorf("codegen: instr %d (%s): %s", idx, *in, fmt.Sprintf(format, args...))
	}
	sched, a, inst := c.sched, c.a, c.inst
	switch in.Op {
	case OpLdCtxt:
		if in.Words <= 0 {
			return fail("non-positive context words")
		}
		g := c.intern(in.Kernel)
		want := in.Words
		if sched != nil {
			if g < c.appGroups && in.Words > c.words[g] {
				return fail("loads %d words but kernel has %d", in.Words, c.words[g])
			}
			want = c.words[g]
		}
		if want <= c.pa.CMWords {
			if _, err := c.cm.Load(g, want); err != nil {
				return fail("context memory: %v", err)
			}
		}
		// Kernels larger than the whole CM stream their contexts
		// every visit; the residency check is skipped for them.
		c.rep.CtxWords += in.Words
	case OpLdFB:
		if err := fbRange(c.pa, in); err != nil {
			return fail("%v", err)
		}
		c.rep.LoadBytes += in.Bytes
	case OpStFB:
		if err := fbRange(c.pa, in); err != nil {
			return fail("%v", err)
		}
		if sched != nil {
			datum, slot, ok := core.ParseInstance(in.Object)
			if !ok || slot >= inst.Iters {
				return fail("malformed instance name %q: want <datum>#i<slot> with slot in [0,%d)", in.Object, inst.Iters)
			}
			id := a.DatumID(datum)
			if id < 0 || !c.produced[inst.Key(int32(id), slot)] {
				return fail("stores %s which no executed kernel produced", in.Object)
			}
			c.produced[inst.Key(int32(id), slot)] = false
		}
		c.rep.StoreBytes += in.Bytes
	case OpExec:
		ki := -1
		if sched != nil {
			if c.lastKernel >= 0 && a.Kernels[c.lastKernel].Name == in.Kernel {
				ki = c.lastKernel
			} else if k, ok := a.KernelIndex(in.Kernel); ok {
				ki, c.lastKernel = k, k
			}
			group := in.Kernel
			if ki >= 0 {
				group = a.Kernels[ki].CtxGroup()
			}
			if g := c.intern(group); !c.cm.Resident(g) && c.words[g] <= c.pa.CMWords {
				return fail("kernel %s has no contexts resident", in.Kernel)
			}
		}
		if ki >= 0 && in.Iter >= 0 && in.Iter < inst.Iters {
			for _, id := range a.KernelOutputIDs(ki) {
				c.produced[inst.Key(id, in.Iter)] = true
			}
		}
		c.rep.Execs++
	default:
		return fail("unknown op")
	}
	return nil
}

// totals checks the program's volumes and EXECs against the schedule's,
// when there is one.
func (c *checker) totals() error {
	sched, rep := c.sched, &c.rep
	if sched == nil {
		return nil
	}
	if rep.LoadBytes != sched.TotalLoadBytes() {
		return fmt.Errorf("codegen: program loads %d bytes, schedule says %d",
			rep.LoadBytes, sched.TotalLoadBytes())
	}
	if rep.StoreBytes != sched.TotalStoreBytes() {
		return fmt.Errorf("codegen: program stores %d bytes, schedule says %d",
			rep.StoreBytes, sched.TotalStoreBytes())
	}
	if rep.CtxWords != sched.TotalCtxWords() {
		return fmt.Errorf("codegen: program loads %d context words, schedule says %d",
			rep.CtxWords, sched.TotalCtxWords())
	}
	wantExecs := sched.Sum(func(v *core.Visit) int { return v.Iters * len(sched.P.Clusters[v.Cluster].Kernels) })
	if rep.Execs != wantExecs {
		return fmt.Errorf("codegen: program has %d EXECs, schedule implies %d", rep.Execs, wantExecs)
	}
	return nil
}

// checkState is the checker's state at a steady-run boundary: what
// decides how the next run's instructions check (the Context Memory
// residency and the produced table) and the counts so far. A group the
// run names first gets its ID in the first run, which decides nothing.
type checkState struct {
	cm       []int
	produced []bool
	rep      CheckReport
}

// take records the checker's state in st, reusing st's storage.
func (c *checker) take(st *checkState) {
	st.cm = c.cm.AppendResident(st.cm[:0])
	st.produced = append(st.produced[:0], c.produced...)
	st.rep = c.rep
}

// same reports whether st and o decide alike.
func (st *checkState) same(o *checkState) bool {
	return slices.Equal(st.cm, o.cm) && slices.Equal(st.produced, o.produced)
}

// repeat counts n more runs of size instructions, each adding what the
// run from last to cur added.
func (c *checker) repeat(cur, last *checkState, n, size int) {
	r, a, b := &c.rep, &cur.rep, &last.rep
	r.LoadBytes += n * (a.LoadBytes - b.LoadBytes)
	r.StoreBytes += n * (a.StoreBytes - b.StoreBytes)
	r.CtxWords += n * (a.CtxWords - b.CtxWords)
	r.Execs += n * (a.Execs - b.Execs)
	c.idx += n * size
}

func fbRange(pa arch.Params, in *Instr) error {
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
