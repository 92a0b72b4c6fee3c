// Package app models applications the way the MorphoSys compilation
// framework sees them: an ordered sequence of kernels (macro-tasks) that is
// executed iteratively over streaming input, where each kernel is
// characterized by its context words, its computation time and its input
// and output data. Kernel-to-kernel data flow is expressed by naming data
// objects; a datum produced by one kernel and consumed by a later one is an
// intermediate result, a datum with no producer is external input, and a
// datum with no consumer (or explicitly marked final) must be written back
// to external memory.
package app

import (
	"fmt"
	"sort"
)

// Datum is one data object moved between external memory, the Frame Buffer
// and kernels. Size is the per-iteration size in bytes.
type Datum struct {
	Name string
	Size int
	// Final forces the datum to be treated as a final result that must
	// be stored to external memory even if some kernel also consumes it.
	// Data with no consumers are final regardless of this flag.
	Final bool
	// Streamed marks an input that is brought into the Frame Buffer
	// just in time for its first consuming kernel instead of before the
	// cluster starts. Intra-kernel tiling (TileKernel) marks its input
	// slices streamed: that is where its footprint saving comes from.
	Streamed bool
}

// IsStreamed reports whether the named datum is loaded just in time.
func (a *App) IsStreamed(name string) bool {
	d, ok := a.DatumByName(name)
	return ok && d.Streamed
}

// Kernel is one macro-task mapped onto the RC array. At the scheduling
// abstraction level it is fully described by its context volume, its
// per-iteration computation time, and the names of the data it reads and
// writes.
type Kernel struct {
	Name          string
	ContextWords  int
	ComputeCycles int
	Inputs        []string
	Outputs       []string
	// ContextGroup names the configuration the kernel runs under; empty
	// means the kernel has its own ("Name"). Sub-kernels produced by
	// intra-kernel tiling share one group: their contexts are loaded
	// once and reused across the tiles.
	ContextGroup string
}

// CtxGroup returns the kernel's context group (its name by default).
func (k Kernel) CtxGroup() string {
	if k.ContextGroup != "" {
		return k.ContextGroup
	}
	return k.Name
}

// App is a validated application: a kernel sequence plus its data objects.
// Construct it with a Builder; a zero App is empty but safe to query.
type App struct {
	Name string
	// Iterations is the number of times the full kernel sequence must
	// run to consume the application's input stream (the paper's n).
	Iterations int

	Data    []Datum
	Kernels []Kernel

	dataIdx   map[string]int
	producer  map[string]int   // datum -> producing kernel index
	consumers map[string][]int // datum -> consuming kernel indices, ascending

	// Interned-ID tables, built by finalize (see intern.go). A datum's
	// dense ID is its index into Data; hot paths index these slices
	// instead of hashing names.
	kernelIn   [][]int32 // per kernel: input datum IDs in declared order
	kernelOut  [][]int32 // per kernel: output datum IDs in declared order
	producerID []int32   // per datum: producing kernel index, -1 if external
	lastUseID  []int32   // per datum: last consuming kernel index, -1 if none
	ctxGroupOf []int32   // per kernel: context group ID
	ctxGroups  []string  // per context group ID: the group's name
}

// NumKernels returns the number of kernels in the sequence.
func (a *App) NumKernels() int { return len(a.Kernels) }

// DatumByName returns the datum with the given name.
func (a *App) DatumByName(name string) (Datum, bool) {
	i, ok := a.dataIdx[name]
	if !ok {
		return Datum{}, false
	}
	return a.Data[i], true
}

// SizeOf returns the per-iteration size of the named datum, or 0 if the
// datum does not exist.
func (a *App) SizeOf(name string) int {
	d, ok := a.DatumByName(name)
	if !ok {
		return 0
	}
	return d.Size
}

// Producer returns the index of the kernel that produces the named datum.
// ok is false for external inputs (and unknown names).
func (a *App) Producer(name string) (int, bool) {
	k, ok := a.producer[name]
	return k, ok
}

// Consumers returns the indices of the kernels that read the named datum,
// in execution order. The returned slice must not be modified.
func (a *App) Consumers(name string) []int { return a.consumers[name] }

// IsExternalInput reports whether the datum comes from external memory
// (has no producing kernel).
func (a *App) IsExternalInput(name string) bool {
	_, produced := a.producer[name]
	_, known := a.dataIdx[name]
	return known && !produced
}

// IsFinalResult reports whether the datum must be stored to external
// memory: it is produced by some kernel and either has no consumers or is
// explicitly marked Final.
func (a *App) IsFinalResult(name string) bool {
	_, produced := a.producer[name]
	if !produced {
		return false
	}
	d, _ := a.DatumByName(name)
	return d.Final || len(a.consumers[name]) == 0
}

// TotalDataBytes returns the sum of all datum sizes (the paper's TDS,
// total data and result sizes) per iteration.
func (a *App) TotalDataBytes() int {
	sum := 0
	for _, d := range a.Data {
		sum += d.Size
	}
	return sum
}

// TotalContextWords returns the sum of all kernels' context words.
func (a *App) TotalContextWords() int {
	sum := 0
	for _, k := range a.Kernels {
		sum += k.ContextWords
	}
	return sum
}

// KernelIndex returns the position of the named kernel in the sequence.
func (a *App) KernelIndex(name string) (int, bool) {
	for i, k := range a.Kernels {
		if k.Name == name {
			return i, true
		}
	}
	return 0, false
}

// LastConsumer returns the index of the last kernel that reads the named
// datum, or -1 if nothing consumes it.
func (a *App) LastConsumer(name string) int {
	cs := a.consumers[name]
	if len(cs) == 0 {
		return -1
	}
	return cs[len(cs)-1]
}

// Finalize validates a hand-assembled App and builds its lookup tables.
// Apps constructed through Builder never need it; deserializers (e.g. the
// JSON spec loader) do.
func (a *App) Finalize() error { return a.finalize() }

// finalize builds the derived lookup tables and checks structural
// invariants. It is called by Builder.Build.
func (a *App) finalize() error {
	if a.Iterations < 1 {
		return fmt.Errorf("app %q: Iterations must be >= 1, got %d", a.Name, a.Iterations)
	}
	if len(a.Kernels) == 0 {
		return fmt.Errorf("app %q: no kernels", a.Name)
	}
	a.dataIdx = make(map[string]int, len(a.Data))
	for i, d := range a.Data {
		if d.Name == "" {
			return fmt.Errorf("app %q: datum %d has empty name", a.Name, i)
		}
		if d.Size <= 0 {
			return fmt.Errorf("app %q: datum %q has non-positive size %d", a.Name, d.Name, d.Size)
		}
		if _, dup := a.dataIdx[d.Name]; dup {
			return fmt.Errorf("app %q: duplicate datum %q", a.Name, d.Name)
		}
		a.dataIdx[d.Name] = i
	}
	a.producer = make(map[string]int)
	a.consumers = make(map[string][]int)
	seenKernel := make(map[string]bool, len(a.Kernels))
	for ki, k := range a.Kernels {
		if k.Name == "" {
			return fmt.Errorf("app %q: kernel %d has empty name", a.Name, ki)
		}
		if seenKernel[k.Name] {
			return fmt.Errorf("app %q: duplicate kernel %q", a.Name, k.Name)
		}
		seenKernel[k.Name] = true
		if k.ContextWords <= 0 {
			return fmt.Errorf("app %q: kernel %q has non-positive context words %d", a.Name, k.Name, k.ContextWords)
		}
		if k.ComputeCycles <= 0 {
			return fmt.Errorf("app %q: kernel %q has non-positive compute cycles %d", a.Name, k.Name, k.ComputeCycles)
		}
		for _, in := range k.Inputs {
			if _, ok := a.dataIdx[in]; !ok {
				return fmt.Errorf("app %q: kernel %q reads unknown datum %q", a.Name, k.Name, in)
			}
			a.consumers[in] = append(a.consumers[in], ki)
		}
		for _, out := range k.Outputs {
			if _, ok := a.dataIdx[out]; !ok {
				return fmt.Errorf("app %q: kernel %q writes unknown datum %q", a.Name, k.Name, out)
			}
			if prev, dup := a.producer[out]; dup {
				return fmt.Errorf("app %q: datum %q produced by both %q and %q",
					a.Name, out, a.Kernels[prev].Name, k.Name)
			}
			a.producer[out] = ki
		}
	}
	// Data flow must follow the kernel sequence: a consumer may not run
	// before its producer (same kernel is also illegal: a kernel cannot
	// read its own output of the current iteration).
	for name, cs := range a.consumers {
		sort.Ints(cs)
		if p, produced := a.producer[name]; produced && cs[0] <= p {
			return fmt.Errorf("app %q: kernel %q consumes %q before (or while) kernel %q produces it",
				a.Name, a.Kernels[cs[0]].Name, name, a.Kernels[p].Name)
		}
	}
	// Every datum must be attached to at least one kernel.
	for _, d := range a.Data {
		if _, p := a.producer[d.Name]; !p && len(a.consumers[d.Name]) == 0 {
			return fmt.Errorf("app %q: datum %q is neither produced nor consumed", a.Name, d.Name)
		}
	}
	a.internIDs()
	return nil
}
