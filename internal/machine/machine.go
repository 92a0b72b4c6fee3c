// Package machine executes a data schedule FUNCTIONALLY: external memory,
// the Frame Buffer sets and every transfer move real bytes, and kernels
// compute real (pluggable) functions over their operands. It exists to
// prove the schedulers' headline safety property end to end:
//
//	whatever the scheduler does — reuse factors, in-place replacement,
//	retention, cross-set reads, tiling — the observable outputs (the
//	final results written to external memory) are byte-identical.
//
// The Basic Scheduler moves ~2x the data of the Complete Data Scheduler
// on some workloads; this package shows they still compute the same
// thing.
//
// A run records the schedule's allocation replay
// (core.AllocateWithOptions) and walks it with core.Replay, the
// execution-order walk the verifier's liveness check also runs on:
// placements and releases apply in replay order, each kernel step and
// each visit's stores run between them, and a read of an instance
// absent from the reader's set takes the copy on the lowest set that
// holds it. The machine itself keeps only the bytes: one
// external-memory entry per (datum, absolute iteration) and one byte
// slice per Frame Buffer set. A placement is the range [Addr,
// Addr+Bytes) of its set, so a split placement is copied as one
// contiguous range from its first extent's address.
package machine

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strconv"
	"strings"

	"cds/internal/core"
)

// Semantics computes one kernel invocation: given the kernel name, the
// absolute iteration and the input bytes (keyed by datum name), it
// returns the output bytes (keyed by datum name; sizes must match the
// application's declared sizes, which are given in outputs).
type Semantics func(kernel string, absIter int, inputs map[string][]byte, outputs map[string]int) (map[string][]byte, error)

// DefaultSemantics returns a deterministic mixing function: every output
// byte depends on the kernel name, the output datum, the absolute
// iteration and every input byte. Two executions agree if and only if
// their (kernel, iteration, inputs) agree — exactly what the equivalence
// tests need.
func DefaultSemantics() Semantics {
	return func(kernel string, absIter int, inputs map[string][]byte, outputs map[string]int) (map[string][]byte, error) {
		// Hash all inputs in deterministic (sorted) order.
		names := make([]string, 0, len(inputs))
		for n := range inputs {
			names = append(names, n)
		}
		sort.Strings(names)
		h := fnv.New64a()
		h.Write([]byte(kernel))
		var ib [8]byte
		binary.LittleEndian.PutUint64(ib[:], uint64(absIter))
		h.Write(ib[:])
		for _, n := range names {
			h.Write([]byte(n))
			h.Write(inputs[n])
		}
		seed := h.Sum64()

		out := make(map[string][]byte, len(outputs))
		for name, size := range outputs {
			buf := make([]byte, size)
			state := seed ^ fnvString(name)
			for i := range buf {
				// xorshift64 keeps it cheap and deterministic.
				state ^= state << 13
				state ^= state >> 7
				state ^= state << 17
				buf[i] = byte(state)
			}
			out[name] = buf
		}
		return out, nil
	}
}

func fnvString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// InputBytes deterministically generates the external input data for one
// datum at one absolute iteration.
func InputBytes(seed int64, datum string, absIter, size int) []byte {
	buf := make([]byte, size)
	state := uint64(seed)*0x9e3779b97f4a7c15 ^ fnvString(datum) ^ uint64(absIter)*0xbf58476d1ce4e5b9
	if state == 0 {
		state = 1
	}
	for i := range buf {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		buf[i] = byte(state)
	}
	return buf
}

// Result is the outcome of a functional run.
type Result struct {
	// Ext is the final external memory: every stored result (and the
	// untouched inputs), keyed "datum@iteration".
	Ext map[string][]byte
	// LoadedBytes/StoredBytes/KernelRuns count the functional activity.
	LoadedBytes, StoredBytes, KernelRuns int
}

// FinalOutputs extracts only the application's final results, the
// observable behavior that must match across schedulers.
func (r *Result) FinalOutputs(s *core.Schedule) map[string][]byte {
	out := map[string][]byte{}
	a := s.P.App
	for key, data := range r.Ext {
		name := key[:strings.LastIndex(key, "@")]
		if a.IsFinalResult(name) {
			out[key] = data
		}
	}
	return out
}

// Hooks intercept the machine's external-memory transfers before the
// bytes move. A non-nil return aborts the run with that error (wrapped
// with the transfer's identity), which is how the fault-injection
// harness (internal/faultmachine) models DMA transfer failures; a nil
// return lets the transfer proceed untouched. Either hook may be nil.
type Hooks struct {
	// OnLoad fires before a datum instance is read from external
	// memory into the Frame Buffer.
	OnLoad func(datum string, absIter, size int) error
	// OnStore fires before a result instance is written back to
	// external memory.
	OnStore func(datum string, absIter, size int) error
}

// Run executes the schedule functionally with the given input seed and
// kernel semantics (nil means DefaultSemantics).
func Run(s *core.Schedule, seed int64, sem Semantics) (*Result, error) {
	return RunWithHooks(s, seed, sem, nil)
}

// RunWithHooks is Run with transfer interception (see Hooks).
func RunWithHooks(s *core.Schedule, seed int64, sem Semantics, hooks *Hooks) (*Result, error) {
	if sem == nil {
		sem = DefaultSemantics()
	}
	if hooks == nil {
		hooks = &Hooks{}
	}
	a := s.P.App

	rep, err := core.AllocateWithOptions(s, core.AllocOptions{AllowSplit: true})
	if err != nil {
		return nil, fmt.Errorf("machine: %w", err)
	}
	r, err := core.NewReplay(s, rep)
	if err != nil {
		return nil, fmt.Errorf("machine: %w", err)
	}

	// ext[id*extIters+abs] is external memory's copy of datum id's
	// instance of absolute iteration abs: inputs are generated lazily;
	// results appear when stored.
	extIters := 0
	for i := range s.NumVisits() {
		v := s.Visit(i)
		extIters = max(extIters, v.Block*s.RF+v.Iters)
	}
	ext := make([][]byte, a.NumData()*extIters)

	// fbs[set] is one Frame Buffer set's bytes. A placement is the
	// bytes [Addr, Addr+Bytes) of its set.
	fbBytes := s.Arch.FBSetBytes
	slab := make([]byte, r.Sets*fbBytes)
	fbs := make([][]byte, r.Sets)
	for set := range fbs {
		fbs[set] = slab[set*fbBytes : (set+1)*fbBytes : (set+1)*fbBytes]
	}
	bytesOf := func(slot int) []byte {
		ev := r.Placed(slot)
		return fbs[ev.Set][ev.Addr : ev.Addr+ev.Bytes]
	}

	res := &Result{}
	// The walk applies placements and releases in the exact order the
	// allocator decided (a later placement may legally reuse a released
	// address, so order matters for the bytes) and runs each kernel
	// step and each visit's stores between them. Its errors, and the
	// hooks' below, take the "machine: " prefix once, at the end.
	err = r.Walk(core.ReplayHooks{
		// A placement of a datum the visit loads is filled from
		// external memory.
		Event: func(vi, slot int, ev *core.AllocEvent, load bool) error {
			if !load {
				return nil
			}
			id := r.Inst.Datum(int(ev.Inst))
			datum, abs := a.DatumName(id), s.Visit(vi).Block*s.RF+r.Inst.Iter(int(ev.Inst))
			if hooks.OnLoad != nil {
				if err := hooks.OnLoad(datum, abs, a.SizeByID(id)); err != nil {
					return fmt.Errorf("load of %s@%d: %w", datum, abs, err)
				}
			}
			data := ext[int(id)*extIters+abs]
			if data == nil {
				if !a.IsExternalInput(datum) {
					return fmt.Errorf("load of %s@%d which was never stored", datum, abs)
				}
				data = InputBytes(seed, datum, abs, a.SizeByID(id))
				ext[int(id)*extIters+abs] = data
			}
			if len(data) != ev.Bytes {
				return fmt.Errorf("%s: external size %d != placement %d", rep.Object(*ev), len(data), ev.Bytes)
			}
			copy(bytesOf(slot), data)
			res.LoadedBytes += ev.Bytes
			return nil
		},
		// Execute: loop fission order (each kernel runs all the visit's
		// iterations back to back).
		Step: func(vi, ki, iter int) error {
			v := s.Visit(vi)
			k := a.Kernels[ki]
			inputs := make(map[string][]byte, len(k.Inputs))
			for _, id := range a.KernelInputIDs(ki) {
				slot := r.Find(v.Set, r.Inst.Key(id, iter))
				if slot < 0 {
					return fmt.Errorf("kernel %s misses input %s#i%d (visit c%d b%d)",
						k.Name, a.DatumName(id), iter, v.Cluster, v.Block)
				}
				inputs[a.DatumName(id)] = slices.Clone(bytesOf(slot))
			}
			outSizes := make(map[string]int, len(k.Outputs))
			for _, out := range k.Outputs {
				outSizes[out] = a.SizeOf(out)
			}
			outs, err := sem(k.Name, v.Block*s.RF+iter, inputs, outSizes)
			if err != nil {
				return fmt.Errorf("kernel %s: %w", k.Name, err)
			}
			for _, id := range a.KernelOutputIDs(ki) {
				out := a.DatumName(id)
				data, ok := outs[out]
				if !ok || len(data) != a.SizeByID(id) {
					return fmt.Errorf("kernel %s produced %d bytes for %s, want %d",
						k.Name, len(data), out, a.SizeByID(id))
				}
				slot := r.Find(v.Set, r.Inst.Key(id, iter))
				if slot < 0 {
					return fmt.Errorf("no placement for output %s#i%d", out, iter)
				}
				copy(bytesOf(slot), data)
			}
			res.KernelRuns++
			return nil
		},
		// Stores: copy results back to external memory.
		Stores: func(vi int) error {
			v := s.Visit(vi)
			for _, m := range v.Stores {
				id := a.DatumID(m.Datum)
				for iter := 0; iter < v.Iters; iter++ {
					abs := v.Block*s.RF + iter
					if hooks.OnStore != nil {
						if err := hooks.OnStore(m.Datum, abs, a.SizeOf(m.Datum)); err != nil {
							return fmt.Errorf("store of %s@%d: %w", m.Datum, abs, err)
						}
					}
					slot := -1
					if id >= 0 {
						slot = r.Find(v.Set, r.Inst.Key(int32(id), iter))
					}
					if slot < 0 {
						return fmt.Errorf("store of unplaced %s#i%d", m.Datum, iter)
					}
					ext[id*extIters+abs] = slices.Clone(bytesOf(slot))
					res.StoredBytes += r.Placed(slot).Bytes
				}
			}
			return nil
		},
	})
	if err != nil {
		return nil, fmt.Errorf("machine: %w", err)
	}

	res.Ext = map[string][]byte{}
	for k, data := range ext {
		if data != nil {
			res.Ext[a.DatumName(int32(k/extIters))+"@"+strconv.Itoa(k%extIters)] = data
		}
	}
	return res, nil
}
