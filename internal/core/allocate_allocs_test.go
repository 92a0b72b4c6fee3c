package core_test

import (
	"reflect"
	"testing"

	"cds/internal/core"
	"cds/internal/workloads"
)

// TestAllocateAllocs pins the allocation replay's cost on the MPEG CDS
// schedule (780 events): the allocators and the preferred-address table
// are keyed by instance key, so no instance name is built, and
// single-extent placements share the allocator's extent slab, so nothing
// allocates per event. The summary replay (Allocate) keeps no event
// list; the recording one (AllocateWithOptions) sizes its list up front
// and notes its period, two allocations more (it stores 104 of the 780
// events). The replay made 2232 allocations when every event
// formatted its instance name and every placement had its own Extents,
// and 92 while the allocator was keyed by instance name.
func TestAllocateAllocs(t *testing.T) {
	e := workloads.MPEG()
	s, err := (core.CompleteDataScheduler{}).Schedule(e.Arch, e.Part)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := core.Allocate(s, true); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 68 {
		t.Errorf("Allocate makes %.0f allocations, want <= 68", allocs)
	}
	allocs = testing.AllocsPerRun(100, func() {
		if _, err := core.AllocateWithOptions(s, core.AllocOptions{AllowSplit: true}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 69 {
		t.Errorf("AllocateWithOptions makes %.0f allocations, want <= 69", allocs)
	}
}

// TestAllocEventHoldsNoPointers pins the event's shape: no field, at any
// depth, is a pointer, string, slice, map or interface, so the garbage
// collector never scans a report's event slice. The report names the
// events' instances (Object, DatumName).
func TestAllocEventHoldsNoPointers(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		default:
			t.Errorf("%s is a %s, which holds a pointer", path, typ.Kind())
		}
	}
	walk("AllocEvent", reflect.TypeOf(core.AllocEvent{}))
}
