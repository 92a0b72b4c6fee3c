package alloc

import "testing"

// FuzzAllocator drives the allocator with an op stream decoded from fuzz
// bytes and checks the structural invariants after every operation.
func FuzzAllocator(f *testing.F) {
	f.Add([]byte{10, 200, 3, 1, 130, 7})
	f.Add([]byte{255, 255, 0, 0, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		// Each op pair allocates at most one new key.
		fb := New(4096, len(ops)%2 == 0, len(ops)/2, objName)
		if len(ops) > 0 {
			fb.SetFitPolicy(FitPolicy(int(ops[0]) % 3))
		}
		var live []int
		id := 0
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			switch {
			case op%3 == 0 && len(live) > 0: // release
				idx := int(arg) % len(live)
				if err := fb.Release(live[idx]); err != nil {
					t.Fatal(err)
				}
				live = append(live[:idx], live[idx+1:]...)
			default: // alloc
				k := id
				id++
				size := int(arg)*16 + 1
				dir := FromTop
				if op%2 == 1 {
					dir = FromBottom
				}
				if _, err := fb.Alloc(k, size, dir, int(op)*13-1); err == nil {
					live = append(live, k)
				}
			}
			if err := fb.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	})
}
