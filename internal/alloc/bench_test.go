package alloc

import "testing"

// BenchmarkAllocReleaseChurn measures steady-state alloc/release cycles
// with the two-sided discipline the schedulers use.
func BenchmarkAllocReleaseChurn(b *testing.B) {
	const objects = 16
	fb := New(8192, false, objects, objName)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range objects {
			dir := FromTop
			if k%2 == 1 {
				dir = FromBottom
			}
			if _, err := fb.Alloc(k, 64+k*16, dir, -1); err != nil {
				b.Fatal(err)
			}
		}
		for k := range objects {
			if err := fb.Release(k); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFirstFitFragmented measures fit search over a fragmented free
// list for each policy.
func BenchmarkFirstFitFragmented(b *testing.B) {
	for _, pol := range []FitPolicy{FirstFit, BestFit, WorstFit} {
		pol := pol
		b.Run(pol.String(), func(b *testing.B) {
			// Keys 0..127 are the fragmenting blocks, 128 the probe.
			const probe = 128
			fb := New(1<<16, false, probe+1, objName)
			fb.SetFitPolicy(pol)
			// Build fragmentation: allocate 128 blocks, free every other.
			for k := 0; k < probe; k++ {
				if _, err := fb.Alloc(k, 256, FromBottom, -1); err != nil {
					b.Fatal(err)
				}
			}
			for k := 0; k < probe; k += 2 {
				if err := fb.Release(k); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fb.Alloc(probe, 128, FromTop, -1); err != nil {
					b.Fatal(err)
				}
				if err := fb.Release(probe); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
