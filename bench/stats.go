package main

import (
	"bufio"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minTail is the number of samples a reported percentile must have beyond
// it: a p99 from fewer than 1000 samples rests on fewer than ten
// observations and says little.
const minTail = 10

// supported reports whether n samples carry at least minTail observations
// beyond percentile q (0 < q < 1).
func supported(q float64, n int) bool {
	return float64(n)*(1-q) >= minTail
}

// percentile returns the nearest-rank q-percentile of sorted samples.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) computes them (the
// "exclusive" method), so spreads read the same here and in any script
// that checks them.
func quartiles(values []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		const n = 4
		m := len(s) + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return cut(1), cut(2), cut(3)
}

// median of unsorted values.
func median(values []float64) float64 {
	_, m, _ := quartiles(values)
	return m
}

// samples are operation latencies, scaled to the reference speed. The
// statistics pool every sample of a phase: the scaling already follows
// the host's slow spells, and over ten seeds pooled percentiles spread
// less than a median over blocks of the phase did (by up to half).
type samples []time.Duration

// sortedMS returns the latencies in milliseconds, sorted.
func sortedMS(s samples) []float64 {
	out := make([]float64, len(s))
	for i, lat := range s {
		out[i] = float64(lat) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// scaledBy returns the latencies multiplied by f.
func (s samples) scaledBy(f float64) samples {
	out := make(samples, len(s))
	for i, lat := range s {
		out[i] = time.Duration(float64(lat) * f)
	}
	return out
}

// busyRate is the throughput of one closed-loop caller: operations per
// second spent in them.
func (s samples) busyRate() float64 {
	var busy time.Duration
	for _, lat := range s {
		busy += lat
	}
	if busy <= 0 {
		return 0
	}
	return float64(len(s)) / busy.Seconds()
}

// pct is the q-percentile latency in ms.
func (s samples) pct(q float64) float64 { return percentile(sortedMS(s), q) }

// heapAllocs reads the cumulative count of heap objects allocated by the
// process: the /gc/heap/allocs:objects runtime metric plus the tiny
// allocations it leaves out, which together equal MemStats.Mallocs (the
// count `go test -benchmem` reports) without stopping the world. It is
// cheap enough to read around a whole measured window and, in a serial
// pass, around single calls.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/tiny/allocs:objects"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 || s[1].Value.Kind() != metrics.KindUint64 {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.Mallocs
	}
	return s[0].Value.Uint64() + s[1].Value.Uint64()
}

// rssMiB reports the process's resident set (VmRSS) in MiB. Where /proc
// is unavailable it falls back to the memory the Go runtime has obtained
// from the OS.
func rssMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) >= 2 && fields[0] == "VmRSS:" {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// arrivals returns the due offsets of an open-loop phase: a Poisson
// process of the given rate over d, drawn from rng. The same rng state
// yields the same schedule, so a seed fixes every request's due time.
func arrivals(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return out
		}
		out = append(out, due)
	}
}
