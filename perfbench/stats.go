package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// quantile returns the p-quantile (0 ≤ p ≤ 1) of xs by nearest rank.
// It sorts a copy, so callers keep their sample order.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	i = max(0, min(i, len(s)-1))
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func usOf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// heapMiB forces a collection and returns the live heap in MiB.
func heapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// allocDelta measures heap allocations (count and bytes) made by fn.
// Goroutines other than the caller's must be idle for the numbers to
// belong to fn alone.
func allocDelta(fn func()) (mallocs, bytes uint64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc
}

// rtSample is a process-wide runtime/metrics reading: GC and busy CPU
// seconds, and cumulative heap allocation bytes.
type rtSample struct {
	at          time.Time
	gcCPU, busy float64
	allocBytes  float64
}

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return rtSample{at: time.Now(), gcCPU: v(0), busy: v(1) - v(2), allocBytes: v(3)}
}

// gcFrac is the share of busy CPU time the garbage collector used
// between two readings; allocRate is heap allocation in MiB/s.
func gcFrac(a, b rtSample) float64 {
	if b.busy <= a.busy {
		return 0
	}
	return (b.gcCPU - a.gcCPU) / (b.busy - a.busy)
}

func allocRate(a, b rtSample) float64 {
	dt := b.at.Sub(a.at).Seconds()
	if dt <= 0 {
		return 0
	}
	return (b.allocBytes - a.allocBytes) / (1 << 20) / dt
}
