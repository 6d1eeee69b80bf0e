package main

import (
	"context"
	"runtime"
	"runtime/debug"
	"time"

	"fcma/internal/safe"
)

const (
	// fmaIters is each goroutine's multiply-add loop count per attempt:
	// about 0.1 s of work on a 2 GHz core.
	fmaIters = 20_000_000
	// roofAttempts is how often each ceiling is measured; the best counts.
	roofAttempts = 3
	// streamFallback is the stream array size when CPUID reports no cache.
	streamFallback = 256 << 20
	// streamCap bounds the stream array, however large the cache.
	streamCap = 1 << 30
)

// roofline is this host's measured ceilings: the multiply-add rate Go's
// compiled scalar float32 code reaches on every core at once, and the
// memory read bandwidth over an array at least four times the last-level
// cache.
type roofline struct {
	fmaGflops   float64
	streamGBps  float64
	llcBytes    int64
	streamBytes int64
}

// attainable is the roofline bound in GFLOP/s for a kernel doing flops
// over bytes: the lower of peak compute and bandwidth times intensity.
func (r roofline) attainable(flops, bytes float64) float64 {
	return min(r.fmaGflops, r.streamGBps*flops/bytes)
}

func measureRoofline() (roofline, error) {
	r := roofline{llcBytes: llcBytes()}
	r.streamBytes = min(max(4*r.llcBytes, streamFallback), streamCap)
	workers := runtime.GOMAXPROCS(0)
	results := make([]float32, workers) // keeps the measured loops' results alive
	for a := 0; a < roofAttempts; a++ {
		start := time.Now()
		if err := parallel(workers, workers, func(w int) { results[w] += fmaChains(fmaIters, 0.999, 0.001) }); err != nil {
			return r, err
		}
		flops := float64(workers) * fmaIters * fmaFlopsPerIter
		r.fmaGflops = max(r.fmaGflops, flops/time.Since(start).Seconds()/1e9)
	}
	buf := make([]float32, r.streamBytes/4)
	for i := range buf {
		buf[i] = 1
	}
	chunk := (len(buf) + workers - 1) / workers
	for a := 0; a < roofAttempts; a++ {
		start := time.Now()
		err := parallel(workers, workers, func(w int) {
			lo := min(w*chunk, len(buf))
			results[w] += sumStream(buf[lo:min(lo+chunk, len(buf))])
		})
		if err != nil {
			return r, err
		}
		r.streamGBps = max(r.streamGBps, float64(r.streamBytes)/time.Since(start).Seconds()/1e9)
	}
	for _, v := range results {
		sink += v
	}
	buf = nil
	debug.FreeOSMemory()
	return r, nil
}

// fmaFlopsPerIter is fmaChains' flops per loop iteration: twelve
// independent multiply-add chains, two flops each.
const fmaFlopsPerIter = 24

// fmaChains runs twelve independent multiply-add dependency chains, so
// throughput rather than latency bounds the loop.
//
//go:noinline
func fmaChains(n int, x, y float32) float32 {
	a0, a1, a2, a3, a4, a5 := float32(1), float32(2), float32(3), float32(4), float32(5), float32(6)
	a6, a7, a8, a9, a10, a11 := float32(7), float32(8), float32(9), float32(10), float32(11), float32(12)
	for i := 0; i < n; i++ {
		a0 = a0*x + y
		a1 = a1*x + y
		a2 = a2*x + y
		a3 = a3*x + y
		a4 = a4*x + y
		a5 = a5*x + y
		a6 = a6*x + y
		a7 = a7*x + y
		a8 = a8*x + y
		a9 = a9*x + y
		a10 = a10*x + y
		a11 = a11*x + y
	}
	return a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7 + a8 + a9 + a10 + a11
}

// sumStream reads xs once through eight accumulators, enough that the
// adds keep up with memory.
//
//go:noinline
func sumStream(xs []float32) float32 {
	var s0, s1, s2, s3, s4, s5, s6, s7 float32
	for len(xs) >= 8 {
		s0 += xs[0]
		s1 += xs[1]
		s2 += xs[2]
		s3 += xs[3]
		s4 += xs[4]
		s5 += xs[5]
		s6 += xs[6]
		s7 += xs[7]
		xs = xs[8:]
	}
	for _, x := range xs {
		s0 += x
	}
	return s0 + s1 + s2 + s3 + s4 + s5 + s6 + s7
}

// sink receives the measured loops' results so they are not optimized away.
var sink float32

// parallel runs fn(i) for i in [0, n) on at most workers goroutines,
// through the program's panic-containing driver, and waits for all of
// them.
func parallel(n, workers int, fn func(i int)) error {
	return safe.ParallelDynamic(context.Background(), safe.Span{Stage: "perfbench"}, n, workers,
		func(_ context.Context, i int) error {
			fn(i)
			return nil
		})
}
