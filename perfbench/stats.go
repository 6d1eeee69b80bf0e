package main

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"syscall"
	"time"

	"fcma"
	"fcma/internal/safe"
)

// opResult is the outcome of one operation of a closed loop: one
// whole-brain selection, or one serve job.
type opResult struct {
	seconds float64 // latency: the part of the operation its caller waits for
	ranking []fcma.VoxelScore
	input   int   // which of the workload's datasets it ran on
	signal  []int // that dataset's planted signal voxels
	err     error // a failed call, or a failed result check
}

// loopStats is what a closed loop measured.
type loopStats struct {
	ops     []opResult
	clients int
	wall    float64 // seconds from the first start to the last finish
	peakRSS float64 // bytes, read before any reference is computed
}

// closedLoop runs op from `clients` goroutines, each starting its next
// operation only when its previous one has returned, until the budget is
// spent and at least minOps operations have started. Operations are
// numbered 0, 1, ... in the order they start, whichever client runs them.
// The clients run on the program's panic-containing driver; a panic in
// op fails the loop with the panic's error once every client has ended.
func closedLoop(ctx context.Context, clients, minOps int, budget time.Duration, op func(ctx context.Context, i int) opResult) (loopStats, error) {
	var (
		mu      sync.Mutex
		st      = loopStats{clients: clients}
		started int
	)
	start := time.Now()
	err := safe.ParallelDynamic(ctx, safe.Span{Stage: "perfbench/client"}, clients, clients,
		func(ctx context.Context, _ int) error {
			for {
				mu.Lock()
				i := started
				stop := time.Since(start) >= budget && i >= minOps
				started++
				mu.Unlock()
				if stop || ctx.Err() != nil {
					return nil
				}
				r := op(ctx, i)
				mu.Lock()
				st.ops = append(st.ops, r)
				mu.Unlock()
			}
		})
	st.wall = time.Since(start).Seconds()
	st.peakRSS = peakRSSBytes()
	return st, err
}

// verify checks every operation that returned a ranking. It runs after
// the loop, so the references it compares against are computed untimed
// and outside peak_rss_bytes.
func (st *loopStats) verify(check func(opResult) error) {
	for i := range st.ops {
		if st.ops[i].err == nil {
			st.ops[i].err = check(st.ops[i])
		}
	}
}

// result turns the loop's measurements into the end-to-end metrics.
// Throughput divides by the time the operations were timed for. With one
// client that is the sum of their latencies, so the untimed work between
// operations (the forced collection, a cluster restart) stays out of it.
// With several clients the operations overlap and the loop's wall time is
// the divisor.
func (st loopStats) result(setup float64) result {
	var latencies, recalls []float64
	voxels, failed := 0, 0
	busy := 0.0
	for _, op := range st.ops {
		if op.err != nil {
			failed++
			continue
		}
		latencies = append(latencies, op.seconds)
		recalls = append(recalls, recall(op.ranking, op.signal))
		voxels += len(op.ranking)
		busy += op.seconds
	}
	if st.clients > 1 {
		busy = st.wall
	}
	ok := len(st.ops) - failed
	m := map[string]metric{
		"setup_s":           {setup, "s"},
		"select_s.p50":      {quantile(latencies, 0.5), "s"},
		"voxels_per_s":      {float64(voxels) / busy, "1/s"},
		"job_latency_s.p50": {quantile(latencies, 0.5), "s"},
		"job_latency_s.p90": {quantile(latencies, 0.9), "s"},
		"jobs_per_s":        {float64(ok) / busy, "1/s"},
		"signal_recall":     {mean(recalls), "ratio"},
		"success_rate":      {float64(ok) / float64(len(st.ops)), "ratio"},
		"peak_rss_bytes":    {st.peakRSS, "bytes"},
	}
	return result{Correct: failed == 0, Attempted: len(st.ops), Failed: failed, Metrics: m}
}

// report prints a human summary: the sample count the percentiles rest
// on, and the first failure.
func (st loopStats) report(w io.Writer, name string) {
	var latencies []float64
	var first error
	for _, op := range st.ops {
		if op.err == nil {
			latencies = append(latencies, op.seconds)
		} else if first == nil {
			first = op.err
		}
	}
	n := len(latencies)
	fmt.Fprintf(w, "%s: %d operations (%d failed) in %.2fs; p50 %.4fs and p90 %.4fs over %d samples, %d beyond p90\n",
		name, len(st.ops), len(st.ops)-n, st.wall, quantile(latencies, 0.5), quantile(latencies, 0.9), n, n-n*9/10)
	if first != nil {
		fmt.Fprintf(w, "%s: first failure: %v\n", name, first)
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// peakRSSBytes is the process's peak resident set size so far.
func peakRSSBytes() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 // Linux reports kilobytes
}
