package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"fcma/internal/fmri"
)

// signalVoxels is how many voxels every generated dataset plants with
// condition-dependent coupling. The paper shapes scaled to 0.02 keep only
// 8; on face-scene those 8 score below the best of the 689 null voxels on
// most seeds, so signal_recall would measure the seed rather than the
// program. With 32 the planted set is recovered on every seed tried.
const signalVoxels = 32

// A run sets its workload up in setupBatches batches, each of set-ups
// repeated until they have taken batchSpan; setup_s is the median over the
// batches of a batch's mean set-up time. Every set-up but the last is torn
// down unused. A single set-up is not a sample of its own because a
// millisecond-scale one is bimodal on a shared 2-vCPU host: the same
// single-threaded dataset generation took either about 3.5 or about 6 ms,
// in CPU time as well as wall time, with no GC cycle and a handful of page
// faults, so it ran at one of two speeds. The median of such samples
// jumped between the two modes from run to run; a batch mixes both.
const (
	setupBatches = 10
	batchSpan    = 200 * time.Millisecond
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// why records what the workload stresses; BENCHMARK.json repeats it.
	why string
	// spec is the dataset the workload selects voxels on; the traced run
	// composes the layers over it.
	spec func(seed int64) fmri.Spec
	// setup builds the workload's inputs and long-lived components.
	setup func(ctx context.Context, seed int64, dir string) (bench, error)
}

// bench is one set-up workload.
type bench interface {
	// measure runs the workload's closed loop for the budget, then checks
	// every result against references it computes untimed.
	measure(ctx context.Context, budget time.Duration) (loopStats, error)
	// close releases everything setup started and waits for it to stop.
	close() error
}

var workloads = []workload{
	{
		name: "select-facescene",
		why: "SelectVoxels on face-scene at scale 0.02 (N=689, 3 subjects, M=36): the merged correlate+normalize " +
			"stage is ~78% of the time, so corr/gemm/norm changes show here and svm changes should not",
		spec:  faceSceneSpec,
		setup: setupSelect(faceSceneSpec),
	},
	{
		name: "select-attention",
		why: "SelectVoxels on attention at scale 0.02 (N=505, 4 subjects, M=72): twice the epochs move about half " +
			"the time into syrk and SMO, so solver and syrk changes show here",
		spec:  attentionSpec,
		setup: setupSelect(attentionSpec),
	},
	{
		name: "serve-jobs",
		why: "2 closed-loop HTTP clients on an in-process fcma-serve, N=172 jobs; assumed, unsourced mix: ~1 job in 4 " +
			"uploads a fresh dataset first, 3 reuse one of 4. WAL fsyncs, HTTP and the model ledger dominate",
		spec:  func(seed int64) fmri.Spec { return smallSpec(seed, 0) },
		setup: setupServe,
	},
	{
		name: "cluster-journal",
		why: "master + 2 one-thread workers over loopback TCP with a WAL journal, 16-voxel tasks on the face-scene " +
			"input: per-task messaging and fsync-before-act are a visible share",
		spec:  faceSceneSpec,
		setup: setupCluster,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// faceSceneSpec is the paper's face-scene shape at scale 0.02.
func faceSceneSpec(seed int64) fmri.Spec {
	s := fmri.FaceSceneSpec(0.02)
	s.SignalVoxels, s.Seed = signalVoxels, seed
	return s
}

// attentionSpec is the paper's attention shape at scale 0.02.
func attentionSpec(seed int64) fmri.Spec {
	s := fmri.AttentionSpec(0.02)
	s.SignalVoxels, s.Seed = signalVoxels, seed
	return s
}

// smallSpec is the i-th serve-job dataset: face-scene at scale 0.005
// (N=172).
func smallSpec(seed int64, i int) fmri.Spec {
	s := fmri.FaceSceneSpec(0.005)
	s.SignalVoxels, s.Seed = signalVoxels, seed*1000+int64(i)
	s.Name = fmt.Sprintf("small-%d", i)
	return s
}

// endToEnd sets the workload up repeatedly, then measures the last set-up
// with the program's tracing off.
func endToEnd(ctx context.Context, w workload, seed int64, dir string, budget time.Duration) (result, error) {
	var b bench
	var batches []float64 // mean set-up time of each batch
	for len(batches) < setupBatches {
		n, spent := 0, 0.0
		for spent < batchSpan.Seconds() {
			if b != nil {
				err := b.close()
				b = nil
				if err != nil {
					return result{}, err
				}
			}
			runtime.GC() // each set-up starts from a collected heap
			start := time.Now()
			var err error
			if b, err = w.setup(ctx, seed, dir); err != nil {
				return result{}, fmt.Errorf("%s setup: %w", w.name, err)
			}
			spent += time.Since(start).Seconds()
			n++
		}
		batches = append(batches, spent/float64(n))
	}
	st, err := b.measure(ctx, budget)
	if cerr := b.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", w.name, err)
	}
	st.report(os.Stderr, w.name)
	return st.result(median(batches)), nil
}
