package main

import (
	"context"
	"runtime"
	"time"

	"fcma"
	"fcma/internal/blas"
	"fcma/internal/core"
	"fcma/internal/corr"
	"fcma/internal/fmri"
	"fcma/internal/norm"
	"fcma/internal/svm"
	"fcma/internal/tensor"
)

// layerPass is one whole-brain selection composed from the pipeline's
// layers, each timed from outside.
type layerPass struct {
	stack, merged, syrk, svm float64 // seconds per layer
	smoIters                 int     // SMO iterations over every fold of every voxel
	laneIdle                 float64 // share of the SVM stage's lane time spent idle
	ranking                  []fcma.VoxelScore
}

// total is the pass's wall time over the layers SelectVoxels runs.
func (p layerPass) total() float64 { return p.stack + p.merged + p.syrk + p.svm }

// composeSelection runs a whole-brain selection with the optimized
// engine by calling the layers' public functions in the order
// core.Worker.ProcessContext calls them: the epoch stack, the merged
// correlate+normalize pipeline, the batched syrk, then per-voxel SVM
// cross-validation on one lane per core. No tracer is installed, so the
// program's own span sites stay off.
func composeSelection(ctx context.Context, ds *fmri.Dataset) (layerPass, *corr.EpochStack, error) {
	var p layerPass
	cfg := core.Optimized()
	start := time.Now()
	st, err := corr.BuildEpochStackContext(ctx, ds, cfg.Workers)
	if err != nil {
		return p, nil, err
	}
	p.stack = since(&start)

	V, M, N := st.N, st.M(), st.N
	pipe := &corr.Pipeline{Gemm: cfg.Gemm, Workers: cfg.Workers, Merged: cfg.Merged}
	buf, err := pipe.RunContext(ctx, st, 0, V)
	if err != nil {
		return p, nil, err
	}
	p.merged = since(&start)

	As := make([]*tensor.Matrix, V)
	kernels := make([]*tensor.Matrix, V)
	for v := range As {
		As[v] = buf.View(v*M, 0, M, N)
		kernels[v] = tensor.NewMatrix(M, M)
	}
	start = time.Now()
	if err := blas.BatchSyrkContext(ctx, kernels, As, blas.DefaultSyrkBlock, cfg.Workers); err != nil {
		return p, nil, err
	}
	p.syrk = since(&start)

	labels := make([]int, M)
	subjects := make([]int, M)
	for i, e := range st.Epochs {
		labels[i], subjects[i] = e.Label, e.Subject
	}
	folds := svm.LeaveOneSubjectOutFolds(subjects)
	scores := make([]fcma.VoxelScore, V)
	iters := make([]int, V)
	busy := make([]float64, V)
	errs := make([]error, V)
	lanes := runtime.GOMAXPROCS(0)
	start = time.Now()
	err = parallel(V, lanes, func(v int) {
		t0 := time.Now()
		stats, err := svm.CrossValidateDetailed(cfg.Trainer, kernels[v], labels, folds)
		busy[v] = time.Since(t0).Seconds()
		scores[v] = fcma.VoxelScore{Voxel: v, Accuracy: stats.Accuracy()}
		iters[v], errs[v] = stats.TotalIters(), err
	})
	p.svm = since(&start)
	if err != nil {
		return p, nil, err
	}
	var busySum float64
	for v := range busy {
		if errs[v] != nil {
			return p, nil, errs[v]
		}
		busySum += busy[v]
		p.smoIters += iters[v]
	}
	p.laneIdle = 1 - busySum/(float64(lanes)*p.svm)
	p.ranking = core.TopVoxels(scores, 0)
	return p, st, nil
}

// since returns the seconds elapsed from *start and restarts it.
func since(start *time.Time) float64 {
	now := time.Now()
	d := now.Sub(*start).Seconds()
	*start = now
	return d
}

// gemmAlone runs blas.TallSkinny.Gemm by itself on the pipeline's
// per-epoch [V×T]·[T×N] products, epochs spread over one goroutine per
// core, writing raw correlations in the pipeline's voxel-grouped layout
// (voxel v's epoch e is row v·M+e). It returns the seconds spent in the
// gemm calls' parallel section and the raw buffer.
func gemmAlone(st *corr.EpochStack) (float64, *tensor.Matrix, error) {
	V, M, N, T := st.N, st.M(), st.N, st.T
	raw := tensor.NewMatrix(V*M, N)
	gathered := make([]*tensor.Matrix, M)
	for e := range gathered {
		gathered[e] = tensor.NewMatrix(V, T)
		st.GatherAssigned(e, 0, V, gathered[e])
	}
	kernel := blas.TallSkinny{Workers: 1}
	start := time.Now()
	err := parallel(M, runtime.GOMAXPROCS(0), func(e int) {
		C := tensor.Matrix{Rows: V, Cols: N, Stride: M * raw.Stride, Data: raw.Data[e*raw.Stride:]}
		kernel.Gemm(&C, gathered[e], st.Norm[e])
	})
	return time.Since(start).Seconds(), raw, err
}

// normAlone runs norm.Scratch.FisherThenZScoreStrided by itself over a
// raw correlation buffer of the pipeline's shape: every voxel's
// per-subject block of E epoch rows, voxels spread over one goroutine per
// core. It returns the seconds spent.
func normAlone(st *corr.EpochStack, raw *tensor.Matrix) (float64, error) {
	M, N, E := st.M(), st.N, st.E
	start := time.Now()
	workers := runtime.GOMAXPROCS(0)
	err := parallel(workers, workers, func(w int) {
		var sc norm.Scratch
		for v := w; v < st.N; v += workers {
			for s := 0; s < st.Subjects; s++ {
				row := v*M + s*E
				block := raw.Data[row*raw.Stride : (row+E-1)*raw.Stride+N]
				sc.FisherThenZScoreStrided(block, E, N, raw.Stride)
			}
		}
	})
	return time.Since(start).Seconds(), err
}
