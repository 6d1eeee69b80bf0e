package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"fcma"
	"fcma/internal/blas"
	"fcma/internal/chaos"
	"fcma/internal/core"
	"fcma/internal/corr"
	"fcma/internal/fmri"
	"fcma/internal/mic"
	"fcma/internal/trace"
)

const (
	// composeShare is the share of the budget the composed-selection
	// passes get; the cluster and serve probes do a fixed amount of work.
	composeShare = 0.5
	// minPasses is the fewest composed passes a traced run makes.
	minPasses = 2
	// probeJobs is how many serve jobs the serve probe runs.
	probeJobs = 16
	// ledgerReps is how often the model-ledger replay is timed.
	ledgerReps = 3
)

// checks counts the result checks a traced run makes.
type checks struct {
	attempted, failed int
	first             error
}

func (c *checks) add(err error) {
	c.attempted++
	if err != nil {
		c.failed++
		if c.first == nil {
			c.first = err
		}
	}
}

// metrics is a traced run's per-layer metrics under construction.
type metrics map[string]metric

func (m metrics) put(name string, value float64, unit string) { m[name] = metric{value, unit} }

// traceRun is the separate traced run: it times every layer from outside
// on the workload's dataset and reports the per-layer metrics.
func traceRun(ctx context.Context, w workload, seed int64, dir string, budget time.Duration) (result, error) {
	m := metrics{}
	var chk checks
	spec := w.spec(seed)
	start := time.Now()
	ds, err := fmri.Generate(spec)
	if err != nil {
		return result{}, err
	}
	m.put("fmri.generate_s", since(&start), "s")
	data, err := fcma.Generate(fcma.Spec(spec))
	if err != nil {
		return result{}, err
	}
	roof, err := measureRoofline()
	if err != nil {
		return result{}, err
	}
	m.put("host.fma_gflops", roof.fmaGflops, "GFLOP/s")
	m.put("host.stream_gbps", roof.streamGBps, "GB/s")
	m.put("host.llc_bytes", float64(roof.llcBytes), "bytes")
	m.put("host.stream_array_bytes", float64(roof.streamBytes), "bytes")

	// Composed passes alternate with plain SelectVoxels calls on the same
	// input; each pass must rank exactly as SelectVoxels does. Both run on
	// every core, so the batched syrk's scheduling-dependent merge order
	// (see clusterReference) can fail this check without any change to the
	// program; the check stays strict so that the defect shows.
	var passes []layerPass
	var plain, gemmS, normS []float64
	var st *corr.EpochStack
	var ref []fcma.VoxelScore
	deadline := time.Now().Add(time.Duration(float64(budget) * composeShare))
	for len(passes) < minPasses || time.Now().Before(deadline) {
		t0 := time.Now()
		if ref, err = fcma.SelectVoxelsContext(ctx, data, fcma.Config{}); err != nil {
			return result{}, err
		}
		plain = append(plain, since(&t0))
		var p layerPass
		if p, st, err = composeSelection(ctx, ds); err != nil {
			return result{}, err
		}
		chk.add(checkIdentical(p.ranking, ref))
		passes = append(passes, p)
		g, raw, err := gemmAlone(st)
		if err != nil {
			return result{}, err
		}
		n, err := normAlone(st, raw)
		if err != nil {
			return result{}, err
		}
		gemmS = append(gemmS, g)
		normS = append(normS, n)
	}
	passMedian := func(f func(layerPass) float64) float64 {
		xs := make([]float64, len(passes))
		for i, p := range passes {
			xs[i] = f(p)
		}
		return median(xs)
	}
	m.put("corr.stack_s", passMedian(func(p layerPass) float64 { return p.stack }), "s")
	m.put("trace_overhead_frac", passMedian(layerPass.total)/median(plain)-1, "ratio")
	kernelMetrics(m, st, roof,
		passMedian(func(p layerPass) float64 { return p.merged }), median(gemmS), median(normS),
		passMedian(func(p layerPass) float64 { return p.syrk }))
	m.put("svm.cv_s", passMedian(func(p layerPass) float64 { return p.svm }), "s")
	m.put("svm.smo_iters", float64(passes[len(passes)-1].smoIters), "count")
	m.put("svm.lane_idle_share", passMedian(func(p layerPass) float64 { return p.laneIdle }), "ratio")

	fsc := &fsCounts{}
	if ref, err = clusterReference(ctx, data); err != nil {
		return result{}, err
	}
	if err := clusterProbe(ctx, m, &chk, st, ref, fsc, dir); err != nil {
		return result{}, fmt.Errorf("cluster probe: %w", err)
	}
	if err := serveProbe(ctx, m, &chk, seed, dir, fsc); err != nil {
		return result{}, fmt.Errorf("serve probe: %w", err)
	}
	m.put("wal.fsyncs", float64(fsc.fsyncs.Load()), "count")
	m.put("wal.fsync_s", time.Duration(fsc.fsyncNanos.Load()).Seconds(), "s")
	m.put("wal.bytes_written", float64(fsc.bytesWritten.Load()), "bytes")

	if chk.first != nil {
		fmt.Fprintf(os.Stderr, "%s: first failed check: %v\n", w.name, chk.first)
	}
	fmt.Fprintf(os.Stderr, "%s: traced %d composed passes; stream array %d bytes over a %d-byte last-level cache\n",
		w.name, len(passes), roof.streamBytes, roof.llcBytes)
	return result{Correct: chk.failed == 0, Attempted: chk.attempted, Failed: chk.failed, Metrics: m}, nil
}

// kernelMetrics books each kernel's seconds, computed work and roofline
// fraction. Flops count one multiply and one add per inner-product term;
// bytes are computed from array sizes, each array read or written once,
// and ignore cache misses.
func kernelMetrics(m metrics, st *corr.EpochStack, roof roofline, merged, gemm, normS, syrk float64) {
	V, M, N, T := float64(st.N), float64(st.M()), float64(st.N), float64(st.T)
	corrFlops := M * float64(blas.GemmFlops(st.N, st.T, st.N))
	// The normalized epoch stack, the gathered assigned rows, the output.
	corrBytes := 4 * (M*T*N + M*V*T + V*M*N)
	m.put("corr.merged_s", merged, "s")
	m.put("corr.flops", corrFlops, "flop")
	m.put("corr.bytes_computed", corrBytes, "bytes")
	m.put("corr.gflops", corrFlops/merged/1e9, "GFLOP/s")
	m.put("corr.roofline_frac", corrFlops/merged/1e9/roof.attainable(corrFlops, corrBytes), "ratio")
	m.put("blas.gemm_s", gemm, "s")
	m.put("blas.gemm_gflops", corrFlops/gemm/1e9, "GFLOP/s")
	m.put("blas.gemm_roofline_frac", corrFlops/gemm/1e9/roof.attainable(corrFlops, corrBytes), "ratio")
	m.put("norm.fisher_zscore_s", normS, "s")
	m.put("norm.melems_per_s", V*M*N/normS/1e6, "Melem/s")
	syrkFlops := V * float64(blas.SyrkFlops(st.M(), st.N))
	syrkBytes := 4 * V * (M*N + M*M) // each voxel's M×N input, its M×M kernel
	m.put("blas.syrk_s", syrk, "s")
	m.put("blas.syrk_flops", syrkFlops, "flop")
	m.put("blas.syrk_gflops", syrkFlops/syrk/1e9, "GFLOP/s")
	m.put("blas.syrk_roofline_frac", syrkFlops/syrk/1e9/roof.attainable(syrkFlops, syrkBytes), "ratio")
}

// clusterProbe runs one journaled cluster selection over the stack with
// counting seams on every rank and the journal, and a timer around each
// worker's core.Worker.
func clusterProbe(ctx context.Context, m metrics, chk *checks, st *corr.EpochStack, ref []fcma.VoxelScore, fsc *fsCounts, dir string) error {
	p := probes{msgs: &msgCounts{}, tasks: newTaskTimes()}
	rig, err := startCluster(ctx, st, p)
	if err != nil {
		return err
	}
	start := time.Now()
	got, err := rig.selectVoxels(ctx, st.N, countingFS{FS: chaos.OS(), c: fsc}, filepath.Join(dir, "probe.jnl"))
	wall := time.Since(start).Seconds()
	if cerr := rig.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	chk.add(checkIdentical(got, ref))
	tasks := float64(len(p.tasks.tasks))
	var busy, busiest float64
	for _, b := range p.tasks.busy {
		busy += b
		busiest = max(busiest, b)
	}
	m.put("core.task_s.p50", median(p.tasks.tasks), "s")
	m.put("cluster.worker_busy_share", busy/(clusterWorkers*wall), "ratio")
	m.put("cluster.dispatch_gap_s", wall-busiest, "s")
	m.put("mpi.msgs_per_task", float64(p.msgs.sent.Load())/tasks, "count")
	m.put("mpi.bytes_per_task", float64(p.msgs.sentBytes.Load())/tasks, "bytes")
	return nil
}

// serveProbe runs probeJobs serve jobs over HTTP with a counting
// filesystem under the service, and compares each job's latency with
// core.Worker run directly on the same dataset.
func serveProbe(ctx context.Context, m metrics, chk *checks, seed int64, dir string, fsc *fsCounts) (err error) {
	rig, err := startServe(ctx, seed, dir, countingFS{FS: chaos.OS(), c: fsc})
	if err != nil {
		return err
	}
	defer func() {
		if cerr := rig.close(); err == nil {
			err = cerr
		}
	}()
	direct := make([]float64, len(rig.bases))
	for i, b := range rig.bases {
		if direct[i], err = directWorker(ctx, b.ds); err != nil {
			return err
		}
	}
	st, err := closedLoop(ctx, serveClients, probeJobs, 0, rig.job)
	if err != nil {
		return err
	}
	if err := rig.verify(ctx, &st); err != nil {
		return err
	}
	var overhead []float64
	for _, op := range st.ops {
		chk.add(op.err)
		if op.err == nil {
			overhead = append(overhead, op.seconds-direct[op.input])
		}
	}
	snap := rig.svc.Metrics().Snapshot()
	hits := float64(snap.Counters["serve_dataset_cache_hits_total"])
	misses := float64(snap.Counters["serve_dataset_cache_misses_total"])
	m.put("serve.submit_s.p50", median(rig.submits), "s")
	m.put("serve.upload_s.p50", median(rig.uploads), "s")
	m.put("serve.job_overhead_s.p50", median(overhead), "s")
	m.put("serve.cache_hit_share", hits/(hits+misses), "ratio")
	replay, err := ledgerReplay(ctx, rig.bases[0].ds)
	m.put("mic.ledger_replay_s", replay, "s")
	return err
}

// directWorker is the median time of core.Worker scoring the whole
// dataset in-process, as a serve job's executor does after building the
// epoch stack.
func directWorker(ctx context.Context, ds *fmri.Dataset) (float64, error) {
	st, err := corr.BuildEpochStackContext(ctx, ds, 0)
	if err != nil {
		return 0, err
	}
	w, err := core.NewWorker(core.Optimized(), st, nil)
	if err != nil {
		return 0, err
	}
	var times []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, err := w.ProcessContext(ctx, core.Task{V0: 0, V: st.N}); err != nil {
			return 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return median(times), nil
}

// ledgerReplay times the serve model ledger's per-job replay for a
// dataset's shape: trace.RunScaled over the merged stage and the batched
// syrk on the E5-2670 model, as the ledger calls it after every job.
func ledgerReplay(ctx context.Context, ds *fmri.Dataset) (float64, error) {
	st, err := corr.BuildEpochStackContext(ctx, ds, 0)
	if err != nil {
		return 0, err
	}
	sh := trace.Shape{
		V: st.N, T: st.T, M: st.M(), E: st.E, N: st.N,
		TrainSamples: st.M() - st.E, Folds: st.Subjects,
	}
	if err := sh.Validate(); err != nil {
		return 0, err
	}
	scale := 1.0
	if w := sh.GemmWork(); w > 2e8 {
		scale = math.Sqrt(2e8 / w)
	}
	cfg := mic.XeonE5_2670()
	var times []float64
	for i := 0; i < ledgerReps; i++ {
		start := time.Now()
		merged := trace.RunScaled(cfg, sh, scale,
			func(s trace.Shape) float64 { return s.GemmWork() + s.NormWork() },
			func(m *mic.Machine, s trace.Shape) { trace.StagesMerged(m, s, blas.DefaultColBlock) })
		syrk := trace.RunScaled(cfg, sh, scale,
			func(s trace.Shape) float64 { return float64(s.V) * float64(s.M) * float64(s.M+1) * float64(s.N) },
			func(m *mic.Machine, s trace.Shape) {
				trace.SyrkTallSkinny(m, s.M, s.N, blas.DefaultSyrkBlock)
				m.Counters.Scale(float64(s.V))
			})
		if merged.EstimateTime() <= 0 || syrk.EstimateTime() <= 0 {
			return 0, fmt.Errorf("ledger replay predicted no time")
		}
		times = append(times, time.Since(start).Seconds())
	}
	return median(times), nil
}
