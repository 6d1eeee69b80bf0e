package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime/debug"
	"sync"
	"time"

	"fcma"
	"fcma/internal/chaos"
	"fcma/internal/cluster"
	"fcma/internal/core"
	"fcma/internal/corr"
	"fcma/internal/fmri"
	"fcma/internal/mpi"
	"fcma/internal/obs"
	"fcma/internal/safe"
)

// clusterTaskSize is voxels per cluster task: small, so per-task
// messaging and journal fsyncs are a visible share of a selection.
const clusterTaskSize = 16

// clusterWorkers is the number of worker ranks, and clusterThreads each
// rank's pipeline threads (core.Config.Workers).
const (
	clusterWorkers = 2
	clusterThreads = 1
)

// probes are the counting transports and task timer of a traced cluster
// run; the zero value runs the cluster unwatched.
type probes struct {
	msgs  *msgCounts
	tasks *taskTimes
}

func (p probes) transport(tr mpi.Transport) mpi.Transport {
	if p.msgs == nil {
		return tr
	}
	return countingTransport{Transport: tr, c: p.msgs}
}

// taskTimes records how long each worker rank spent in core.Worker.
type taskTimes struct {
	mu    sync.Mutex
	tasks []float64
	busy  map[int]float64
}

func newTaskTimes() *taskTimes { return &taskTimes{busy: make(map[int]float64)} }

func (t *taskTimes) add(rank int, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.tasks = append(t.tasks, d.Seconds())
	t.busy[rank] += d.Seconds()
}

// timedProcessor is the cluster.TaskProcessor a traced worker rank runs:
// core.Worker, timed from outside.
type timedProcessor struct {
	w     *core.Worker
	rank  int
	times *taskTimes
}

func (p timedProcessor) Process(t core.Task) ([]core.VoxelScore, error) {
	return p.ProcessContext(context.Background(), t)
}

func (p timedProcessor) ProcessContext(ctx context.Context, t core.Task) ([]core.VoxelScore, error) {
	start := time.Now()
	scores, err := p.w.ProcessContext(ctx, t)
	p.times.add(p.rank, time.Since(start))
	return scores, err
}

// clusterRig is a started cluster: a loopback-TCP master and its worker
// ranks, each already serving tasks.
type clusterRig struct {
	master  mpi.Transport
	workers []mpi.Transport
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	errs    chan error
}

// startCluster listens on loopback, dials clusterWorkers worker ranks,
// and starts each serving a core.Worker over the shared epoch stack.
func startCluster(ctx context.Context, stack *corr.EpochStack, p probes) (*clusterRig, error) {
	ln, err := mpi.ListenMaster("127.0.0.1:0", clusterWorkers+1)
	if err != nil {
		return nil, err
	}
	rig := &clusterRig{master: p.transport(ln), errs: make(chan error, clusterWorkers)}
	dialed := make(chan *mpi.TCPWorker, clusterWorkers)
	dialErr := make(chan error, clusterWorkers)
	for i := 0; i < clusterWorkers; i++ {
		safe.Go("perfbench/dial", func() error {
			w, err := mpi.DialWorkerCtx(ctx, ln.Addr())
			if err != nil {
				return err
			}
			dialed <- w
			return nil
		}, func(err error) {
			if err != nil {
				dialErr <- err
			}
		})
	}
	acceptErr := ln.AcceptCtx(ctx)
	if acceptErr != nil {
		ln.Close() // fails the dials still waiting for a rank
	}
	for i := 0; i < clusterWorkers; i++ {
		select {
		case w := <-dialed:
			rig.workers = append(rig.workers, p.transport(w))
		case err := <-dialErr:
			acceptErr = errors.Join(acceptErr, err)
		}
	}
	if acceptErr != nil {
		rig.closeTransports()
		return nil, fmt.Errorf("starting cluster: %w", acceptErr)
	}
	cfg := core.Optimized()
	cfg.Workers = clusterThreads
	cfg.Obs = obs.NewRegistry()
	procs := make([]cluster.TaskProcessor, len(rig.workers))
	for i, tr := range rig.workers {
		w, err := core.NewWorker(cfg, stack, nil)
		if err != nil {
			rig.closeTransports()
			return nil, err
		}
		procs[i] = w
		if p.tasks != nil {
			procs[i] = timedProcessor{w: w, rank: tr.Rank(), times: p.tasks}
		}
	}
	wctx, cancel := context.WithCancel(ctx)
	rig.cancel = cancel
	ready := make([]*readyTransport, len(rig.workers))
	exited := make([]chan struct{}, len(rig.workers))
	for i, tr := range rig.workers {
		ready[i] = &readyTransport{Transport: tr, ready: make(chan struct{})}
		exited[i] = make(chan struct{})
		rig.wg.Add(1)
		safe.Go("perfbench/worker", func() error {
			return cluster.RunWorkerCtx(wctx, ready[i], procs[i], cluster.WorkerOptions{Obs: obs.NewRegistry()})
		}, func(err error) {
			rig.errs <- err
			close(exited[i])
			rig.wg.Done()
		})
	}
	// A set-up ends with every rank serving. A rig closed while a worker
	// was still sending its ready message would fail that send with "use
	// of closed network connection", an error of the teardown and not of
	// the program.
	for i := range ready {
		var err error
		select {
		case <-ready[i].ready:
		case <-exited[i]:
			err = fmt.Errorf("worker rank %d stopped before it was ready", ready[i].Rank())
		case <-ctx.Done():
			err = fmt.Errorf("waiting for worker rank %d: %w", ready[i].Rank(), ctx.Err())
		}
		if err != nil {
			return nil, errors.Join(err, rig.close())
		}
	}
	return rig, nil
}

// readyTransport closes ready once its worker rank has sent mpi.TagReady,
// the message with which cluster.RunWorkerCtx announces it is serving.
type readyTransport struct {
	mpi.Transport
	once  sync.Once
	ready chan struct{}
}

func (t *readyTransport) Send(to int, tag mpi.Tag, body []byte) error {
	err := t.Transport.Send(to, tag, body)
	if err == nil && tag == mpi.TagReady {
		t.once.Do(func() { close(t.ready) })
	}
	return err
}

// selectVoxels runs one whole-brain selection through the master with a
// fresh WAL journal, then removes the journal.
func (r *clusterRig) selectVoxels(ctx context.Context, voxels int, fsys chaos.FS, journal string) ([]core.VoxelScore, error) {
	jn, err := cluster.OpenJournalFS(fsys, journal)
	if err != nil {
		return nil, err
	}
	scores, err := cluster.RunMasterCtx(ctx, r.master, voxels, clusterTaskSize,
		cluster.MasterOptions{Journal: jn, Obs: obs.NewRegistry()})
	err = errors.Join(err, jn.Close(), jn.Remove())
	return core.TopVoxels(scores, 0), err
}

func (r *clusterRig) closeTransports() {
	r.master.Close()
	for _, w := range r.workers {
		w.Close()
	}
}

// close stops the workers, closes every rank (which also ends the receive
// pumps parked in Recv) and waits for the worker loops to return.
func (r *clusterRig) close() error {
	r.cancel()
	r.closeTransports()
	r.wg.Wait()
	close(r.errs)
	var err error
	for werr := range r.errs {
		if werr != nil && !errors.Is(werr, context.Canceled) {
			err = errors.Join(err, werr)
		}
	}
	return err
}

// clusterBench runs whole-brain selections through a journaled cluster.
type clusterBench struct {
	spec   fmri.Spec
	signal []int
	stack  *corr.EpochStack
	rig    *clusterRig
	dir    string
}

func setupCluster(ctx context.Context, seed int64, dir string) (bench, error) {
	spec := faceSceneSpec(seed)
	ds, err := fmri.Generate(spec)
	if err != nil {
		return nil, err
	}
	stack, err := corr.BuildEpochStackContext(ctx, ds, 0)
	if err != nil {
		return nil, err
	}
	rig, err := startCluster(ctx, stack, probes{})
	if err != nil {
		return nil, err
	}
	return &clusterBench{spec: spec, signal: ds.SignalVoxels, stack: stack, rig: rig, dir: dir}, nil
}

func (b *clusterBench) measure(ctx context.Context, budget time.Duration) (loopStats, error) {
	journal := filepath.Join(b.dir, "cluster.jnl")
	st, err := closedLoop(ctx, 1, 1, budget, func(ctx context.Context, i int) opResult {
		if i > 0 {
			// Workers leave at the end of a run; restarting the cluster is
			// not part of the next selection's time.
			if err := b.restart(ctx); err != nil {
				return opResult{err: err}
			}
		}
		debug.FreeOSMemory() // as in selectBench.measure
		start := time.Now()
		got, err := b.rig.selectVoxels(ctx, b.stack.N, chaos.OS(), journal)
		return opResult{seconds: time.Since(start).Seconds(), ranking: got, signal: b.signal, err: err}
	})
	if err != nil {
		return st, err
	}
	data, err := fcma.Generate(fcma.Spec(b.spec))
	if err != nil {
		return st, err
	}
	ref, err := clusterReference(ctx, data)
	if err != nil {
		return st, err
	}
	st.verify(func(op opResult) error { return checkIdentical(op.ranking, ref) })
	return st, nil
}

// clusterReference is in-process fcma.SelectVoxels with one pipeline
// thread, as each worker rank runs. The batched syrk adds a voxel's
// column-block partials in the order its threads finish them. With one
// thread that order is fixed. With more it depends on scheduling, and once
// a voxel has three or more blocks the float32 sums can differ in the last
// bit from one run to the next, enough to move a score by one sample (on
// face-scene seed 106, voxel 240 scored 17/36 with one thread and 18/36
// with two). With one thread on both sides the comparison is repeatable.
func clusterReference(ctx context.Context, data *fcma.Data) ([]fcma.VoxelScore, error) {
	ref, err := fcma.SelectVoxelsContext(ctx, data, fcma.Config{Workers: clusterThreads})
	if err != nil {
		return nil, fmt.Errorf("in-process reference: %w", err)
	}
	return ref, nil
}

// restart replaces the finished cluster with a fresh one.
func (b *clusterBench) restart(ctx context.Context) error {
	err := b.close()
	b.rig = nil
	if err != nil {
		return err
	}
	b.rig, err = startCluster(ctx, b.stack, probes{})
	return err
}

func (b *clusterBench) close() error {
	if b.rig == nil {
		return nil
	}
	return b.rig.close()
}
