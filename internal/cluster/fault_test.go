package cluster

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fcma/internal/core"
	"fcma/internal/corr"
	"fcma/internal/mpi"
	"fcma/internal/obs"
	"fcma/internal/obs/trace"
)

// funcProcessor adapts a function to TaskProcessor for fault scripting.
type funcProcessor func(core.Task) ([]core.VoxelScore, error)

func (f funcProcessor) Process(t core.Task) ([]core.VoxelScore, error) { return f(t) }

// TestSingleErrorDoesNotAbortRun is the error-containment acceptance case:
// one worker fails every task it touches, yet the run completes because
// each failed task is retried on the healthy worker, and the failing
// worker is quarantined (stopped) after repeated errors instead of sinking
// the analysis.
func TestSingleErrorDoesNotAbortRun(t *testing.T) {
	st := testStack(t)
	comm, err := mpi.NewLocalComm(3, 64)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	quarantined := make(chan struct{})
	broken := funcProcessor(func(task core.Task) ([]core.VoxelScore, error) {
		if calls.Add(1) == 3 {
			close(quarantined) // third error hits the limit; healthy help may join
		}
		return nil, fmt.Errorf("injected failure on voxels [%d,%d)", task.V0, task.V0+task.V)
	})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		// The broken worker must end via the master's quarantine TagStop,
		// i.e. RunWorker returns nil, not with an error of its own.
		if err := RunWorker(comm.Rank(1), broken); err != nil {
			t.Errorf("broken worker exit: %v", err)
		}
	}()
	go func() {
		defer wg.Done()
		// Joining only after the broken worker has burned through its
		// error limit makes the quarantine path deterministic: until then
		// it is the sole live worker and keeps receiving retries.
		<-quarantined
		w, err := core.NewWorker(core.Optimized(), st, nil)
		if err != nil {
			t.Error(err)
			return
		}
		if err := RunWorker(comm.Rank(2), w); err != nil {
			t.Error(err)
		}
	}()
	scores, err := RunMasterOpts(comm.Rank(0), st.N, 8, MasterOptions{WorkerErrorLimit: 3, TaskRetries: 5})
	wg.Wait()
	if err != nil {
		t.Fatalf("a single worker's errors aborted the run: %v", err)
	}
	if len(scores) != st.N {
		t.Fatalf("scores = %d of %d", len(scores), st.N)
	}
	for i, s := range scores {
		if s.Voxel != i {
			t.Fatalf("missing voxel %d", i)
		}
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("broken worker processed %d tasks, want exactly 3 (quarantined at the error limit)", got)
	}
}

// TestTaskRetryBudgetExhaustionAborts proves the flip side: a task that
// fails everywhere is a deterministic failure and must abort the run once
// its budget is spent, with the workers cleanly stopped.
func TestTaskRetryBudgetExhaustionAborts(t *testing.T) {
	comm, err := mpi.NewLocalComm(3, 64)
	if err != nil {
		t.Fatal(err)
	}
	broken := funcProcessor(func(task core.Task) ([]core.VoxelScore, error) {
		return nil, fmt.Errorf("always broken")
	})
	var wg sync.WaitGroup
	for r := 1; r <= 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			_ = RunWorker(comm.Rank(r), broken)
		}(r)
	}
	_, err = RunMasterOpts(comm.Rank(0), 16, 16, MasterOptions{TaskRetries: 2, WorkerErrorLimit: 100})
	wg.Wait()
	if err == nil {
		t.Fatal("deterministically failing task did not abort the run")
	}
}

// hangingWorker takes one task and then sits on it forever without
// disconnecting — the straggler the paper-scale deployment fears most. It
// stays mute (no heartbeats) unless beat is positive.
func hangingWorker(t *testing.T, tr mpi.Transport, gotTask chan<- struct{}, release <-chan struct{}) {
	t.Helper()
	if err := tr.Send(0, mpi.TagReady, nil); err != nil {
		t.Error(err)
		close(gotTask)
		return
	}
	msg, err := tr.Recv()
	if err != nil || msg.Tag != mpi.TagTask {
		t.Errorf("hanging worker got %v, err %v", msg.Tag, err)
		close(gotTask)
		return
	}
	close(gotTask)
	<-release // hold the task, never reply, never disconnect
}

// TestHungWorkerTaskReissuedAfterDeadline is the liveness acceptance case:
// a worker that hangs mid-task without disconnecting stalls nothing — its
// task is speculatively re-issued to an idle worker once the deadline
// passes, and the final score set is complete and deduplicated.
func TestHungWorkerTaskReissuedAfterDeadline(t *testing.T) {
	st := testStack(t)
	comm, err := mpi.NewLocalComm(3, 64)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	gotTask := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		hangingWorker(t, comm.Rank(1), gotTask, release)
	}()
	go func() {
		defer wg.Done()
		<-gotTask // join once the hung worker owns a task
		w, err := core.NewWorker(core.Optimized(), st, nil)
		if err != nil {
			t.Error(err)
			return
		}
		if err := RunWorkerOpts(comm.Rank(2), w, WorkerOptions{HeartbeatInterval: 10 * time.Millisecond}); err != nil {
			t.Error(err)
		}
	}()
	scores, err := RunMasterOpts(comm.Rank(0), st.N, 8, MasterOptions{TaskDeadline: 60 * time.Millisecond})
	close(release)
	wg.Wait()
	if err != nil {
		t.Fatalf("run with a hung worker did not complete: %v", err)
	}
	if len(scores) != st.N {
		t.Fatalf("scores = %d of %d", len(scores), st.N)
	}
	for i, s := range scores {
		if s.Voxel != i {
			t.Fatalf("scores not complete and deduplicated at %d: voxel %d", i, s.Voxel)
		}
	}
}

// TestHeartbeatTimeoutMarksWorkerDead: a worker that goes silent (no
// heartbeats, never disconnects) is declared dead after the timeout and
// its task requeued to a live worker.
func TestHeartbeatTimeoutMarksWorkerDead(t *testing.T) {
	st := testStack(t)
	comm, err := mpi.NewLocalComm(3, 64)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	gotTask := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		hangingWorker(t, comm.Rank(1), gotTask, release) // mute: no heartbeats
	}()
	go func() {
		defer wg.Done()
		<-gotTask
		w, err := core.NewWorker(core.Optimized(), st, nil)
		if err != nil {
			t.Error(err)
			return
		}
		if err := RunWorkerOpts(comm.Rank(2), w, WorkerOptions{HeartbeatInterval: 10 * time.Millisecond}); err != nil {
			t.Error(err)
		}
	}()
	scores, err := RunMasterOpts(comm.Rank(0), st.N, 8, MasterOptions{HeartbeatTimeout: 80 * time.Millisecond})
	close(release)
	wg.Wait()
	if err != nil {
		t.Fatalf("run with a heartbeat-silent worker did not complete: %v", err)
	}
	if len(scores) != st.N {
		t.Fatalf("scores = %d of %d", len(scores), st.N)
	}
}

// TestDuplicateAndStaleResultsDeduplicated scripts a worker that delivers
// every result twice and additionally replays its previous (stale) result
// before each new one — the master must count every voxel exactly once.
func TestDuplicateAndStaleResultsDeduplicated(t *testing.T) {
	st := testStack(t)
	comm, err := mpi.NewLocalComm(2, 64)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tr := comm.Rank(1)
		w, err := core.NewWorker(core.Optimized(), st, nil)
		if err != nil {
			t.Error(err)
			return
		}
		if err := tr.Send(0, mpi.TagReady, nil); err != nil {
			t.Error(err)
			return
		}
		var stale []byte
		for {
			msg, err := tr.Recv()
			if err != nil {
				t.Error(err)
				return
			}
			if msg.Tag == mpi.TagStop {
				return
			}
			var tm taskMsg
			if err := decode(msg.Body, &tm); err != nil {
				t.Error(err)
				return
			}
			scores, err := w.Process(core.Task{V0: tm.V0, V: tm.V})
			if err != nil {
				t.Error(err)
				return
			}
			body, err := encode(resultMsg{Task: tm, Scores: scores})
			if err != nil {
				t.Error(err)
				return
			}
			if stale != nil {
				// Replay the previous task's result, as a speculative
				// duplicate arriving late would.
				if err := tr.Send(0, mpi.TagResult, stale); err != nil {
					t.Error(err)
					return
				}
			}
			// Deliver the fresh result twice.
			for i := 0; i < 2; i++ {
				if err := tr.Send(0, mpi.TagResult, body); err != nil {
					t.Error(err)
					return
				}
			}
			stale = body
		}
	}()
	scores, err := RunMaster(comm.Rank(0), st.N, 8)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != st.N {
		t.Fatalf("scores = %d of %d (duplicates must not inflate or starve the set)", len(scores), st.N)
	}
	for i, s := range scores {
		if s.Voxel != i {
			t.Fatalf("voxel %d missing or duplicated", i)
		}
	}
}

// dropFirstResult sends a worker's first TagResult through a seeded
// ChaosTransport that drops it, and everything else straight through: a
// result lost on the wire while the worker carries on.
type dropFirstResult struct {
	mpi.Transport
	lossy   *mpi.ChaosTransport
	dropped atomic.Bool
}

func (d *dropFirstResult) Send(to int, tag mpi.Tag, body []byte) error {
	if tag == mpi.TagResult && d.dropped.CompareAndSwap(false, true) {
		return d.lossy.Send(to, tag, body)
	}
	return d.Transport.Send(to, tag, body)
}

// TestSupersededRankReturnsToPool pins the speculation wedge. Rank 1 is
// slow on task [0,16), whose speculative copy rank 2 scores; rank 1's own
// result is then lost on the wire, so it waits for new work. Rank 2 has
// failed the only other task, which therefore waits for rank 1. The
// master must retire rank 1 from its superseded task and hand it that
// task; a master that leaves it working on the covered task never
// finishes.
func TestSupersededRankReturnsToPool(t *testing.T) {
	st := testStack(t)
	comm, err := mpi.NewLocalComm(3, 64)
	if err != nil {
		t.Fatal(err)
	}
	lossy, err := mpi.NewChaosTransport(comm.Rank(1), mpi.ChaosConfig{Seed: 17, Drop: 1})
	if err != nil {
		t.Fatal(err)
	}
	slowTr := &dropFirstResult{Transport: comm.Rank(1), lossy: lossy}

	started := make(chan struct{}) // rank 1 holds [0,16)
	copied := make(chan struct{})  // rank 2 has scored the copy of [0,16)
	var copiedOnce sync.Once
	var slowCalls atomic.Int64
	slowWorker := mustWorker(t, st)
	slow := funcProcessor(func(task core.Task) ([]core.VoxelScore, error) {
		if slowCalls.Add(1) == 1 {
			close(started)
			<-copied
		}
		return slowWorker.Process(task)
	})
	helper := copyHelper(t, st, func() { copiedOnce.Do(func() { close(copied) }) })
	quiet := WorkerOptions{HeartbeatInterval: -1}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if err := RunWorkerOpts(slowTr, slow, quiet); err != nil {
			t.Error(err)
		}
	}()
	go func() {
		defer wg.Done()
		<-started // join once rank 1 owns the first task
		if err := RunWorkerOpts(comm.Rank(2), helper, quiet); err != nil {
			t.Error(err)
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	reg := obs.NewRegistry()
	tracer := trace.New(0)
	scores, err := RunMasterCtx(ctx, comm.Rank(0), st.N, 16, MasterOptions{
		TaskDeadline: 100 * time.Millisecond,
		Obs:          reg,
		Trace:        tracer,
	})
	copiedOnce.Do(func() { close(copied) })
	wg.Wait()
	if err != nil {
		t.Fatalf("run with a superseded rank did not complete: %v", err)
	}
	if len(scores) != st.N {
		t.Fatalf("scores = %d of %d", len(scores), st.N)
	}
	if got := reg.Counter("cluster_tasks_speculated_total").Value(); got == 0 {
		t.Fatal("the slow task was never speculated; the scenario did not happen")
	}
	if got := slowCalls.Load(); got != 2 {
		t.Fatalf("rank 1 processed %d tasks, want 2 (its own, then the one rank 2 failed)", got)
	}
	superseded := 0
	for _, sp := range tracer.Drain() {
		if sp.Name == "cluster/task" && sp.Attr("outcome") == "superseded" {
			superseded++
		}
	}
	if superseded != 1 {
		t.Fatalf("%d task spans ended superseded, want 1", superseded)
	}
}

// copyHelper is rank 2 of the supersede tests. It fails the first task it
// gets other than [0,16), so that task waits for rank 1, and calls copied
// once it has scored its speculative copy of [0,16).
func copyHelper(t *testing.T, st *corr.EpochStack, copied func()) TaskProcessor {
	w := mustWorker(t, st)
	var failed atomic.Bool
	return funcProcessor(func(task core.Task) ([]core.VoxelScore, error) {
		if task.V0 != 0 && failed.CompareAndSwap(false, true) {
			return nil, fmt.Errorf("injected failure on voxels [%d,%d)", task.V0, task.V0+task.V)
		}
		if task.V0 == 0 {
			defer copied()
		}
		return w.Process(task)
	})
}

// TestStaleResultKeepsCurrentTask covers a superseded rank that was only
// slow: it delivers the result of [0,16) after the master has retired it
// and handed it [16,32), then crashes. The stale result must not retire
// the rank's current task, or the crash would not requeue [16,32) and the
// run would never finish.
func TestStaleResultKeepsCurrentTask(t *testing.T) {
	st := testStack(t)
	comm, err := mpi.NewLocalComm(3, 64)
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{}) // rank 1 holds [0,16)
	slowWorker := mustWorker(t, st)
	helper := copyHelper(t, st, func() {})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		tr := comm.Rank(1)
		defer tr.Close() // the crash, holding its second task
		if err := tr.Send(0, mpi.TagReady, nil); err != nil {
			t.Error(err)
			return
		}
		var first taskMsg
		for i := 0; ; i++ {
			msg, err := tr.Recv()
			if err != nil || msg.Tag != mpi.TagTask {
				t.Errorf("rank 1 got %v, err %v", msg.Tag, err)
				return
			}
			var tm taskMsg
			if err := decode(msg.Body, &tm); err != nil {
				t.Error(err)
				return
			}
			if i == 0 {
				first = tm
				close(started)
				continue
			}
			if tm.V0 == first.V0 {
				continue // the master renewed the slow task
			}
			scores, err := slowWorker.Process(core.Task{V0: first.V0, V: first.V})
			if err != nil {
				t.Error(err)
				return
			}
			body, err := encode(resultMsg{Task: first, Scores: scores})
			if err != nil {
				t.Error(err)
				return
			}
			if err := tr.Send(0, mpi.TagResult, body); err != nil {
				t.Error(err)
			}
			return
		}
	}()
	go func() {
		defer wg.Done()
		<-started
		if err := RunWorkerOpts(comm.Rank(2), helper, WorkerOptions{HeartbeatInterval: -1}); err != nil {
			t.Error(err)
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	scores, err := RunMasterCtx(ctx, comm.Rank(0), st.N, 16, MasterOptions{TaskDeadline: 100 * time.Millisecond})
	wg.Wait()
	if err != nil {
		t.Fatalf("run with a stale result and a crash did not complete: %v", err)
	}
	if len(scores) != st.N {
		t.Fatalf("scores = %d of %d", len(scores), st.N)
	}
}
