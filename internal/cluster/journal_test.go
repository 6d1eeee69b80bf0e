package cluster

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"

	"fcma/internal/chaos"
	"fcma/internal/core"
	"fcma/internal/mpi"
)

// TestJournalRoundTripBitExact proves completion records rehydrate with
// the raw float64 bits intact — the property the resumed master's
// bit-exactness guarantee rests on (a decimal rendering would round).
func TestJournalRoundTripBitExact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jnl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	scores := []core.VoxelScore{
		{Voxel: 0, Accuracy: 1.0 / 3.0},
		{Voxel: 1, Accuracy: 0.1 + 0.2}, // not representable at 6 decimals
		{Voxel: 2, Accuracy: 0.7499999999999991},
	}
	if err := j.RecordAssign(0, 3, 1); err != nil {
		t.Fatal(err)
	}
	if err := j.RecordComplete(0, 3, scores); err != nil {
		t.Fatal(err)
	}
	if err := j.RecordAssign(3, 3, 2); err != nil { // in-flight at crash
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Truncated() {
		t.Fatal("clean journal reported a truncated tail")
	}
	if r.Done() != 3 || r.ReplayedCompletions() != 1 || r.ReplayedAssigns() != 2 {
		t.Fatalf("replay: done=%d completions=%d assigns=%d", r.Done(), r.ReplayedCompletions(), r.ReplayedAssigns())
	}
	got := map[int]float64{}
	for _, s := range r.Scores() {
		got[s.Voxel] = s.Accuracy
	}
	for _, s := range scores {
		if got[s.Voxel] != s.Accuracy {
			t.Fatalf("voxel %d: accuracy %x, want bit-exact %x", s.Voxel, got[s.Voxel], s.Accuracy)
		}
	}
}

// TestJournalTornTailRecovery crashes mid-append (simulated by writing a
// partial frame) and proves reopening truncates the torn tail, keeps
// every intact record, and accepts new appends at the cut.
func TestJournalTornTailRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jnl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.RecordComplete(0, 2, []core.VoxelScore{{Voxel: 0, Accuracy: 0.5}, {Voxel: 1, Accuracy: 0.75}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear: a frame header promising more bytes than exist.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xff, 0x00, 0x00, 0x00, 0x12, 0x34}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("torn journal must recover, got %v", err)
	}
	if !r.Truncated() {
		t.Fatal("recovery did not report the torn tail")
	}
	if r.Done() != 2 {
		t.Fatalf("recovered %d voxels, want the 2 intact ones", r.Done())
	}
	// The journal must be appendable right where recovery cut it.
	if err := r.RecordComplete(2, 1, []core.VoxelScore{{Voxel: 2, Accuracy: 0.25}}); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if r2.Truncated() || r2.Done() != 3 {
		t.Fatalf("post-recovery journal: truncated=%v done=%d, want clean with 3", r2.Truncated(), r2.Done())
	}
}

// TestJournalCorruptCRCRecovery flips a payload byte and proves the
// damaged record (and everything after it) is discarded rather than
// trusted.
func TestJournalCorruptCRCRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jnl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.RecordComplete(0, 1, []core.VoxelScore{{Voxel: 0, Accuracy: 0.5}}); err != nil {
		t.Fatal(err)
	}
	if err := j.RecordComplete(1, 1, []core.VoxelScore{{Voxel: 1, Accuracy: 0.75}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the accuracy bits of the SECOND record: its CRC no longer
	// matches, so replay must stop before it.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("corrupt-CRC journal must recover, got %v", err)
	}
	defer r.Close()
	if !r.Truncated() {
		t.Fatal("recovery did not report the corrupt record")
	}
	if r.Done() != 1 || !r.Has(0) || r.Has(1) {
		t.Fatalf("recovered done=%d has0=%v has1=%v; the corrupt record must not be trusted",
			r.Done(), r.Has(0), r.Has(1))
	}
}

// TestJournalBadMagicRefuses proves a non-journal file is rejected
// outright instead of being "recovered" into an empty journal.
func TestJournalBadMagicRefuses(t *testing.T) {
	path := filepath.Join(t.TempDir(), "notajournal")
	if err := os.WriteFile(path, []byte("voxel,accuracy\n1,0.5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path); err == nil {
		t.Fatal("journal opened a file with the wrong magic")
	}
}

// TestJournalTornWriteThroughChaosFS drives the chaosfs seam end to end:
// a completion append torn by the fault plan surfaces as an error (the
// master treats it as a crash), and reopening on a clean filesystem
// recovers exactly the records that were durably synced before the tear.
func TestJournalTornWriteThroughChaosFS(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jnl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.RecordComplete(0, 1, []core.VoxelScore{{Voxel: 0, Accuracy: 0.5}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	plan, err := chaos.NewPlan(chaos.Config{Seed: 5, FS: chaos.FSConfig{TornWrite: 1}})
	if err != nil {
		t.Fatal(err)
	}
	jc, err := OpenJournalFS(plan.FS(chaos.OS()), path)
	if err != nil {
		t.Fatal(err)
	}
	err = jc.RecordComplete(1, 1, []core.VoxelScore{{Voxel: 1, Accuracy: 0.75}})
	if err == nil {
		t.Fatal("torn completion append reported success")
	}
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("torn append error = %v, want the injected EIO", err)
	}
	jc.log.Abort() // simulate the crash: no clean Close/Sync

	r, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("journal with a chaos-torn tail must recover, got %v", err)
	}
	defer r.Close()
	if r.Done() != 1 || !r.Has(0) || r.Has(1) {
		t.Fatalf("recovered done=%d; only the pre-tear record may survive", r.Done())
	}
}

// TestJournalCreateSurvivesRenameFault proves atomic creation: when the
// chaos plan fails the rename, no half-created journal is left behind and
// a retry on a healthy filesystem starts clean.
func TestJournalCreateSurvivesRenameFault(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jnl")
	plan, err := chaos.NewPlan(chaos.Config{Seed: 7, FS: chaos.FSConfig{RenameFail: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournalFS(plan.FS(chaos.OS()), path); err == nil {
		t.Fatal("journal creation succeeded through a failed rename")
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("failed creation left a journal behind: %v", err)
	}
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("retry on a healthy filesystem: %v", err)
	}
	j.Close()
}

// TestCheckpointTornWriteThroughChaosFS covers the journal in its role as
// the master's resume checkpoint: a completion append torn mid-record by
// chaosfs must error without marking its voxels done in memory, and
// reopening must drop the torn frame, keep the last complete record and
// accept new appends.
func TestCheckpointTornWriteThroughChaosFS(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jnl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.RecordComplete(0, 1, []core.VoxelScore{{Voxel: 0, Accuracy: 0.5}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	plan, err := chaos.NewPlan(chaos.Config{Seed: 9, FS: chaos.FSConfig{TornWrite: 1}})
	if err != nil {
		t.Fatal(err)
	}
	jc, err := OpenJournalFS(plan.FS(chaos.OS()), path)
	if err != nil {
		t.Fatal(err)
	}
	if err := jc.RecordComplete(1, 1, []core.VoxelScore{{Voxel: 1, Accuracy: 0.75}}); err == nil {
		t.Fatal("torn completion append reported success")
	}
	if jc.Has(1) {
		t.Fatal("failed append still marked its voxels complete in memory")
	}
	jc.log.Abort() // crash, no clean shutdown

	r, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("journal with a torn tail must recover, got %v", err)
	}
	defer r.Close()
	if r.Done() != 1 || !r.Has(0) || r.Has(1) {
		t.Fatalf("recovered done=%d; only the pre-tear voxel may survive", r.Done())
	}
	// And it must be appendable after recovery.
	if err := r.RecordComplete(1, 1, []core.VoxelScore{{Voxel: 1, Accuracy: 0.75}}); err != nil {
		t.Fatal(err)
	}
	if r.Done() != 2 || !r.Has(1) {
		t.Fatalf("after post-recovery append done=%d, want 2", r.Done())
	}
}

// goldenCompletionJournal is a master journal file as written by the
// hand-rolled completion encoder that core.AppendRange replaced: the
// magic, then one CRC frame holding a completion record for the task
// [7,10) with scores 0.1+0.2, -0 and a NaN carrying a non-default payload.
const goldenCompletionJournal = "46434d414a4e4c31" + // "FCMAJNL1"
	"31000000" + "01d30deb" + // frame: payload length 49, CRC
	"02" + "07000000" + "03000000" + "03000000" + // jrComplete, v0 7, v 3, count 3
	"07000000" + "333333333333d33f" +
	"08000000" + "0000000000000080" +
	"09000000" + "efbeadde0000f87f"

// TestCompletionRecordGoldenBytes pins the journal's on-disk format
// across the move to the shared completed-range codec: the golden file
// replays to the same voxels and raw float64 bits, and journaling those
// scores again writes the same bytes.
func TestCompletionRecordGoldenBytes(t *testing.T) {
	golden, err := hex.DecodeString(goldenCompletionJournal)
	if err != nil {
		t.Fatal(err)
	}
	want := []core.VoxelScore{
		{Voxel: 7, Accuracy: math.Float64frombits(0x3fd3333333333333)},
		{Voxel: 8, Accuracy: math.Float64frombits(0x8000000000000000)},
		{Voxel: 9, Accuracy: math.Float64frombits(0x7ff80000deadbeef)},
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "golden.jnl")
	if err := os.WriteFile(path, golden, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Truncated() || r.ReplayedCompletions() != 1 || r.Done() != len(want) {
		t.Fatalf("replay: truncated=%v completions=%d done=%d", r.Truncated(), r.ReplayedCompletions(), r.Done())
	}
	for _, s := range want {
		got, ok := r.completed[s.Voxel]
		if !ok || math.Float64bits(got) != math.Float64bits(s.Accuracy) {
			t.Fatalf("voxel %d replayed as %x (present %v), want bits %x",
				s.Voxel, math.Float64bits(got), ok, math.Float64bits(s.Accuracy))
		}
	}

	again := filepath.Join(dir, "again.jnl")
	j, err := OpenJournal(again)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.RecordComplete(7, 3, want); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadFile(again)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(written, golden) {
		t.Fatalf("re-encoded journal differs:\n got %x\nwant %x", written, golden)
	}
}

// crashAfterTasks is a worker that returns results for n tasks and then
// drops its connection without a word, as a crashed node would.
func crashAfterTasks(t *testing.T, tr mpi.Transport, w *core.Worker, n int) {
	t.Helper()
	defer tr.Close()
	if err := tr.Send(0, mpi.TagReady, nil); err != nil {
		t.Error(err)
		return
	}
	for task := 0; task < n; task++ {
		msg, err := tr.Recv()
		if err != nil || msg.Tag != mpi.TagTask {
			t.Errorf("task %d: %v %v", task, msg.Tag, err)
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
		if err := tr.Send(0, mpi.TagResult, body); err != nil {
			t.Error(err)
			return
		}
	}
}

// TestJournaledResumeAfterWorkerLoss aborts an analysis partway — its only
// worker dies after two tasks, so the master gives up with no live
// workers — then resumes from the journal with a healthy worker. The
// resumed run must compute only the two missing tasks and return scores
// bit-exact with an uninterrupted run.
func TestJournaledResumeAfterWorkerLoss(t *testing.T) {
	st := testStack(t)
	ref, err := mustWorker(t, st).Process(core.Task{V0: 0, V: st.N})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.jnl")

	jn, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	comm, err := mpi.NewLocalComm(2, 32)
	if err != nil {
		t.Fatal(err)
	}
	w := mustWorker(t, st)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		crashAfterTasks(t, comm.Rank(1), w, 2)
	}()
	_, err = RunMasterOpts(comm.Rank(0), st.N, 8, MasterOptions{Journal: jn})
	wg.Wait()
	if err == nil {
		t.Fatal("phase 1 should abort when its only worker dies")
	}
	if err := jn.Close(); err != nil {
		t.Fatal(err)
	}

	jn2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jn2.Close()
	if jn2.Done() != 16 {
		t.Fatalf("journal holds %d voxels after 2 tasks of 8, want 16", jn2.Done())
	}
	comm2, err := mpi.NewLocalComm(2, 32)
	if err != nil {
		t.Fatal(err)
	}
	var processed atomic.Int64
	count := funcProcessor(func(task core.Task) ([]core.VoxelScore, error) {
		processed.Add(1)
		return w.Process(task)
	})
	var wg2 sync.WaitGroup
	wg2.Add(1)
	go func() {
		defer wg2.Done()
		if err := RunWorker(comm2.Rank(1), count); err != nil {
			t.Error(err)
		}
	}()
	scores, err := RunMasterOpts(comm2.Rank(0), st.N, 8, MasterOptions{Journal: jn2})
	wg2.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != st.N {
		t.Fatalf("final scores = %d of %d", len(scores), st.N)
	}
	for i, s := range scores {
		if s.Voxel != ref[i].Voxel || math.Float64bits(s.Accuracy) != math.Float64bits(ref[i].Accuracy) {
			t.Fatalf("voxel %d: %+v, want bit-exact %+v", i, s, ref[i])
		}
	}
	// 32 voxels / 8 per task = 4 tasks; 2 were journaled complete.
	if n := processed.Load(); n != 2 {
		t.Fatalf("resume processed %d tasks, want 2 (skip journaled)", n)
	}
}
