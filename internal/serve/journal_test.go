package serve

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"fcma/internal/chaos"
	"fcma/internal/core"
	"fcma/internal/obs"
	"fcma/internal/wal"
)

// jnlPath returns a journal path in a fresh temp dir.
func jnlPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "jobs.jnl")
}

// mustOpen opens a serve journal or fails the test.
func mustOpen(t *testing.T, path string, reg *obs.Registry) *journal {
	t.Helper()
	if reg == nil {
		reg = obs.NewRegistry()
	}
	j, err := openJournal(chaos.OS(), path, reg)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// awkwardScores holds float64 values with no short decimal form, so a
// replay that round-trips through anything but raw bits would drift.
var awkwardScores = []core.VoxelScore{
	{Voxel: 0, Accuracy: 1.0 / 3.0},
	{Voxel: 1, Accuracy: math.Nextafter(0.7, 1)},
	{Voxel: 2, Accuracy: 0.1 + 0.2},
}

// TestJournalReplayRoundTrip writes a full job lifecycle and proves a
// reopened journal reconstructs it bit-exactly.
func TestJournalReplayRoundTrip(t *testing.T) {
	path := jnlPath(t)
	j := mustOpen(t, path, nil)
	spec := JobSpec{Synthetic: "face-scene", Scale: 0.001, Tenant: "alice", TopK: 2}
	if err := j.recordAccept("job-00000042", spec); err != nil {
		t.Fatal(err)
	}
	if err := j.recordState("job-00000042", StateRunning, ""); err != nil {
		t.Fatal(err)
	}
	if err := j.recordProgress("job-00000042", 0, 3, awkwardScores); err != nil {
		t.Fatal(err)
	}
	if err := j.recordState("job-00000042", StateDone, ""); err != nil {
		t.Fatal(err)
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, path, nil)
	defer r.close()
	if r.maxSeq != 42 {
		t.Fatalf("maxSeq = %d, want 42", r.maxSeq)
	}
	job := r.jobs["job-00000042"]
	if job == nil || job.State != StateDone {
		t.Fatalf("replayed job = %+v", job)
	}
	if job.Spec != spec {
		t.Fatalf("replayed spec = %+v, want %+v", job.Spec, spec)
	}
	// finalize ran at replay (TopK=2 keeps the two best) with raw bits.
	if len(job.result) != 2 {
		t.Fatalf("replayed result = %+v, want top 2", job.result)
	}
	for _, got := range job.result {
		want := awkwardScores[got.Voxel].Accuracy
		if math.Float64bits(got.Accuracy) != math.Float64bits(want) {
			t.Fatalf("voxel %d replayed %x, want %x",
				got.Voxel, math.Float64bits(got.Accuracy), math.Float64bits(want))
		}
	}
}

// TestJournalNormalizesInFlightStates proves jobs a crash caught running
// or checkpointing replay as accepted, keeping their durable chunks.
func TestJournalNormalizesInFlightStates(t *testing.T) {
	path := jnlPath(t)
	j := mustOpen(t, path, nil)
	for i, st := range []State{StateRunning, StateCheckpointing} {
		id := []string{"job-00000001", "job-00000002"}[i]
		if err := j.recordAccept(id, JobSpec{Synthetic: "face-scene"}); err != nil {
			t.Fatal(err)
		}
		if err := j.recordState(id, StateRunning, ""); err != nil {
			t.Fatal(err)
		}
		if st == StateCheckpointing {
			if err := j.recordState(id, StateCheckpointing, ""); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := j.recordProgress("job-00000001", 0, 1, awkwardScores[:1]); err != nil {
		t.Fatal(err)
	}
	j.abort() // crash-shaped close

	r := mustOpen(t, path, nil)
	defer r.close()
	for _, id := range []string{"job-00000001", "job-00000002"} {
		if got := r.jobs[id].State; got != StateAccepted {
			t.Fatalf("%s replayed as %s, want accepted", id, got)
		}
	}
	if r.jobs["job-00000001"].progress() != 1 {
		t.Fatal("durable chunk lost in normalization")
	}
}

// TestJournalIdempotentRunningAcrossIncarnations proves a journal holding
// several incarnations' worth of running transitions for the same job
// replays cleanly (each restart re-marks a resumed job running).
func TestJournalIdempotentRunningAcrossIncarnations(t *testing.T) {
	path := jnlPath(t)
	j := mustOpen(t, path, nil)
	if err := j.recordAccept("job-00000001", JobSpec{Synthetic: "face-scene"}); err != nil {
		t.Fatal(err)
	}
	if err := j.recordState("job-00000001", StateRunning, ""); err != nil {
		t.Fatal(err)
	}
	j.abort()

	// Second incarnation: replay (running → accepted), mark running again.
	second := mustOpen(t, path, nil)
	if err := second.recordState("job-00000001", StateRunning, ""); err != nil {
		t.Fatal(err)
	}
	if err := second.recordState("job-00000001", StateDone, ""); err != nil {
		t.Fatal(err)
	}
	if err := second.close(); err != nil {
		t.Fatal(err)
	}

	// Third replay sees running, running, done — and no torn-tail recovery.
	reg := obs.NewRegistry()
	third := mustOpen(t, path, reg)
	defer third.close()
	if got := third.jobs["job-00000001"].State; got != StateDone {
		t.Fatalf("job replayed as %s, want done", got)
	}
	if n := reg.Counter("serve_journal_torn_recoveries_total").Value(); n != 0 {
		t.Fatalf("clean multi-incarnation journal counted %d torn recoveries", n)
	}
}

// TestJournalIllegalTransitionFailsOpen proves replay refuses a record
// that violates the state machine instead of truncating it away: the
// record is physically intact (CRC-verified), so discarding it — and
// every record after it, possibly fsynced terminal states — could make
// completed jobs re-run. The service fails to start, loudly, and the
// journal file is left untouched for inspection.
func TestJournalIllegalTransitionFailsOpen(t *testing.T) {
	path := jnlPath(t)
	j := mustOpen(t, path, nil)
	if err := j.recordAccept("job-00000001", JobSpec{Synthetic: "face-scene"}); err != nil {
		t.Fatal(err)
	}
	if err := j.recordState("job-00000001", StateRunning, ""); err != nil {
		t.Fatal(err)
	}
	if err := j.recordState("job-00000001", StateDone, ""); err != nil {
		t.Fatal(err)
	}
	// recordState does not re-check legality (the Service does); write a
	// done → running edge straight through to simulate version/logic skew.
	if err := j.recordState("job-00000001", StateRunning, ""); err != nil {
		t.Fatal(err)
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := openJournal(chaos.OS(), path, obs.NewRegistry()); err == nil {
		t.Fatal("openJournal accepted a journal with an illegal transition")
	} else {
		var aerr *wal.ApplyError
		if !errors.As(err, &aerr) {
			t.Fatalf("openJournal error = %v, want *wal.ApplyError", err)
		}
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != before.Size() {
		t.Fatalf("rejected journal was modified: %d -> %d bytes", before.Size(), after.Size())
	}
}

// TestJournalTornTailRecovers proves a physically torn final frame is
// discarded and every earlier record survives.
func TestJournalTornTailRecovers(t *testing.T) {
	path := jnlPath(t)
	j := mustOpen(t, path, nil)
	if err := j.recordAccept("job-00000001", JobSpec{Synthetic: "face-scene"}); err != nil {
		t.Fatal(err)
	}
	if err := j.recordProgress("job-00000001", 0, 3, awkwardScores); err != nil {
		t.Fatal(err)
	}
	if err := j.recordProgress("job-00000001", 3, 3, awkwardScores); err != nil {
		t.Fatal(err)
	}
	j.abort()

	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	r := mustOpen(t, path, reg)
	defer r.close()
	job := r.jobs["job-00000001"]
	if job == nil {
		t.Fatal("accept record lost")
	}
	// Only the first record's voxels survive; both records scored
	// voxels 0-2, so the torn second one leaves [3,6) uncovered.
	if !core.Covered(job.scores, 0, 3) || core.Covered(job.scores, 3, 3) {
		t.Fatalf("scores after torn replay = %v, want exactly voxels 0-2", job.scores)
	}
	if n := reg.Counter("serve_journal_torn_recoveries_total").Value(); n != 1 {
		t.Fatalf("torn recoveries = %d, want 1", n)
	}
}

// goldenProgressJournal is a service journal file as written by the
// hand-rolled progress encoder that core.AppendRange replaced: the magic,
// an accept record for job-00000005, then a progress record for its
// chunk [4,7) with scores 0.1+0.2, -0 and a NaN carrying a non-default
// payload.
const goldenProgressJournal = "46434d4153525631" + // "FCMASRV1"
	"38000000" + "fe168a5f" + // accept frame: length 56, CRC
	"01" + "7b226964223a226a6f622d3030303030303035222c2273706563223a7b2273796e746865746963223a22666163652d7363656e65227d7d" +
	"41000000" + "408b49f9" + // progress frame: length 65, CRC
	"03" + "0c000000" + "6a6f622d3030303030303035" + // srProgress, id length 12, id
	"04000000" + "03000000" + "03000000" + // v0 4, v 3, count 3
	"04000000" + "333333333333d33f" +
	"05000000" + "0000000000000080" +
	"06000000" + "efbeadde0000f87f"

// TestProgressRecordGoldenBytes pins the service journal's on-disk
// format across the move to the shared completed-range codec: the golden
// file replays to the same voxels and raw float64 bits, and journaling
// the same job again writes the same bytes.
func TestProgressRecordGoldenBytes(t *testing.T) {
	golden, err := hex.DecodeString(goldenProgressJournal)
	if err != nil {
		t.Fatal(err)
	}
	want := []core.VoxelScore{
		{Voxel: 4, Accuracy: math.Float64frombits(0x3fd3333333333333)},
		{Voxel: 5, Accuracy: math.Float64frombits(0x8000000000000000)},
		{Voxel: 6, Accuracy: math.Float64frombits(0x7ff80000deadbeef)},
	}
	path := jnlPath(t)
	if err := os.WriteFile(path, golden, 0o644); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, path, nil)
	job := r.jobs["job-00000005"]
	if r.log.Truncated() || job == nil || job.progress() != len(want) || job.totalVoxels != 7 {
		t.Fatalf("replay: truncated=%v job=%+v", r.log.Truncated(), job)
	}
	for _, s := range want {
		got, ok := job.scores[s.Voxel]
		if !ok || math.Float64bits(got) != math.Float64bits(s.Accuracy) {
			t.Fatalf("voxel %d replayed as %x (present %v), want bits %x",
				s.Voxel, math.Float64bits(got), ok, math.Float64bits(s.Accuracy))
		}
	}
	if err := r.close(); err != nil {
		t.Fatal(err)
	}

	again := jnlPath(t)
	j := mustOpen(t, again, nil)
	if err := j.recordAccept("job-00000005", JobSpec{Synthetic: "face-scene"}); err != nil {
		t.Fatal(err)
	}
	if err := j.recordProgress("job-00000005", 4, 3, want); err != nil {
		t.Fatal(err)
	}
	if err := j.close(); err != nil {
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
