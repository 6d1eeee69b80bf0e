package main

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"fcma/internal/chaos"
	"fcma/internal/cluster"
	"fcma/internal/core"
	"fcma/internal/mpi"
	"fcma/internal/obs"
)

// fixedProcessor scores every voxel 0.5 without computing anything.
type fixedProcessor struct{}

func (fixedProcessor) Process(t core.Task) ([]core.VoxelScore, error) {
	out := make([]core.VoxelScore, t.V)
	for i := range out {
		out[i] = core.VoxelScore{Voxel: t.V0 + i, Accuracy: 0.5}
	}
	return out, nil
}

// TestCountingSeamsExactCounts runs a fixed small cluster selection (one
// worker, 10 voxels in tasks of 4, heartbeats and metric shipping off)
// with every rank and the journal behind the counting seams.
func TestCountingSeamsExactCounts(t *testing.T) {
	comm, err := mpi.NewLocalComm(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	msgs := &msgCounts{}
	master := countingTransport{Transport: comm.Rank(0), c: msgs}
	worker := countingTransport{Transport: comm.Rank(1), c: msgs}
	defer master.Close()
	defer worker.Close()
	fsc := &fsCounts{}
	path := filepath.Join(t.TempDir(), "run.jnl")
	jn, err := cluster.OpenJournalFS(countingFS{FS: chaos.OS(), c: fsc}, path)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- cluster.RunWorkerCtx(context.Background(), worker, fixedProcessor{},
			cluster.WorkerOptions{HeartbeatInterval: -1, DisableMetrics: true, Obs: obs.NewRegistry()})
	}()
	scores, err := cluster.RunMasterCtx(context.Background(), master, 10, 4,
		cluster.MasterOptions{Journal: jn, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := jn.Close(); err != nil {
		t.Fatal(err)
	}
	if len(scores) != 10 {
		t.Fatalf("%d scores, want 10", len(scores))
	}
	// Worker: ready + 3 results. Master: 3 tasks + stop.
	if got := msgs.sent.Load(); got != 8 {
		t.Errorf("sent %d messages, want 8", got)
	}
	if got := msgs.recv.Load(); got != 8 {
		t.Errorf("received %d messages, want 8", got)
	}
	if s, r := msgs.sentBytes.Load(), msgs.recvBytes.Load(); s == 0 || s != r {
		t.Errorf("sent %d body bytes, received %d; want equal and nonzero", s, r)
	}
	// Creation (temp file + directory), one per completed task, one on close.
	if got := fsc.fsyncs.Load(); got != 2+3+1 {
		t.Errorf("%d fsyncs, want 6", got)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := fsc.bytesWritten.Load(); got != info.Size() {
		t.Errorf("counted %d bytes written, journal holds %d", got, info.Size())
	}
}

// failingTransport fails every operation with its own errors.
type failingTransport struct{ send, recv error }

func (failingTransport) Rank() int                         { return 0 }
func (failingTransport) Size() int                         { return 2 }
func (f failingTransport) Send(int, mpi.Tag, []byte) error { return f.send }
func (f failingTransport) Recv() (mpi.Message, error)      { return mpi.Message{Body: []byte("x")}, f.recv }
func (failingTransport) Close() error                      { return nil }

func TestCountingTransportPassesErrorsThrough(t *testing.T) {
	errSend, errRecv := errors.New("send failed"), errors.New("recv failed")
	c := &msgCounts{}
	tr := countingTransport{Transport: failingTransport{send: errSend, recv: errRecv}, c: c}
	if err := tr.Send(1, mpi.TagResult, []byte("body")); err != errSend {
		t.Errorf("Send returned %v, want the inner error unchanged", err)
	}
	if _, err := tr.Recv(); err != errRecv {
		t.Errorf("Recv returned %v, want the inner error unchanged", err)
	}
	if c.sent.Load()+c.sentBytes.Load()+c.recv.Load()+c.recvBytes.Load() != 0 {
		t.Error("failed operations were counted")
	}
}

// failingFS fails every operation with errFS; its files fail writes after
// two bytes and every sync.
type failingFS struct{ chaos.FS }

var errFS = errors.New("disk failed")

func (failingFS) OpenFile(string, int, os.FileMode) (chaos.File, error) { return nil, errFS }
func (failingFS) SyncDir(string) error                                  { return errFS }

type failingFile struct{ chaos.File }

func (failingFile) Write(p []byte) (int, error) { return min(2, len(p)), errFS }
func (failingFile) Sync() error                 { return errFS }

func TestCountingFSPassesErrorsThrough(t *testing.T) {
	c := &fsCounts{}
	fsys := countingFS{FS: failingFS{FS: chaos.OS()}, c: c}
	if f, err := fsys.OpenFile("x", os.O_RDONLY, 0); err != errFS || f != nil {
		t.Errorf("OpenFile returned (%v, %v), want (nil, the inner error)", f, err)
	}
	if err := fsys.SyncDir("."); err != errFS {
		t.Errorf("SyncDir returned %v, want the inner error unchanged", err)
	}
	f := countingFile{File: failingFile{}, c: c}
	if n, err := f.Write([]byte("abcd")); n != 2 || err != errFS {
		t.Errorf("Write returned (%d, %v), want (2, the inner error)", n, err)
	}
	if err := f.Sync(); err != errFS {
		t.Errorf("Sync returned %v, want the inner error unchanged", err)
	}
	// Attempted fsyncs count; bytes count what the inner file accepted.
	if c.fsyncs.Load() != 2 || c.bytesWritten.Load() != 2 {
		t.Errorf("counted %d fsyncs and %d bytes, want 2 and 2", c.fsyncs.Load(), c.bytesWritten.Load())
	}
}
