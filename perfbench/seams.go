package main

import (
	"os"
	"sync/atomic"
	"time"

	"fcma/internal/chaos"
	"fcma/internal/mpi"
)

// msgCounts tallies what a set of counting transports moved.
type msgCounts struct {
	sent, sentBytes, recv, recvBytes atomic.Int64
}

// countingTransport is an mpi.Transport decorator that counts the
// messages and body bytes its rank sends and receives. Errors from the
// inner transport are returned unchanged and counted nowhere.
type countingTransport struct {
	mpi.Transport
	c *msgCounts
}

func (t countingTransport) Send(to int, tag mpi.Tag, body []byte) error {
	err := t.Transport.Send(to, tag, body)
	if err == nil {
		t.c.sent.Add(1)
		t.c.sentBytes.Add(int64(len(body)))
	}
	return err
}

func (t countingTransport) Recv() (mpi.Message, error) {
	msg, err := t.Transport.Recv()
	if err == nil {
		t.c.recv.Add(1)
		t.c.recvBytes.Add(int64(len(msg.Body)))
	}
	return msg, err
}

// fsCounts tallies what a counting filesystem made durable.
type fsCounts struct {
	fsyncs, fsyncNanos, bytesWritten atomic.Int64
}

// countingFS is a chaos.FS decorator that counts file and directory
// fsyncs, the time spent in them, and the bytes written through files it
// opened. Errors from the inner filesystem are returned unchanged.
type countingFS struct {
	chaos.FS
	c *fsCounts
}

func (f countingFS) OpenFile(name string, flag int, perm os.FileMode) (chaos.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return countingFile{File: file, c: f.c}, nil
}

func (f countingFS) SyncDir(dir string) error {
	defer f.c.timeSync(time.Now())
	return f.FS.SyncDir(dir)
}

type countingFile struct {
	chaos.File
	c *fsCounts
}

func (f countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.c.bytesWritten.Add(int64(n))
	return n, err
}

func (f countingFile) Sync() error {
	defer f.c.timeSync(time.Now())
	return f.File.Sync()
}

func (c *fsCounts) timeSync(start time.Time) {
	c.fsyncs.Add(1)
	c.fsyncNanos.Add(int64(time.Since(start)))
}
