package main

import (
	"context"
	"testing"

	"fcma/internal/corr"
	"fcma/internal/fmri"
)

// TestClusterStartsServing checks that every worker rank of a started
// cluster has sent its ready message, and that closing the cluster right
// away reports no error. Every set-up but the last is torn down as soon
// as it is started; a rank still sending its ready message when its
// transport closed used to fail the run.
func TestClusterStartsServing(t *testing.T) {
	ctx := context.Background()
	ds, err := fmri.Generate(smallSpec(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	stack, err := corr.BuildEpochStackContext(ctx, ds, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		msgs := &msgCounts{}
		rig, err := startCluster(ctx, stack, probes{msgs: msgs})
		if err != nil {
			t.Fatal(err)
		}
		sent := msgs.sent.Load()
		if err := rig.close(); err != nil {
			t.Fatalf("start %d: close: %v", i, err)
		}
		if sent < clusterWorkers {
			t.Fatalf("start %d: %d messages sent when the cluster started, want a ready message from each of %d workers", i, sent, clusterWorkers)
		}
	}
}
