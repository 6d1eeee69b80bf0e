package main

import (
	"context"
	"runtime"
	"testing"

	"fcma"
	"fcma/internal/fmri"
)

// TestComposedSelectionMatchesSelectVoxels pins the traced run's
// composition of the layers to fcma.SelectVoxels. On one thread the
// batched syrk merges its block partials in a fixed order, so both must
// rank bit for bit alike; on more threads that order depends on
// scheduling (see clusterReference). Seed 106 has a voxel whose score
// turns on that order.
func TestComposedSelectionMatchesSelectVoxels(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two whole-brain selections")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ctx := context.Background()
	spec := faceSceneSpec(106)
	ds, err := fmri.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	data, err := fcma.Generate(fcma.Spec(spec))
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := composeSelection(ctx, ds)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := fcma.SelectVoxelsContext(ctx, data, fcma.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkIdentical(p.ranking, ref); err != nil {
		t.Fatal(err)
	}
}
