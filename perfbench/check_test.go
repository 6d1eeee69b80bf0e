package main

import (
	"math"
	"testing"

	"fcma"
)

// TestChecksCatchCorruptScores runs both engines on a small generated
// dataset, confirms the checks accept the real results, then corrupts one
// score at a time and confirms each corruption is caught.
func TestChecksCatchCorruptScores(t *testing.T) {
	spec := smallSpec(1, 0)
	data, err := fcma.Generate(fcma.Spec(spec))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := fcma.SelectVoxels(data, fcma.Config{Engine: fcma.Baseline})
	if err != nil {
		t.Fatal(err)
	}
	got, err := fcma.SelectVoxels(data, fcma.Config{})
	if err != nil {
		t.Fatal(err)
	}
	M, folds, k := data.Epochs(), data.Subjects(), len(data.SignalVoxels())
	if err := checkNearBaseline(got, ref, M, folds, k); err != nil {
		t.Fatalf("optimized result rejected: %v", err)
	}
	if err := checkIdentical(got, clone(got)); err != nil {
		t.Fatalf("identical ranking rejected: %v", err)
	}
	if r := recall(got, data.SignalVoxels()); r <= 0.5 {
		t.Fatalf("recall %v: the planted signal should be recovered", r)
	}

	last := len(got) - 1
	offByOneMore := clone(got)
	offByOneMore[last].Accuracy += float64(folds+1) / float64(M)
	if err := checkNearBaseline(offByOneMore, ref, M, folds, k); err == nil {
		t.Error("a score more than one sample per fold off the baseline passed")
	}
	swapped := clone(got)
	swapped[0], swapped[last] = swapped[last], swapped[0]
	if err := checkNearBaseline(swapped, ref, M, folds, k); err == nil {
		t.Error("a different top-k set passed")
	}
	oneBit := clone(got)
	oneBit[last].Accuracy = math.Float64frombits(math.Float64bits(oneBit[last].Accuracy) ^ 1)
	if err := checkIdentical(oneBit, got); err == nil {
		t.Error("a one-bit score change passed the bit-exact check")
	}
	if err := checkIdentical(got[:last], got); err == nil {
		t.Error("a ranking missing a voxel passed the bit-exact check")
	}
}

func clone(s []fcma.VoxelScore) []fcma.VoxelScore { return append([]fcma.VoxelScore(nil), s...) }

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {0.9, 3.7}, {1, 4}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of an empty sample should be 0")
	}
}
