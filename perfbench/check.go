package main

import (
	"fmt"
	"math"
	"sort"

	"fcma"
)

// checkNearBaseline accepts a selection when every voxel's accuracy is
// within one held-out sample per cross-validation fold (folds/epochs) of
// the Baseline engine's, and the top-k voxels form the same set. The two
// engines differ by design (float32 PhiSVM against float64 LibSVM), and
// each fold's model may classify a sample near its margin differently;
// on 16 seeds of each workload shape the largest difference seen was two
// samples, in one voxel of about 8000. Anything more is a wrong result.
func checkNearBaseline(got, ref []fcma.VoxelScore, epochs, folds, k int) error {
	if len(got) != len(ref) {
		return fmt.Errorf("%d scores, reference has %d", len(got), len(ref))
	}
	want := make(map[int]float64, len(ref))
	for _, s := range ref {
		want[s.Voxel] = s.Accuracy
	}
	tol := float64(folds)/float64(epochs) + 1e-9
	for _, s := range got {
		r, ok := want[s.Voxel]
		if !ok {
			return fmt.Errorf("voxel %d is not in the reference", s.Voxel)
		}
		if math.Abs(s.Accuracy-r) > tol {
			return fmt.Errorf("voxel %d scored %.4f, baseline %.4f: more than %d of %d samples apart",
				s.Voxel, s.Accuracy, r, folds, epochs)
		}
	}
	if a, b := topSet(got, k), topSet(ref, k); fmt.Sprint(a) != fmt.Sprint(b) {
		return fmt.Errorf("top-%d set %v, baseline %v", k, a, b)
	}
	return nil
}

// checkIdentical accepts a ranking only when it equals the reference
// rank for rank, voxel for voxel, bit for bit.
func checkIdentical(got, want []fcma.VoxelScore) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d scores, reference has %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Voxel != want[i].Voxel || math.Float64bits(got[i].Accuracy) != math.Float64bits(want[i].Accuracy) {
			return fmt.Errorf("rank %d is voxel %d at %v, reference voxel %d at %v",
				i, got[i].Voxel, got[i].Accuracy, want[i].Voxel, want[i].Accuracy)
		}
	}
	return nil
}

// topSet returns the sorted voxel ids of a ranking's first k entries.
func topSet(ranked []fcma.VoxelScore, k int) []int {
	k = min(k, len(ranked))
	out := make([]int, k)
	for i, s := range ranked[:k] {
		out[i] = s.Voxel
	}
	sort.Ints(out)
	return out
}

// recall is the share of the planted signal voxels ranked in the top
// len(signal).
func recall(ranked []fcma.VoxelScore, signal []int) float64 {
	if len(signal) == 0 {
		return 0
	}
	planted := make(map[int]bool, len(signal))
	for _, v := range signal {
		planted[v] = true
	}
	hits := 0
	for _, s := range ranked[:min(len(signal), len(ranked))] {
		if planted[s.Voxel] {
			hits++
		}
	}
	return float64(hits) / float64(len(signal))
}
