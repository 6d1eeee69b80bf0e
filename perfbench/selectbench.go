package main

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"

	"fcma"
	"fcma/internal/fmri"
)

// selectBench calls fcma.SelectVoxels with the optimized engine on one
// dataset, one selection after another.
type selectBench struct {
	data *fcma.Data
}

func setupSelect(spec func(int64) fmri.Spec) func(context.Context, int64, string) (bench, error) {
	return func(_ context.Context, seed int64, _ string) (bench, error) {
		data, err := fcma.Generate(fcma.Spec(spec(seed)))
		if err != nil {
			return nil, err
		}
		return &selectBench{data: data}, nil
	}
}

func (b *selectBench) measure(ctx context.Context, budget time.Duration) (loopStats, error) {
	signal := b.data.SignalVoxels()
	st, err := closedLoop(ctx, 1, 1, budget, func(ctx context.Context, _ int) opResult {
		// Collect the previous selection's garbage and return it to the OS
		// first, untimed, so that where GC cycles fall and which freed pages
		// the runtime reuses move neither the time nor the peak RSS.
		debug.FreeOSMemory()
		start := time.Now()
		got, err := fcma.SelectVoxelsContext(ctx, b.data, fcma.Config{})
		return opResult{seconds: time.Since(start).Seconds(), ranking: got, signal: signal, err: err}
	})
	if err != nil {
		return st, err
	}
	ref, err := fcma.SelectVoxelsContext(ctx, b.data, fcma.Config{Engine: fcma.Baseline})
	if err != nil {
		return st, fmt.Errorf("baseline reference: %w", err)
	}
	st.verify(func(op opResult) error {
		return checkNearBaseline(op.ranking, ref, b.data.Epochs(), b.data.Subjects(), len(signal))
	})
	return st, nil
}

func (b *selectBench) close() error { return nil }
