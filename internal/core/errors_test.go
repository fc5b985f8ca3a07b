package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

func TestRunStatusString(t *testing.T) {
	cases := map[RunStatus]string{
		StatusComplete: "complete",
		StatusStopped:  "stopped",
		StatusCanceled: "canceled",
		StatusDeadline: "deadline",
		StatusBudget:   "budget",
		StatusFailed:   "failed",
		StatusPanicked: "panicked",
		StatusStalled:  "stalled",
		RunStatus(42):  "RunStatus(42)",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Errorf("RunStatus(%d).String() = %q, want %q", int(s), s.String(), want)
		}
	}
}

func TestValidateSentinels(t *testing.T) {
	g := randomDyadic(6, 0.5, rand.New(rand.NewSource(1)))
	cases := []struct {
		name   string
		err    error
		target error
	}{
		{"nil graph", Validate(nil, 0.5, Config{}), ErrNilGraph},
		{"alpha low", Validate(g, 0, Config{}), ErrAlphaRange},
		{"alpha high", Validate(g, 1.01, Config{}), ErrAlphaRange},
		{"minsize", Validate(g, 0.5, Config{MinSize: -1}), ErrConfig},
		{"workers", Validate(g, 0.5, Config{Workers: -1}), ErrConfig},
		{"granularity", Validate(g, 0.5, Config{StealGranularity: -1}), ErrConfig},
		{"budget", Validate(g, 0.5, Config{Budget: -1}), ErrConfig},
		{"ordering", Validate(g, 0.5, Config{Ordering: Ordering(7)}), ErrConfig},
	}
	for _, tc := range cases {
		if !errors.Is(tc.err, tc.target) {
			t.Errorf("%s: err = %v, want wrapped %v", tc.name, tc.err, tc.target)
		}
	}
	if err := Validate(g, 0.5, Config{}); err != nil {
		t.Errorf("valid input rejected: %v", err)
	}
}

// TestRunControlPoll exercises the shared abort latch directly: context
// cancellation, budget accounting, and first-cause-wins.
func TestRunControlPoll(t *testing.T) {
	// Non-cancellable context collapses to the nil fast path.
	c := NewRunControl(context.Background(), 0)
	if c.ctx != nil {
		t.Fatal("Background context should be dropped")
	}
	if c.Poll(1 << 20) {
		t.Fatal("unlimited budget tripped")
	}

	// Budget exhaustion latches ErrBudget.
	c = NewRunControl(context.Background(), 100)
	if c.Poll(99) {
		t.Fatal("budget tripped early")
	}
	if !c.Poll(1) {
		t.Fatal("budget did not trip at the bound")
	}
	if !errors.Is(c.Err(), ErrBudget) {
		t.Fatalf("abort cause = %v", c.Err())
	}

	// Cancellation latches the context error; a later budget trip must not
	// overwrite the first cause.
	ctx, cancel := context.WithCancel(context.Background())
	c = NewRunControl(ctx, 1)
	cancel()
	if !c.Poll(5) {
		t.Fatal("canceled context did not trip")
	}
	if !errors.Is(c.Err(), context.Canceled) {
		t.Fatalf("abort cause = %v", c.Err())
	}
	c.Abort(ErrBudget)
	if !errors.Is(c.Err(), context.Canceled) {
		t.Fatal("second abort overwrote the first cause")
	}
}

// TestEnumerateContextEngines: every engine honors a mid-run cancel and
// reports the canceled status; the serial engine's check interval bounds
// the overrun.
func TestEnumerateContextEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	g := randomDyadic(40, 0.55, rng)
	for _, cfg := range []Config{
		{},
		{Workers: 4},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		calls := 0
		stats, err := EnumerateContext(ctx, g, 1e-12, func([]int, float64) bool {
			if calls++; calls == 1 {
				cancel()
			}
			return true
		}, cfg)
		cancel()
		if err == nil {
			// The graph may occasionally be small enough to finish within
			// one poll interval of the cancel; that run is complete.
			if stats.Status != StatusComplete {
				t.Fatalf("cfg %+v: nil error with status %v", cfg, stats.Status)
			}
			continue
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cfg %+v: err = %v", cfg, err)
		}
		if stats.Status != StatusCanceled {
			t.Fatalf("cfg %+v: status = %v", cfg, stats.Status)
		}
	}
}

// TestEnumerateBudgetSerialBound: the serial engine stops within one check
// interval of the budget.
func TestEnumerateBudgetSerialBound(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	g := randomDyadic(40, 0.55, rng)
	stats, err := EnumerateContext(context.Background(), g, 1e-12, nil, Config{Budget: 2000})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want wrapped ErrBudget", err)
	}
	if stats.Status != StatusBudget {
		t.Fatalf("status = %v", stats.Status)
	}
	if stats.Calls > 2000+abortCheckInterval {
		t.Fatalf("budget 2000 overrun to %d calls", stats.Calls)
	}
}

// TestWorkStealingFreeListReuse drives the work-stealing engine with the
// finest granularity (every expandable node becomes a frame, maximizing
// free-list churn) and with splits forced by many workers, checking the
// emitted set still matches serial — the recycling must never hand a live
// frame's slices to a new child.
func TestWorkStealingFreeListReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(501))
	for trial := 0; trial < 8; trial++ {
		g := randomDyadic(30+rng.Intn(12), 0.5, rng)
		want := mustCollect(t, g, 0.0625, Config{})
		for _, workers := range []int{2, 8} {
			got := mustCollect(t, g, 0.0625, Config{Workers: workers, StealGranularity: 1})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d workers %d: free-list run diverged from serial", trial, workers)
			}
		}
	}
}

// TestFreeListRecycling checks the free-list mechanics directly: completed
// frames are recycled, split-shared frames are not, and the list is
// bounded.
func TestFreeListRecycling(t *testing.T) {
	w := &wsWorker{}
	f := w.takeFrame()
	if f == nil || len(w.free) != 0 {
		t.Fatal("takeFrame on empty list")
	}
	f.C = append(f.C, 1, 2, 3)
	f.I = f.I.push(1, 0.5)
	f.X = f.X.push(0, 0.5)
	w.recycle(f)
	if len(w.free) != 1 {
		t.Fatalf("free list has %d frames, want 1", len(w.free))
	}
	g := w.takeFrame()
	if g != f {
		t.Fatal("takeFrame did not reuse the recycled frame")
	}
	if len(g.C) != 0 || g.I.length() != 0 || g.X.length() != 0 {
		t.Fatal("recycled frame not reset")
	}
	if cap(g.C) < 3 || cap(g.I.v) < 1 || cap(g.I.r) < 1 {
		t.Fatal("recycled frame lost its slice capacity")
	}

	shared := &wsFrame{shared: true}
	w.recycle(shared)
	if len(w.free) != 0 {
		t.Fatal("split-shared frame was recycled")
	}

	for i := 0; i < 2*wsFreeListMax; i++ {
		w.recycle(&wsFrame{})
	}
	if len(w.free) != wsFreeListMax {
		t.Fatalf("free list grew to %d, bound is %d", len(w.free), wsFreeListMax)
	}
}
