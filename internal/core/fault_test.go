package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/uncertain-graphs/mule/internal/faultinject"
)

// faultCfgs is the engine grid every containment test sweeps: serial and
// work-stealing.
func faultCfgs() []Config {
	return []Config{
		{},
		{Workers: 4},
	}
}

// conserved asserts the global pools balanced across fn: every checkout made
// during the call was returned by the time it ended — the invariant the
// panic and stall unwind paths must preserve.
func conserved(t *testing.T, name string, fn func()) {
	t.Helper()
	c0, r0 := PoolCounters()
	fn()
	c1, r1 := PoolCounters()
	if c1-c0 != r1-r0 {
		t.Fatalf("%s: pool imbalance: %d checkouts vs %d returns", name, c1-c0, r1-r0)
	}
}

// TestVisitorPanicContained: a panicking visitor terminates only its own run
// with a typed, wrapped ErrPanic and StatusPanicked — on every engine — and
// the pools balance so the next run on the same process is exact.
func TestVisitorPanicContained(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomDyadic(40, 0.55, rng)
	want := mustCollect(t, g, 1e-9, Config{})
	for _, cfg := range faultCfgs() {
		conserved(t, fmt.Sprintf("workers=%d", cfg.Workers), func() {
			stats, err := EnumerateContext(context.Background(), g, 1e-9, func([]int, float64) bool {
				panic("visitor bomb")
			}, cfg)
			if !errors.Is(err, ErrPanic) {
				t.Fatalf("cfg %+v: err = %v, want wrapped ErrPanic", cfg, err)
			}
			var pe *PanicError
			if !errors.As(err, &pe) || pe.Value != "visitor bomb" || len(pe.Stack) == 0 {
				t.Fatalf("cfg %+v: PanicError not recoverable from %v", cfg, err)
			}
			if stats.Status != StatusPanicked {
				t.Fatalf("cfg %+v: status = %v, want panicked", cfg, stats.Status)
			}
		})
		// Containment proven end to end: the same engine still enumerates
		// the exact clique set afterwards.
		got := mustCollect(t, g, 1e-9, cfg)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cfg %+v: post-panic run diverged", cfg)
		}
	}
}

// TestInjectedFaultSites drives each panic-class injection site through the
// engine it instruments and checks the typed InjectedPanic value survives to
// the caller — distinguishing an injected fault from a genuine escape.
func TestInjectedFaultSites(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := randomDyadic(40, 0.55, rng)
	cases := []struct {
		site faultinject.Site
		cfg  Config
	}{
		{faultinject.PanicVisitor, Config{}},
		{faultinject.PanicVisitor, Config{Workers: 4}},
		{faultinject.PanicFrame, Config{Workers: 4}},
		{faultinject.FailCheckout, Config{Workers: 4}},
	}
	for _, tc := range cases {
		conserved(t, tc.site.String(), func() {
			plan := faultinject.NewPlan(1).Arm(tc.site, 1)
			restore := faultinject.Activate(plan)
			defer restore()
			stats, err := EnumerateContext(context.Background(), g, 1e-9,
				func([]int, float64) bool { return true }, tc.cfg)
			if !errors.Is(err, ErrPanic) || stats.Status != StatusPanicked {
				t.Fatalf("site %v cfg %+v: (%v, %v), want ErrPanic/panicked",
					tc.site, tc.cfg, err, stats.Status)
			}
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("site %v: no PanicError in %v", tc.site, err)
			}
			ip, ok := pe.Value.(faultinject.InjectedPanic)
			if !ok || ip.Site != tc.site {
				t.Fatalf("site %v: panic value = %#v, want the injected marker", tc.site, pe.Value)
			}
			if plan.Fired(tc.site) == 0 {
				t.Fatalf("site %v: plan recorded no firings", tc.site)
			}
		})
	}
}

// TestStallWatchdog: a run whose polls are starved (SlowPoll freezes the
// beacon for longer than the window) is aborted with ErrStalled and
// StatusStalled — serial and work-stealing — while the pools balance.
func TestStallWatchdog(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := randomDyadic(40, 0.55, rng)
	for _, cfg := range []Config{
		{StallTimeout: 10 * time.Millisecond},
		{StallTimeout: 10 * time.Millisecond, Workers: 4},
	} {
		conserved(t, "stall", func() {
			// Every poll sleeps 60ms with a 10ms no-progress window: the
			// first armed poll freezes the beacon well past the window.
			restore := faultinject.Activate(
				faultinject.NewPlan(2).ArmDelay(faultinject.SlowPoll, 1, 60*time.Millisecond))
			defer restore()
			stats, err := EnumerateContext(context.Background(), g, 1e-9,
				func([]int, float64) bool { return true }, cfg)
			if !errors.Is(err, ErrStalled) {
				t.Fatalf("cfg %+v: err = %v, want wrapped ErrStalled", cfg, err)
			}
			if errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("cfg %+v: stall must stay distinct from deadline", cfg)
			}
			if stats.Status != StatusStalled {
				t.Fatalf("cfg %+v: status = %v, want stalled", cfg, stats.Status)
			}
		})
	}
	// A healthy run under the same watchdog completes untouched.
	want := mustCollect(t, g, 1e-9, Config{})
	got := mustCollect(t, g, 1e-9, Config{StallTimeout: 5 * time.Second, Workers: 4})
	if !reflect.DeepEqual(got, want) {
		t.Fatal("armed watchdog perturbed a healthy run")
	}
	// Negative windows are a configuration error, caught up front.
	if err := Validate(g, 0.5, Config{StallTimeout: -1}); !errors.Is(err, ErrConfig) {
		t.Fatalf("negative StallTimeout: err = %v, want ErrConfig", err)
	}
}

// TestArmStallDirect exercises the watchdog latch on a bare RunControl: no
// progress → ErrStalled; steady progress → no abort; disarmed → no-op.
func TestArmStallDirect(t *testing.T) {
	c := NewRunControl(context.Background(), 0)
	stop := c.ArmStall(5 * time.Millisecond)
	defer stop()
	deadline := time.Now().Add(2 * time.Second)
	for c.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("watchdog never fired on a frozen beacon")
		}
		time.Sleep(time.Millisecond)
	}
	if !errors.Is(c.Err(), ErrStalled) || c.Status(false) != StatusStalled {
		t.Fatalf("frozen control: (%v, %v)", c.Err(), c.Status(false))
	}

	// The window is deliberately generous: on a loaded single-CPU box the
	// progressing goroutine can be descheduled for tens of milliseconds,
	// which must not read as a stall.
	live := NewRunControl(context.Background(), 0)
	stopLive := live.ArmStall(time.Second)
	for i := 0; i < 25; i++ {
		live.Progress()
		time.Sleep(4 * time.Millisecond)
	}
	stopLive()
	if live.Err() != nil {
		t.Fatalf("live control aborted despite progress: %v", live.Err())
	}

	off := NewRunControl(context.Background(), 0)
	off.ArmStall(0)() // disarmed: stop func is a no-op, no goroutine
	if off.Err() != nil {
		t.Fatalf("disarmed watchdog aborted: %v", off.Err())
	}
}
