package stats

import (
	"math"
	"testing"
	"time"
)

func TestPearsonPerfectCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{10, 20, 30, 40}
	if r := Pearson(xs, ys); math.Abs(r-1) > 1e-12 {
		t.Fatalf("perfect positive correlation: r = %v", r)
	}
	neg := []float64{40, 30, 20, 10}
	if r := Pearson(xs, neg); math.Abs(r+1) > 1e-12 {
		t.Fatalf("perfect negative correlation: r = %v", r)
	}
}

func TestPearsonUndefined(t *testing.T) {
	if !math.IsNaN(Pearson([]float64{1}, []float64{2})) {
		t.Error("single point should be NaN")
	}
	if !math.IsNaN(Pearson([]float64{1, 2}, []float64{3})) {
		t.Error("length mismatch should be NaN")
	}
	if !math.IsNaN(Pearson([]float64{1, 1}, []float64{2, 3})) {
		t.Error("zero variance should be NaN")
	}
}

func TestTime(t *testing.T) {
	d := Time(func() { time.Sleep(10 * time.Millisecond) })
	if d < 5*time.Millisecond {
		t.Fatalf("Time measured %v for a 10ms sleep", d)
	}
}

func TestSecondsFormatting(t *testing.T) {
	cases := map[time.Duration]string{
		150 * time.Second:       "150s",
		2500 * time.Millisecond: "2.5s",
		42 * time.Millisecond:   "0.042s",
		100 * time.Microsecond:  "0.000100s",
	}
	for d, want := range cases {
		if got := Seconds(d); got != want {
			t.Errorf("Seconds(%v) = %q, want %q", d, got, want)
		}
	}
}
