// Package stats provides the small numeric utilities the benchmark harness
// needs: Pearson correlation (for the paper's "runtime is proportional to
// output size" claim, Figure 4) and wall-clock timing helpers.
package stats

import (
	"fmt"
	"math"
	"time"
)

// Pearson returns the sample correlation coefficient of the paired series,
// or NaN if it is undefined (fewer than two points or zero variance).
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return math.NaN()
	}
	n := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return math.NaN()
	}
	return cov / math.Sqrt(vx*vy)
}

// Time runs f once and returns its wall-clock duration.
func Time(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// Seconds formats a duration as fractional seconds with sensible precision
// for result tables ("0.004s", "12.3s").
func Seconds(d time.Duration) string {
	s := d.Seconds()
	switch {
	case s >= 100:
		return fmt.Sprintf("%.0fs", s)
	case s >= 1:
		return fmt.Sprintf("%.1fs", s)
	case s >= 0.001:
		return fmt.Sprintf("%.3fs", s)
	default:
		return fmt.Sprintf("%.6fs", s)
	}
}
