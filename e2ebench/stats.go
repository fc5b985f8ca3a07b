package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// Tail percentiles are named in per-mille so the "ten samples beyond it"
// rule is exact integer arithmetic (0.9 and 0.99 are not exact in binary).
const (
	p90  = 900
	p99  = 990
	p999 = 999
)

// minBeyond is how many samples must lie beyond a tail percentile for it to
// be reported: fewer make the tail a statement about a handful of outliers.
const minBeyond = 10

// beyond returns how many of n samples lie beyond the per-mille percentile.
func beyond(n, perMille int) int { return n * (1000 - perMille) / 1000 }

// tailLevel returns the highest of p90, p99 and p99.9 that leaves at least
// minBeyond of n samples beyond it, or 0 when even p90 does not.
func tailLevel(n int) int {
	for _, pm := range []int{p999, p99, p90} {
		if beyond(n, pm) >= minBeyond {
			return pm
		}
	}
	return 0
}

// tailName names a per-mille percentile the way reports print it.
func tailName(perMille int) string {
	switch perMille {
	case p90:
		return "p90"
	case p99:
		return "p99"
	case p999:
		return "p99.9"
	}
	return "p?"
}

// quantile returns the q-quantile of sorted, interpolating linearly between
// the two closest ranks. It returns NaN for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(pos)
	if lo >= n-1 {
		return sorted[n-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// latSummary is a latency distribution reduced to its median and one fixed
// tail percentile, with the sample counts behind them.
type latSummary struct {
	N        int     `json:"samples"`
	P50      float64 `json:"p50_ms"`
	Tail     float64 `json:"tail_ms"`
	TailName string  `json:"tail"`
	Beyond   int     `json:"beyond_tail"`
}

// summarize reduces latencies in milliseconds to a latSummary at the given
// fixed tail percentile. ms is sorted in place.
func summarize(ms []float64, perMille int) latSummary {
	sort.Float64s(ms)
	return latSummary{
		N:        len(ms),
		P50:      quantile(ms, 0.5),
		Tail:     quantile(ms, float64(perMille)/1000),
		TailName: tailName(perMille),
		Beyond:   beyond(len(ms), perMille),
	}
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler samples the live heap while it runs. It reads
// runtime/metrics, which does not stop the world, so sampling does not
// perturb the latencies it runs beside.
type heapSampler struct {
	stop chan struct{}
	done chan []float64
}

const liveHeapMetric = "/gc/heap/live:bytes"

func liveHeap(s []metrics.Sample) float64 {
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64())
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan []float64, 1)}
	go func() {
		s := []metrics.Sample{{Name: liveHeapMetric}}
		samples := []float64{liveHeap(s)}
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				h.done <- append(samples, liveHeap(s))
				return
			case <-t.C:
				samples = append(samples, liveHeap(s))
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak live heap in bytes, and the
// number of samples. The peak is the 95th percentile of the samples, the
// level the heap holds for at least 5% of the phase. The plain maximum is one GC cycle's reading, and a cycle that
// marks during an allocation burst (a file load in progress) counts the
// burst as live; whether a GC lands in one moves the maximum by half or
// more from run to run, while this does not.
func (h *heapSampler) Stop() (float64, int) {
	close(h.stop)
	samples := <-h.done
	sort.Float64s(samples)
	return quantile(samples, 0.95), len(samples)
}
