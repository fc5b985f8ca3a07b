// Command e2ebench is the repository's end-to-end benchmark. It times what a
// user of the mule CLI waits for (file → CSR → prune → search → encoded
// answer) and what a caller of the muled service waits for per request,
// driving the same public calls the two commands make, in one process:
// graphio.LoadFile / graphio.ScanComponentBatches → mule.New*Query → Run,
// and server.New behind httptest.NewServer.
//
//	e2ebench --workload oneshot-mine --seed 1 --seconds 20 --trace 0
//
// The workload's inputs derive from --seed. Every answer is checked (see
// digest.go and the workloads' finish methods). The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"},
// holding the end-to-end metrics with --trace 0 and the per-layer metrics
// with --trace 1. A fuller report, and with --trace 1 the spans, are written
// under --out. The exit status is non-zero when any answer is wrong.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	ops      int // per-client operation cap; 0 = until the time is up
	out      string
}

// workload describes one benchmark workload.
type workload struct {
	name    string
	why     string
	clients int
	// tail is the percentile latency_tail_ms reports, fixed per workload:
	// the highest of p90/p99/p99.9 that its run length leaves ten samples
	// beyond.
	tail  int
	setup func(e *env) (session, error)
}

// session is one set-up instance of a workload.
type session interface {
	// do runs one operation for c and returns its record. The latency covers
	// the operation alone; answer checks run after it.
	do(c *client) opRecord
	// finish runs the checks that need references, after the measured
	// phase, and returns the records whose answers they found wrong.
	finish(r *runner) (failed func(*opRecord) bool, err error)
	// layers adds the session's per-layer metrics to rep.PerLayer, and the
	// layer timings only this kind of workload takes to rep.Extra (traced
	// runs).
	layers(r *runner, rep *report)
	// report adds workload-specific end-to-end figures (per-class latencies)
	// to the report.
	report(r *runner, rep *report)
	// begin is called before each timed phase.
	begin(traced bool)
	// window is how many of client 0's operations make one measurement
	// window (a whole job cycle for the one-shot workloads).
	window() int
	// describe returns the workload's input sizes for the provenance record.
	describe() map[string]any
	close()
}

// env is what a workload's set-up receives.
type env struct {
	seed  int64
	dir   string // scratch directory for generated input files
	tr    *tracer
	short bool // self-test: keep inputs small where that changes nothing checked
}

// opRecord is one completed operation.
type opRecord struct {
	class string // job | hit | miss | apply | requery
	kind  string // job kind or query shape
	lat   time.Duration
	ok    bool
	ref   int32 // session-specific handle for post-phase checks
}

// client is one closed-loop load generator: it issues its next operation
// only after the previous one completed.
type client struct {
	id   int
	rng  *rand.Rand
	recs []opRecord
	half int // records before this index belong to the untraced half
	r    *runner
	out  bytes.Buffer // output of one-shot jobs
	body bytes.Buffer // response buffer of HTTP requests
}

// nextOp returns a process-unique operation ID for span grouping.
func (c *client) nextOp() int64 { return c.r.opSeq.Add(1) }

// runner drives one invocation.
type runner struct {
	cfg     config
	w       workload
	tr      *tracer
	opSeq   atomic.Int64
	clients []*client
}

// phase is the measurement of one timed phase.
type phase struct {
	ops         int // successful operations
	wall        time.Duration
	cpu         time.Duration
	peakHeap    float64 // bytes
	heapSamples int
	windows     []window
}

// window is the stretch between two marks client 0 takes every
// session.window() of its operations.
type window struct {
	wall, cpu time.Duration
	ops       int64 // successful operations of all clients
}

// throughput is the median over windows of successful operations per
// second; a phase of fewer than three windows falls back to the phase mean.
// The median keeps a burst of noise from another process on the machine
// out of the figure.
func (p phase) throughput() float64 {
	if len(p.windows) < 3 {
		return float64(p.ops) / p.wall.Seconds()
	}
	var rates []float64
	for _, w := range p.windows {
		rates = append(rates, float64(w.ops)/w.wall.Seconds())
	}
	return median(rates)
}

// cpuPerOp is the median over windows of process CPU time per successful
// operation, in ms.
func (p phase) cpuPerOp() float64 {
	if len(p.windows) < 3 {
		return float64(p.cpu.Nanoseconds()) / 1e6 / float64(max(p.ops, 1))
	}
	var per []float64
	for _, w := range p.windows {
		per = append(per, float64(w.cpu.Nanoseconds())/1e6/float64(max(w.ops, 1)))
	}
	return median(per)
}

// drive runs every client in a closed loop for d (or until each reached the
// per-client cap) and measures the phase.
func (r *runner) drive(s session, d time.Duration) phase {
	s.begin(r.tr.active())
	runtime.GC()
	deadline := time.Now().Add(d)
	hs := startHeapSampler(5 * time.Millisecond)
	cpu0, t0 := cpuTime(), time.Now()
	var wg sync.WaitGroup
	var done atomic.Int64
	type mark struct {
		t   time.Time
		cpu time.Duration
		ops int64
	}
	marks := []mark{{t0, cpu0, 0}}
	every := s.window()
	for _, c := range r.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 1; time.Now().Before(deadline) && (r.cfg.ops == 0 || n <= r.cfg.ops); n++ {
				rec := s.do(c)
				c.recs = append(c.recs, rec)
				if rec.ok {
					done.Add(1)
				}
				if c.id == 0 && n%every == 0 {
					marks = append(marks, mark{time.Now(), cpuTime(), done.Load()})
				}
			}
		}()
	}
	wg.Wait()
	p := phase{wall: time.Since(t0), cpu: cpuTime() - cpu0, ops: int(done.Load())}
	p.peakHeap, p.heapSamples = hs.Stop()
	for i := 1; i < len(marks); i++ {
		a, b := marks[i-1], marks[i]
		p.windows = append(p.windows, window{wall: b.t.Sub(a.t), cpu: b.cpu - a.cpu, ops: b.ops - a.ops})
	}
	return p
}

// endToEnd names the metrics printed with --trace 0, in BENCHMARK.json's
// order. fail_ratio and the serve-mixed per-class latencies are in the
// report: a ratio that is 0 on a correct run, and classes that exist on one
// workload only, cannot carry a relative regression bound.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"throughput_ops", "ops/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_heap_mib", "MiB"},
}

// perLayer names the metrics printed with --trace 1, in BENCHMARK.json's
// order. Every workload prints every one: a count or ratio of a layer the
// workload does not touch is 0. Layer timings that only one kind of
// workload can take (per-miner run time, muled time to first byte, the
// maintainer probes, the batched scan) are in the report, so that no time
// printed here is a constant 0.
var perLayer = []struct{ name, unit string }{
	{"graphio.load_ms", "ms"},
	{"graphio.load_text_ms", "ms"},
	{"graphio.load_binary_ms", "ms"},
	{"graphio.load_gzip_ms", "ms"},
	{"graphio.mb_per_s", "MB/s"},
	{"graphio.alloc_b_per_edge", "B/edge"},
	{"graphio.edges", "count"},
	{"graphio.busy_share", "ratio"},
	{"uncertain.prune_ms", "ms"},
	{"uncertain.pruned_edges", "count"},
	{"uncertain.pruned_share", "ratio"},
	{"core.run_ms", "ms"},
	{"core.search_calls", "count"},
	{"core.emitted", "count"},
	{"core.emitted_per_call", "ratio"},
	{"core.candidate_ops", "count"},
	{"core.witness_ops", "count"},
	{"core.bitset_ops", "count"},
	{"core.size_pruned", "count"},
	{"core.steals", "count"},
	{"core.alloc_b_per_call", "B/call"},
	{"core.busy_share", "ratio"},
	{"ubiclique.calls", "count"},
	{"ubiclique.alloc_b_per_run", "B"},
	{"uquasi.calls", "count"},
	{"uquasi.alloc_b_per_run", "B"},
	{"utruss.checks", "count"},
	{"utruss.alloc_b_per_run", "B"},
	{"ucore.recomputes", "count"},
	{"ucore.alloc_b_per_run", "B"},
	{"udensest.peel_steps", "count"},
	{"udensest.alloc_b_per_run", "B"},
	{"ucluster.sweeps", "count"},
	{"ucluster.alloc_b_per_run", "B"},
	{"miners.busy_share", "ratio"},
	{"mule.visit_ms", "ms"},
	{"mule.out_bytes", "B"},
	{"mule.busy_share", "ratio"},
	{"exec.admitted", "count"},
	{"exec.queued", "count"},
	{"exec.queued_share", "ratio"},
	{"exec.rejected", "count"},
	{"exec.peak_inflight", "count"},
	{"server.requests", "count"},
	{"server.resp_bytes", "B"},
	{"server.lookups", "count"},
	{"server.hit_ratio", "ratio"},
	{"server.evictions", "count"},
	{"server.cache_bytes", "B"},
	{"server.warm_completed", "count"},
	{"server.warm_skipped", "count"},
	{"server.requeries", "count"},
	{"server.requery_hit_share", "ratio"},
	{"server.busy_share", "ratio"},
	{"dynamic.updates", "count"},
	{"dynamic.search_calls_per_update", "ratio"},
	{"dynamic.cliques_changed_per_update", "ratio"},
	{"trace.overhead_share", "ratio"},
}

// minerLayers are the layers whose self time is mining.
var minerLayers = []string{"core", "ubiclique", "uquasi", "utruss", "ucore", "udensest", "ucluster"}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the fuller record written under --out.
type report struct {
	Workload   string                `json:"workload"`
	Why        string                `json:"why"`
	Seed       int64                 `json:"seed"`
	Trace      bool                  `json:"trace"`
	Seconds    float64               `json:"seconds"`
	Machine    map[string]any        `json:"machine"`
	Inputs     map[string]any        `json:"inputs"`
	SetupS     []float64             `json:"setup_s_samples"`
	Windows    int                   `json:"windows,omitempty"`
	HeapN      int                   `json:"heap_samples,omitempty"`
	Attempted  int64                 `json:"attempted"`
	Failed     int64                 `json:"failed"`
	FailRatio  float64               `json:"fail_ratio"`
	EndToEnd   map[string]float64    `json:"end_to_end,omitempty"`
	Latency    *latSummary           `json:"latency,omitempty"`
	Classes    map[string]latSummary `json:"classes,omitempty"`
	Kinds      map[string]latSummary `json:"kinds,omitempty"`
	Placement  []string              `json:"placement,omitempty"`
	Tails      map[string]float64    `json:"latency_tails_ms,omitempty"`
	PerLayer   map[string]float64    `json:"per_layer,omitempty"`
	LayerTimes map[string]float64    `json:"layer_times_ms,omitempty"`
	Extra      map[string]float64    `json:"layer_extra,omitempty"`
	Throughput map[string]float64    `json:"throughput_by_half,omitempty"`
	Notes      []string              `json:"notes,omitempty"`
}

func machine() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

var workloads = []workload{ingestWorkload, mineWorkload, serveWorkload}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want %s)", name, strings.Join(names, "|"))
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	res, err := run(cfg, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: oneshot-ingest|oneshot-mine|serve-mixed")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed every input derives from")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "length of the measured phase")
	fs.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
	fs.IntVar(&cfg.ops, "ops", 0, "stop each client after this many operations (0 = run for --seconds)")
	fs.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "e2ebench-out"), "directory for reports, spans and generated inputs")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() > 0 {
		return cfg, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	cfg.trace = trace == 1
	if _, err := findWorkload(cfg.workload); err != nil {
		return cfg, err
	}
	if !(cfg.seconds > 0) || cfg.ops < 0 {
		return cfg, fmt.Errorf("--seconds must be positive, --ops non-negative")
	}
	return cfg, nil
}

// setupRuns is how many times a run sets its workload up; setup_s is the
// median. The self-test (--ops) sets up once.
const setupRuns = 5

// setupAll runs the workload's set-up setupRuns times, keeping the last
// session, and returns the set-up durations in seconds. Each set-up writes
// its files into a fresh directory: truncating and rewriting a file that
// still has dirty pages makes some filesystems flush it first, which would
// time the disk instead of the set-up.
func (r *runner) setupAll(base *env) (session, []float64, error) {
	n := setupRuns
	if r.cfg.ops > 0 {
		n = 1
	}
	var times []float64
	for i := 0; ; i++ {
		e := *base
		e.dir = filepath.Join(base.dir, fmt.Sprintf("setup%d", i))
		if err := os.MkdirAll(e.dir, 0o755); err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		s, err := r.w.setup(&e)
		if err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", r.w.name, err)
		}
		times = append(times, time.Since(t0).Seconds())
		if i == n-1 {
			return s, times, nil
		}
		s.close()
		if err := os.RemoveAll(e.dir); err != nil {
			return nil, nil, err
		}
	}
}

func run(cfg config, log io.Writer) (result, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return result{}, err
	}
	r := &runner{cfg: cfg, w: w}
	if cfg.trace {
		r.tr = newTracer()
		r.tr.setOn(true) // set-up loads are graphio spans too
	}
	dir := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d-inputs", w.name, cfg.seed))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	e := &env{seed: cfg.seed, dir: dir, tr: r.tr, short: cfg.ops > 0}
	s, setupTimes, err := r.setupAll(e)
	if err != nil {
		return result{}, err
	}
	defer s.close()
	for i := 0; i < w.clients; i++ {
		r.clients = append(r.clients, &client{id: i, r: r, rng: rand.New(rand.NewSource(cfg.seed*1000003 + int64(i)))})
	}

	d := time.Duration(cfg.seconds * float64(time.Second))
	var untraced, traced phase
	if cfg.trace {
		// The traced run measures its first half untraced, then the second
		// half with spans on: the throughput ratio of the halves is the
		// tracing overhead, measured on the same inputs in one process.
		r.tr.setOn(false)
		untraced = r.drive(s, d/2)
		for _, c := range r.clients {
			c.half = len(c.recs)
		}
		r.tr.setOn(true)
		traced = r.drive(s, d-d/2)
		r.tr.setOn(false)
	} else {
		untraced = r.drive(s, d)
	}

	failedBy, err := s.finish(r)
	if err != nil {
		return result{}, err
	}
	var attempted, failed int64
	for _, c := range r.clients {
		for i := range c.recs {
			rec := &c.recs[i]
			if rec.ok && failedBy != nil && failedBy(rec) {
				rec.ok = false
			}
			attempted++
			if !rec.ok {
				failed++
			}
		}
	}
	if attempted == 0 {
		return result{}, errors.New("no operation completed")
	}

	rep := &report{
		Workload: w.name, Why: w.why, Seed: cfg.seed, Trace: cfg.trace, Seconds: cfg.seconds,
		Machine: machine(), Inputs: s.describe(), SetupS: setupTimes,
		Attempted: attempted, Failed: failed, FailRatio: float64(failed) / float64(attempted),
	}
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if cfg.trace {
		rep.PerLayer = map[string]float64{}
		r.layerMetrics(s, rep, untraced, traced)
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{Value: finite(rep.PerLayer[m.name]), Unit: m.unit}
		}
		if err := writeSpans(filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d-spans.jsonl", w.name, cfg.seed)), r.tr.snapshot()); err != nil {
			return result{}, err
		}
	} else {
		rep.EndToEnd = r.endToEnd(s, rep, setupTimes, untraced)
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{Value: finite(rep.EndToEnd[m.name]), Unit: m.unit}
		}
	}
	if err := writeReport(cfg, rep); err != nil {
		return result{}, err
	}
	printReport(log, rep)
	return res, nil
}

// finite maps NaN and ±Inf, which JSON cannot carry, to 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// records returns the records of the chosen half (0 = untraced, 1 = traced).
func (r *runner) records(half int) []opRecord {
	var out []opRecord
	for _, c := range r.clients {
		if half == 0 {
			out = append(out, c.recs[:c.half]...)
		} else {
			out = append(out, c.recs[c.half:]...)
		}
	}
	return out
}

// latencies returns the latencies in ms of the successful records that keep
// returns true for.
func latencies(recs []opRecord, keep func(*opRecord) bool) []float64 {
	var ms []float64
	for i := range recs {
		if recs[i].ok && (keep == nil || keep(&recs[i])) {
			ms = append(ms, float64(recs[i].lat.Nanoseconds())/1e6)
		}
	}
	return ms
}

func (r *runner) endToEnd(s session, rep *report, setupTimes []float64, p phase) map[string]float64 {
	for _, c := range r.clients {
		c.half = len(c.recs) // an untraced run is all "first half"
	}
	recs := r.records(0)
	all := summarize(latencies(recs, nil), r.w.tail)
	rep.Latency = &all
	if lvl := tailLevel(all.N); lvl != r.w.tail {
		rep.Notes = append(rep.Notes, fmt.Sprintf("latency_tail_ms: %d samples make %s the highest percentile with %d beyond it, not the fixed %s",
			all.N, tailName(lvl), minBeyond, all.TailName))
	}
	rep.Kinds = map[string]latSummary{}
	kinds := map[string]bool{}
	for _, rec := range recs {
		kinds[rec.kind] = true
	}
	for k := range kinds {
		rep.Kinds[k] = summarize(latencies(recs, func(o *opRecord) bool { return o.kind == k }), p90)
	}
	rep.Placement = append(rep.Placement, placement("latency", recs, nil, 0.5, float64(r.w.tail)/1000)...)
	rep.Tails = map[string]float64{}
	for _, pm := range []int{p90, p99, p999} {
		rep.Tails[tailName(pm)] = summarize(latencies(recs, nil), pm).Tail
	}
	rep.Windows, rep.HeapN = len(p.windows), p.heapSamples
	rep.EndToEnd = map[string]float64{
		"setup_s":         median(setupTimes),
		"throughput_ops":  p.throughput(),
		"latency_p50_ms":  all.P50,
		"latency_tail_ms": all.Tail,
		"cpu_ms_per_op":   p.cpuPerOp(),
		"peak_heap_mib":   p.peakHeap / (1 << 20),
		"fail_ratio":      rep.FailRatio,
	}
	s.report(r, rep)
	return rep.EndToEnd
}

// placement reports, for each quantile of the records keep selects, which
// operation kind holds that rank and where inside that kind's block of
// ranks it falls (0 = the kind's fastest sample, 1 = its slowest). A
// percentile near 0 or 1 of its block sits at the gap between two kinds and
// will not be steady.
func placement(label string, recs []opRecord, keep func(*opRecord) bool, qs ...float64) []string {
	type sample struct {
		ms   float64
		kind string
	}
	var ss []sample
	for i := range recs {
		if recs[i].ok && (keep == nil || keep(&recs[i])) {
			ss = append(ss, sample{float64(recs[i].lat.Nanoseconds()) / 1e6, recs[i].kind})
		}
	}
	if len(ss) == 0 {
		return nil
	}
	sort.Slice(ss, func(i, j int) bool { return ss[i].ms < ss[j].ms })
	var out []string
	for _, q := range qs {
		rank := int(q * float64(len(ss)-1))
		k := ss[rank].kind
		var below, total int
		for i, s := range ss {
			if s.kind == k {
				total++
				if i < rank {
					below++
				}
			}
		}
		out = append(out, fmt.Sprintf("%s q%.3g: %s at %.2f of its %d samples", label, q, k, float64(below)/float64(max(total-1, 1)), total))
	}
	return out
}

func (r *runner) layerMetrics(s session, rep *report, untraced, traced phase) {
	m := rep.PerLayer
	self, busy := layerTimes(r.tr.snapshot())
	rep.LayerTimes = map[string]float64{}
	for layer, d := range self {
		rep.LayerTimes[layer] = float64(d.Nanoseconds()) / 1e6
	}
	share := func(layers ...string) float64 {
		if busy <= 0 {
			return 0
		}
		var sum time.Duration
		for _, l := range layers {
			sum += self[l]
		}
		return float64(sum) / float64(busy)
	}
	m["graphio.busy_share"] = share("graphio")
	m["core.busy_share"] = share("core")
	m["miners.busy_share"] = share(minerLayers...)
	m["mule.busy_share"] = share("mule")
	m["server.busy_share"] = share("server")
	if untraced.ops > 0 && traced.ops > 0 {
		m["trace.overhead_share"] = 1 - traced.throughput()/untraced.throughput()
	}
	rep.Throughput = map[string]float64{"untraced_ops_per_s": untraced.throughput(), "traced_ops_per_s": traced.throughput()}
	rep.Extra = map[string]float64{}
	s.layers(r, rep)
}

func writeReport(cfg config, rep *report) error {
	name := fmt.Sprintf("%s-seed%d-trace%d.json", rep.Workload, cfg.seed, map[bool]int{false: 0, true: 1}[cfg.trace])
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.out, name), append(data, '\n'), 0o644)
}

// printReport writes the human-readable summary to log: every end-to-end
// metric with its unit and sample count, or every per-layer metric.
func printReport(log io.Writer, rep *report) {
	fmt.Fprintf(log, "%s seed=%d trace=%v attempted=%d failed=%d fail_ratio=%g\n",
		rep.Workload, rep.Seed, rep.Trace, rep.Attempted, rep.Failed, rep.FailRatio)
	if rep.Latency != nil {
		e := rep.EndToEnd
		fmt.Fprintf(log, "  setup_s %.4f s (median of %d)\n", e["setup_s"], len(rep.SetupS))
		over := fmt.Sprintf("median of %d windows", rep.Windows)
		if rep.Windows < 3 {
			over = "over the whole phase"
		}
		fmt.Fprintf(log, "  throughput_ops %.4f ops/s, cpu_ms_per_op %.4f ms (%s)\n", e["throughput_ops"], e["cpu_ms_per_op"], over)
		fmt.Fprintf(log, "  peak_heap_mib %.4f MiB (p95 of %d samples)\n", e["peak_heap_mib"], rep.HeapN)
		l := rep.Latency
		fmt.Fprintf(log, "  latency_p50_ms %.4f ms, latency_tail_ms %.4f ms (%s; n=%d, %d beyond)\n", l.P50, l.Tail, l.TailName, l.N, l.Beyond)
		for _, c := range sortedKeys(rep.Classes) {
			s := rep.Classes[c]
			fmt.Fprintf(log, "  %s_p50_ms %.4f ms, %s_tail_ms %.4f ms (%s; n=%d, %d beyond)\n", c, s.P50, c, s.Tail, s.TailName, s.N, s.Beyond)
		}
		for _, k := range sortedKeys(rep.Kinds) {
			s := rep.Kinds[k]
			fmt.Fprintf(log, "    kind %-28s n=%-5d p50 %8.3f ms  p90 %8.3f ms\n", k, s.N, s.P50, s.Tail)
		}
		for _, p := range rep.Placement {
			fmt.Fprintf(log, "    %s\n", p)
		}
	}
	for _, k := range sortedKeys(rep.PerLayer) {
		fmt.Fprintf(log, "  %s %g\n", k, rep.PerLayer[k])
	}
	for _, k := range sortedKeys(rep.Extra) {
		fmt.Fprintf(log, "  (report) %s %g\n", k, rep.Extra[k])
	}
	for _, k := range sortedKeys(rep.LayerTimes) {
		fmt.Fprintf(log, "  self time %-10s %10.1f ms\n", k, rep.LayerTimes[k])
	}
	for _, n := range rep.Notes {
		fmt.Fprintf(log, "  note: %s\n", n)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// withTimeout bounds post-phase reference work so a broken engine cannot
// hang the benchmark past its time limit.
func withTimeout() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), 90*time.Second)
}
