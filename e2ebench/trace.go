package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the layer boundary. Spans of one operation share Op; Op is -1 for set-up
// and for the probes that run after the traced phase.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // 0 = root
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out. A nil tracer
// and a tracer that is off record nothing, so call sites need no guards.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	on    bool
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// active reports whether spans are being recorded.
func (t *tracer) active() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.on
}

func (t *tracer) setOn(on bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

// begin opens a span and returns its ID, or 0 when nothing is recorded.
func (t *tracer) begin(parent int32, op int64, name, layer string) int32 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return 0
	}
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Layer: layer, Start: now, End: now})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int32) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// addSummed records d of work spread over many short calls inside span
// parent (visitor callbacks) as one child span starting with the parent, so
// self time subtracts it without a span per call.
func (t *tracer) addSummed(parent int32, name, layer string, d time.Duration) {
	if t == nil || parent == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent-1]
	t.spans = append(t.spans, span{ID: int32(len(t.spans) + 1), Parent: parent, Op: p.Op,
		Name: name, Layer: layer, Start: p.Start, End: p.Start + d.Nanoseconds()})
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children. Children may overlap one another
// (parallel work); the covered part counts once.
func selfTimes(spans []span) map[int32]int64 {
	children := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int32]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered returns the length of [lo, hi) covered by the union of ivs.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	curLo, curHi := int64(0), int64(0)
	open := false
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a >= b {
			continue
		}
		switch {
		case !open:
			curLo, curHi, open = a, b, true
		case a <= curHi:
			curHi = max(curHi, b)
		default:
			total += curHi - curLo
			curLo, curHi = a, b
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// layerTimes sums self time per layer over the spans of measured operations
// (Op ≥ 0) and returns it with the busy time those operations cover: the sum
// of their root spans' durations.
func layerTimes(spans []span) (self map[string]time.Duration, busy time.Duration) {
	st := selfTimes(spans)
	self = make(map[string]time.Duration)
	for _, s := range spans {
		if s.Op < 0 {
			continue
		}
		self[s.Layer] += time.Duration(st[s.ID])
		if s.Parent == 0 {
			busy += time.Duration(s.End - s.Start)
		}
	}
	return self, busy
}

// writeSpans writes spans to path as one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// nameStat aggregates the spans of one name.
type nameStat struct {
	calls int
	total float64 // seconds
	self  float64 // seconds
}

// spanNames aggregates spans by name, set-up and probe spans included.
type spanNames map[string]*nameStat

func nameStats(spans []span) spanNames {
	st := selfTimes(spans)
	out := spanNames{}
	for _, s := range spans {
		a := out[s.Name]
		if a == nil {
			a = &nameStat{}
			out[s.Name] = a
		}
		a.calls++
		a.total += float64(s.End-s.Start) / 1e9
		a.self += float64(st[s.ID]) / 1e9
	}
	return out
}

func (n spanNames) get(name string) nameStat {
	if a := n[name]; a != nil {
		return *a
	}
	return nameStat{}
}

// selfMs returns the mean self time per span of that name, in ms.
func (n spanNames) selfMs(name string) float64 {
	a := n.get(name)
	return ratio(a.self*1e3, float64(a.calls))
}

// prefixed sums the spans whose names start with prefix.
func (n spanNames) prefixed(prefix string) nameStat {
	var sum nameStat
	for name, a := range n {
		if strings.HasPrefix(name, prefix) {
			sum.calls += a.calls
			sum.total += a.total
			sum.self += a.self
		}
	}
	return sum
}

func (n spanNames) totalSeconds(prefix string) float64 { return n.prefixed(prefix).total }

// runs counts the miner Run spans.
func (n spanNames) runs() int {
	var c int
	for _, l := range minerLayers {
		c += n.get(l + ".run").calls
	}
	return c
}

// loadStats fills the graphio load timings: mean ms per file load, overall
// and per format (the bipartite text format counts as text).
func loadStats(n spanNames, m map[string]float64) {
	all := n.prefixed("graphio.load.")
	m["graphio.load_ms"] = ratio(all.total*1e3, float64(all.calls))
	text, bip := n.get("graphio.load.text"), n.get("graphio.load.bipartite")
	m["graphio.load_text_ms"] = ratio((text.total+bip.total)*1e3, float64(text.calls+bip.calls))
	for _, f := range []string{"binary", "gzip"} {
		a := n.get("graphio.load." + f)
		m["graphio.load_"+f+"_ms"] = ratio(a.total*1e3, float64(a.calls))
	}
}

// minerTimes adds each miner's mean self time per Run to extra.
func minerTimes(n spanNames, extra map[string]float64) {
	for _, l := range minerLayers {
		if n.get(l+".run").calls > 0 {
			extra[l+".run_ms"] = n.selfMs(l + ".run")
		}
	}
}
