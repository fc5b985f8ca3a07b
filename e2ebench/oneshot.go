package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	mule "github.com/uncertain-graphs/mule"
	"github.com/uncertain-graphs/mule/internal/baseline"
	"github.com/uncertain-graphs/mule/internal/bench"
	"github.com/uncertain-graphs/mule/internal/gen"
	"github.com/uncertain-graphs/mule/internal/graphio"
)

// The one-shot workloads model an analyst running mule on a file and
// waiting for the whole answer: each operation is one job that loads a file
// (or streams it in component batches, the -shard-batch path), prepares the
// query, runs it, and writes every result in the CLI's line format. One
// client runs the jobs back to back in a fixed, seed-shuffled cycle whose
// weights place every reported percentile inside one job kind's cluster.

var ingestWorkload = workload{
	name:    "oneshot-ingest",
	why:     "mule on a file: cliques at alpha 0.1 on a DBLP-like graph (41k vertices, 157k edges) as .ug/.ugb/.ug.gz and batched; loading dominates, a kernel change should not show",
	clients: 1,
	tail:    p90,
	setup:   setupIngest,
}

var mineWorkload = workload{
	name:    "oneshot-mine",
	why:     "mule on a file: all seven miners on the small kernel-sweep inputs (BA800, ca-GrQc-like, dense G(300,m), skewed hub, cohorts, communities); mining and output dominate",
	clients: 1,
	tail:    p90,
	setup:   setupMine,
}

const (
	// ingestScale sizes the DBLP-like graph so a job takes ~0.1 s and a
	// 20 s run holds well over the 100 jobs p90 needs.
	ingestScale = 0.06
	ingestAlpha = 0.1
	// ingestBatchEdges is the -shard-batch edge cap of the batched jobs.
	ingestBatchEdges = 1 << 16
)

// job is one kind of file-to-answer operation.
type job struct {
	kind     string
	layer    string // the miner's layer (core for cliques)
	path     string
	format   string // text | binary | gzip | bipartite
	batch    int    // > 0: ScanComponentBatches with this edge cap
	alpha    float64
	minSize  int
	prep     prepFunc
	skipProb bool         // clique answers: digest vertex sets only
	refName  string       // jobs with equal refName have the same answer
	gen      func() input // regenerates the input from the seed, for references
}

// jobStats is one completed job's counts, read at the layer boundaries.
type jobStats struct {
	rc       runCounts
	loaded   int // edges loaded from the file
	outBytes int
}

// oneshot is a set-up one-shot workload.
type oneshot struct {
	e      *env
	cycle  []*job
	pos    int
	first  map[string]digest
	inputs map[string]any

	// Accumulated in the traced half only.
	byPos       []*jobStats
	loadBytes   int64
	loadAlloc   int64
	loadEdges   int64
	runAlloc    map[string]int64
	runs        map[string]int64
	searchCalls int64 // clique search calls of the runs runAlloc["core"] covers
}

func newOneshot(e *env, inputs map[string]any) *oneshot {
	return &oneshot{e: e, first: map[string]digest{}, inputs: inputs,
		runAlloc: map[string]int64{}, runs: map[string]int64{}}
}

// setCycle expands the weighted job list into the operation cycle and
// shuffles it with the seed.
func (s *oneshot) setCycle(weighted map[*job]int, order []*job) {
	for _, j := range order {
		for i := 0; i < weighted[j]; i++ {
			s.cycle = append(s.cycle, j)
		}
	}
	rng := rand.New(rand.NewSource(s.e.seed))
	rng.Shuffle(len(s.cycle), func(a, b int) { s.cycle[a], s.cycle[b] = s.cycle[b], s.cycle[a] })
	s.byPos = make([]*jobStats, len(s.cycle))
	mix := map[string]int{}
	for _, j := range s.cycle {
		mix[j.kind]++
	}
	s.inputs["cycle"] = mix
}

func saveFile(path string, g *mule.Graph, b *mule.Bipartite) (int64, error) {
	var err error
	if b != nil {
		err = graphio.SaveBipartiteFile(path, b)
	} else {
		err = graphio.SaveFile(path, g)
	}
	if err != nil {
		return 0, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

func setupIngest(e *env) (session, error) {
	scale := ingestScale
	if e.short {
		scale = 0.01
	}
	g := gen.DBLPLike(scale, e.seed)
	files := map[string]int64{}
	jobs := map[string]*job{}
	regen := func() input { return input{g: gen.DBLPLike(scale, e.seed)} }
	for _, f := range []struct{ kind, name, format string }{
		{"text", "dblp.ug", "text"},
		{"binary", "dblp.ugb", "binary"},
		{"gzip", "dblp.ug.gz", "gzip"},
	} {
		path := filepath.Join(e.dir, f.name)
		n, err := saveFile(path, g, nil)
		if err != nil {
			return nil, err
		}
		files[f.name] = n
		jobs[f.kind] = &job{kind: f.kind, layer: "core", path: path, format: f.format, alpha: ingestAlpha,
			prep: cliquePrep(ingestAlpha), skipProb: true, refName: "dblp", gen: regen}
	}
	jobs["batched"] = &job{kind: "batched", layer: "core", path: jobs["text"].path, format: "text",
		batch: ingestBatchEdges, alpha: ingestAlpha, prep: cliquePrep(ingestAlpha), skipProb: true, refName: "dblp", gen: regen}
	s := newOneshot(e, map[string]any{
		"graph": fmt.Sprintf("gen.DBLPLike(%g)", scale), "vertices": g.NumVertices(), "edges": g.NumEdges(),
		"file_bytes": files, "alpha": ingestAlpha, "batch_edges": ingestBatchEdges,
	})
	// Text jobs are the majority so the median is a text job; batched jobs,
	// the slowest, hold a fifth of the cycle so p90 falls inside them.
	s.setCycle(map[*job]int{jobs["text"]: 6, jobs["binary"]: 1, jobs["gzip"]: 1, jobs["batched"]: 2},
		[]*job{jobs["text"], jobs["binary"], jobs["gzip"], jobs["batched"]})
	return s, nil
}

func setupMine(e *env) (session, error) {
	cfg := bench.Config{Quick: true, Seed: e.seed}
	graphs := map[string]func() input{
		"ba800":         func() input { return input{g: gen.BA(800, e.seed)} },
		"ca-grqc":       func() input { return input{g: gen.CollaborationLikeN(1310, 7245, e.seed)} },
		"dense-gnm300":  func() input { return input{g: denseGNM(300, 0.3, e.seed)} },
		"skewed-hub":    func() input { return input{g: bench.SkewedCliqueGraph(cfg).G} },
		"community150":  func() input { return input{g: communityGraph(150, 8, 7, e.seed)} },
		"cohort200x150": func() input { return input{b: cohortBipartite(200, 150, 6, e.seed)} },
	}
	// Every graphio format appears: BA800, read by six jobs, is binary.
	files := map[string]struct{ name, format string }{
		"ba800":         {"ba800.ugb", "binary"},
		"ca-grqc":       {"ca-grqc.ug.gz", "gzip"},
		"dense-gnm300":  {"dense-gnm300.ug", "text"},
		"skewed-hub":    {"skewed-hub.ug", "text"},
		"community150":  {"community150.ug", "text"},
		"cohort200x150": {"cohort200x150.ubg", "bipartite"},
	}
	sizes := map[string]any{}
	for name, f := range files {
		in := graphs[name]()
		n, err := saveFile(filepath.Join(e.dir, f.name), in.g, in.b)
		if err != nil {
			return nil, err
		}
		info := map[string]any{"file": f.name, "bytes": n, "edges": in.edges()}
		if in.g != nil {
			info["vertices"] = in.g.NumVertices()
		} else {
			info["vertices"] = in.b.NumLeft() + in.b.NumRight()
		}
		sizes[name] = info
	}
	mk := func(kind, layer, graph string, p prepFunc) *job {
		return &job{kind: kind, layer: layer, path: filepath.Join(e.dir, files[graph].name),
			format: files[graph].format, prep: p, refName: kind, gen: graphs[graph]}
	}
	clique := func(kind, graph string, alpha float64, minSize int, o ...mule.Option) *job {
		j := mk(kind, "core", graph, cliquePrep(alpha, append(o, mule.WithMinSize(minSize))...))
		j.alpha, j.minSize, j.skipProb = alpha, minSize, true
		return j
	}
	order := []*job{
		clique("cliques/ba800", "ba800", 0.001, 0),
		clique("cliques/ca-grqc", "ca-grqc", 0.0005, 0),
		clique("cliques-large/ba800", "ba800", 0.001, 3),
		clique("cliques/dense-gnm300", "dense-gnm300", bench.DenseAlpha, 0),
		clique("cliques-ws2/skewed-hub", "skewed-hub", bench.SkewedAlpha, 0, mule.WithWorkers(2)),
		mk("bicliques/cohort200x150", "ubiclique", "cohort200x150", bicliquePrep(0.5, 2, 2)),
		mk("truss/ba800", "utruss", "ba800", trussPrep(0.3)),
		mk("core/ba800", "ucore", "ba800", corePrep(0.3)),
		mk("cluster/ba800", "ucluster", "ba800", clusterPrep(8)),
		mk("densest/ba800", "udensest", "ba800", densestPrep()),
		mk("quasi/community150", "uquasi", "community150", quasiPrep(0.7, 4)),
	}
	// Weights: seven kinds are faster than core/ba800 and three slower; with
	// core/ba800 four times the median falls inside it, and with
	// dense-gnm300, the slowest, three times p90 falls inside that (see the
	// report's placement lines).
	w := map[*job]int{}
	for _, j := range order {
		w[j] = 1
	}
	w[order[3]], w[order[7]] = 3, 4
	s := newOneshot(e, map[string]any{"graphs": sizes})
	s.setCycle(w, order)
	return s, nil
}

func (s *oneshot) close() {}

func (s *oneshot) begin(bool) {}

func (s *oneshot) window() int { return len(s.cycle) }

func (s *oneshot) describe() map[string]any {
	answers := map[string]int64{}
	for k, d := range s.first {
		answers[k] = d.Count
	}
	s.inputs["answers_per_job"] = answers
	return s.inputs
}

// allocated returns the bytes allocated so far. It stops the world, so it
// is only called in traced runs, and outside the spans it brackets.
func allocated() int64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.TotalAlloc)
}

func (s *oneshot) do(c *client) opRecord {
	idx := s.pos % len(s.cycle)
	s.pos++
	j := s.cycle[idx]
	tr := s.e.tr
	traced := tr.active()
	op := c.nextOp()
	c.out.Reset()
	var vt *visitTimer
	st := &jobStats{}
	if traced {
		vt = &visitTimer{}
		s.byPos[idx] = st
	}

	// Like a mule run, a job writes through its own bufio.Writer and
	// flushes it before it ends.
	t0 := time.Now()
	root := tr.begin(0, op, "job "+j.kind, "bench")
	w := bufio.NewWriter(&c.out)
	err := s.execute(j, w, vt, root, op, st)
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	tr.end(root)
	lat := time.Since(t0)

	st.outBytes = c.out.Len()
	ok := err == nil
	if ok {
		d := outputDigest(c.out.Bytes(), j.skipProb)
		if want, seen := s.first[j.kind]; !seen {
			s.first[j.kind] = d
		} else if d != want {
			ok = false
		}
	}
	return opRecord{class: "job", kind: j.kind, lat: lat, ok: ok}
}

// execute runs job j: load (or batch-scan) the file, prepare, run.
func (s *oneshot) execute(j *job, w *bufio.Writer, vt *visitTimer, root int32, op int64, st *jobStats) error {
	tr := s.e.tr
	ctx := context.Background()
	if j.batch > 0 {
		sp := tr.begin(root, op, "graphio.batch_scan", "graphio")
		err := graphio.ScanComponentBatches(j.path, j.batch, func(g *mule.Graph, newToOld []int) error {
			st.loaded += g.NumEdges()
			rc, err := s.mine(ctx, j, input{g: g, toGlobal: newToOld}, w, vt, sp, op)
			st.rc.add(rc)
			return err
		})
		tr.end(sp)
		return err
	}
	traced := vt != nil
	var a0 int64
	if traced {
		a0 = allocated()
	}
	var in input
	var err error
	sp := tr.begin(root, op, "graphio.load."+j.format, "graphio")
	if j.format == "bipartite" {
		in.b, err = graphio.LoadBipartiteFile(j.path)
	} else {
		in.g, err = graphio.LoadFile(j.path)
	}
	tr.end(sp)
	if err != nil {
		return err
	}
	st.loaded = in.edges()
	if traced {
		s.loadAlloc += allocated() - a0
		s.loadEdges += int64(in.edges())
		if fi, err := os.Stat(j.path); err == nil {
			s.loadBytes += fi.Size()
		}
	}
	rc, err := s.mine(ctx, j, in, w, vt, root, op)
	st.rc.add(rc)
	return err
}

// mine prepares and runs j on one input under span parent.
func (s *oneshot) mine(ctx context.Context, j *job, in input, w *bufio.Writer, vt *visitTimer, parent int32, op int64) (runCounts, error) {
	tr := s.e.tr
	sp := tr.begin(parent, op, "mule.new_query", "mule")
	run, err := j.prep(in, w, vt)
	tr.end(sp)
	if err != nil {
		return runCounts{}, err
	}
	traced := vt != nil
	var a0 int64
	var v0 time.Duration
	if traced {
		a0, v0 = allocated(), vt.d
	}
	sp = tr.begin(parent, op, j.layer+".run", j.layer)
	rc, err := run(ctx)
	tr.end(sp)
	if traced {
		tr.addSummed(sp, "mule.visit", "mule", vt.d-v0)
		s.runAlloc[j.layer] += allocated() - a0
		s.runs[j.layer]++
		s.searchCalls += rc.core.Calls
	}
	return rc, err
}

// finish checks the first answer of every job kind against its reference:
// the HashMULE baseline, run per support component of the α-pruned graph
// (no clique spans two components), for clique jobs; the library's
// WithShards run for the other miners. Every later answer of a kind was
// already compared with the first in the loop.
func (s *oneshot) finish(r *runner) (func(*opRecord) bool, error) {
	refs := map[string]digest{}
	bad := map[string]bool{}
	for _, j := range s.cycle {
		want, seen := s.first[j.kind]
		if !seen {
			continue
		}
		ref, done := refs[j.refName]
		if !done {
			var err error
			if ref, err = referenceDigest(j); err != nil {
				return nil, fmt.Errorf("reference for %s: %w", j.kind, err)
			}
			refs[j.refName] = ref
		}
		if want != ref {
			bad[j.kind] = true
			fmt.Fprintf(os.Stderr, "e2ebench: %s answer %+v differs from reference %+v\n", j.kind, want, ref)
		}
	}
	return func(rec *opRecord) bool { return bad[rec.kind] }, nil
}

func referenceDigest(j *job) (digest, error) {
	in := j.gen()
	if j.layer == "core" {
		return cliqueReference(in.g, j.alpha, j.minSize)
	}
	ctx, cancel := withTimeout()
	defer cancel()
	var out bytes.Buffer
	w := bufio.NewWriter(&out)
	run, err := j.prep(in, w, nil, mule.WithShards(2))
	if err != nil {
		return digest{}, err
	}
	if _, err := run(ctx); err != nil {
		return digest{}, err
	}
	if err := w.Flush(); err != nil {
		return digest{}, err
	}
	return outputDigest(out.Bytes(), false), nil
}

// cliqueReference digests the α-maximal cliques of g with at least minSize
// vertices as internal/baseline's HashMULE finds them, one support
// component of the α-pruned graph at a time (HashMULE's root loop is
// quadratic in the vertex count, and no clique spans two components).
func cliqueReference(g *mule.Graph, alpha float64, minSize int) (digest, error) {
	pruned := g.PruneAlpha(alpha)
	var sets [][]int
	for _, comp := range pruned.Components() {
		if len(comp) == 1 {
			if minSize <= 1 {
				sets = append(sets, comp)
			}
			continue
		}
		sub, newToOld, err := pruned.InducedSubgraph(comp)
		if err != nil {
			return digest{}, err
		}
		for _, c := range baseline.CollectHashMULE(sub, alpha) {
			if len(c) < minSize {
				continue
			}
			for i, v := range c {
				c[i] = newToOld[v] // comp is ascending, so c stays ascending
			}
			sets = append(sets, c)
		}
	}
	return setDigest(sets), nil
}

func (s *oneshot) report(r *runner, rep *report) {}

// layers reports the one-shot per-layer metrics. Counts are summed over one
// cycle of jobs (each job's latest traced run), so they depend on the seed
// alone; times are means per call over the traced half.
func (s *oneshot) layers(r *runner, rep *report) {
	m := rep.PerLayer
	names := nameStats(r.tr.snapshot())
	var cyc jobStats
	var cliqueEdges int
	perLayer := map[string]int64{}
	complete := true
	for i, st := range s.byPos {
		if st == nil {
			complete = false
			continue
		}
		j := s.cycle[i]
		cyc.loaded += st.loaded
		cyc.outBytes += st.outBytes
		perLayer[j.layer] += st.rc.work
		if j.layer == "core" {
			cyc.rc.add(st.rc)
			cliqueEdges += st.rc.edges
		}
	}
	if !complete {
		fmt.Fprintln(os.Stderr, "e2ebench: the traced half did not complete one job cycle; counts are partial")
	}
	loadStats(names, m)
	m["graphio.mb_per_s"] = ratio(float64(s.loadBytes)/1e6, names.totalSeconds("graphio.load."))
	m["graphio.alloc_b_per_edge"] = ratio(float64(s.loadAlloc), float64(s.loadEdges))
	m["graphio.edges"] = float64(cyc.loaded)
	coreCounts(cyc.rc.core, m)
	m["uncertain.pruned_edges"] = float64(cyc.rc.core.PrunedEdges)
	m["uncertain.pruned_share"] = ratio(float64(cyc.rc.core.PrunedEdges), float64(cliqueEdges))
	m["uncertain.prune_ms"] = s.pruneProbe()
	m["core.run_ms"] = names.selfMs("core.run")
	m["core.alloc_b_per_call"] = ratio(float64(s.runAlloc["core"]), float64(s.searchCalls))
	for layer, count := range minerWork {
		m[count] = float64(perLayer[layer])
		m[layer+".alloc_b_per_run"] = ratio(float64(s.runAlloc[layer]), float64(s.runs[layer]))
	}
	m["mule.visit_ms"] = ratio(names.get("mule.visit").total*1e3, float64(names.runs()))
	m["mule.out_bytes"] = float64(cyc.outBytes)
	minerTimes(names, rep.Extra)
	if names.get("graphio.batch_scan").calls > 0 {
		rep.Extra["graphio.batch_scan_ms"] = names.selfMs("graphio.batch_scan")
	}
}

// minerWork maps each non-clique miner layer to its work-count metric.
var minerWork = map[string]string{
	"ubiclique": "ubiclique.calls",
	"uquasi":    "uquasi.calls",
	"utruss":    "utruss.checks",
	"ucore":     "ucore.recomputes",
	"udensest":  "udensest.peel_steps",
	"ucluster":  "ucluster.sweeps",
}

func coreCounts(c mule.Stats, m map[string]float64) {
	m["core.search_calls"] = float64(c.Calls)
	m["core.emitted"] = float64(c.Emitted)
	m["core.emitted_per_call"] = ratio(float64(c.Emitted), float64(c.Calls))
	m["core.candidate_ops"] = float64(c.CandidateOps)
	m["core.witness_ops"] = float64(c.WitnessOps)
	m["core.bitset_ops"] = float64(c.BitsetOps)
	m["core.size_pruned"] = float64(c.SizePruned)
	m["core.steals"] = float64(c.Steals)
}

// pruneProbe times Graph.PruneAlpha on each clique job's input, after the
// traced phase, and returns the mean over one cycle of jobs in ms.
func (s *oneshot) pruneProbe() float64 {
	probe := map[string]float64{}
	var sum float64
	var n int
	for _, j := range s.cycle {
		if j.layer != "core" {
			continue
		}
		ms, done := probe[j.refName]
		if !done {
			ms = pruneMs(j.gen().g, j.alpha)
			probe[j.refName] = ms
		}
		sum += ms
		n++
	}
	return ratio(sum, float64(n))
}

// pruneMs returns the median time of five PruneAlpha calls on g, in ms.
func pruneMs(g *mule.Graph, alpha float64) float64 {
	var ts []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		_ = g.PruneAlpha(alpha)
		ts = append(ts, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return median(ts)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
