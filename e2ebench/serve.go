package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"time"

	mule "github.com/uncertain-graphs/mule"
	"github.com/uncertain-graphs/mule/internal/gen"
	"github.com/uncertain-graphs/mule/internal/graphio"
	"github.com/uncertain-graphs/mule/internal/server"
)

// serve-mixed models services calling muled: two closed-loop clients, each
// waiting for its reply before sending the next request, against an
// in-process server (server.New with the default cache and warming, behind
// httptest.NewServer on loopback). The seed draws each client's request
// stream: hits on pre-warmed shapes of all seven miners, misses that ask a
// new threshold each time (each miss key recurs only after the cache has
// evicted it), and, from client 0, edge-update batches on the live graph,
// each followed by a requery of the live graph's hot shapes.
var serveWorkload = workload{
	name:    "serve-mixed",
	why:     "muled in process, 2 closed-loop clients and 2 tenants: cache hits, misses that evict, applies on a live graph with requeries; the only workload on cache, admission, maintainer",
	clients: 2,
	tail:    p99,
	setup:   setupServe,
}

const (
	// serveBA sizes the static and live Barabási–Albert graphs: large
	// enough that a 20 s run holds under 10,000 requests, so p99 is the
	// highest percentile with ten samples beyond it on every seed.
	serveBA      = 1600
	liveAlpha    = 0.001 // the live graph's maintainer threshold
	applyBatch   = 4     // edge updates per apply
	missKeys     = 200   // distinct miss keys per client, > the 256-entry cache over two clients
	cappedTenant = "capped"
)

// Request-mix shares (per draw of a client's next request). Client 0 alone
// applies, so batches commit in the order it sends them.
const (
	shareApply = 0.05 // client 0 only; each apply is followed by one requery per live shape
	// shareMiss is each client's miss share. Misses are the slow class, so
	// it also sets the request rate: at 0.14 a 20 s run stays under the
	// 10,000 requests at which p99.9, not the fixed p99, would become the
	// highest tail with ten samples beyond it.
	shareMiss = 0.14
)

// Class tails, fixed: the highest percentile each class's share of a 20 s
// run leaves ten samples beyond.
var classTails = map[string]int{"hit": p99, "miss": p90, "apply": p90, "requery": p90}

// shape is one query a client can ask, with its library reference.
type shape struct {
	name   string // kind in reports
	graph  string
	miner  string
	params string                        // canonical query string
	weight int                           // share among hits
	ref    func() ([]byte, int64, error) // the library answer in muled's wire shape
}

func (sh *shape) url(base string) string {
	return base + "/graphs/" + sh.graph + "/query?miner=" + sh.miner + "&" + sh.params
}

// answer is a response reduced to what the checks compare.
type answer struct {
	count int64
	hash  uint64
	size  int
}

var hashSeed = maphash.MakeSeed()

func answerOf(count int64, results []byte) answer {
	return answer{count: count, hash: maphash.Bytes(hashSeed, results), size: len(results)}
}

// queryHead is the part of a query response the client reads.
type queryHead struct {
	Epoch  uint64 `json:"epoch"`
	Cached bool   `json:"cached"`
	Count  int64  `json:"count"`
}

// wireStats holds every work counter a miner's stats can carry; the server
// marshals the stats structs without tags, so the keys are the field names.
type wireStats struct {
	Calls, Emitted, CandidateOps, WitnessOps, BitsetOps, SizePruned, Steals int64
	PrunedEdges                                                             int
	Checks, Recomputes, PeelSteps, Sweeps                                   int64
}

// check is one recorded answer verified after the phase.
type check struct {
	sh    *shape
	epoch uint64
	ans   answer
}

// applied is one committed update batch.
type applied struct {
	epoch uint64
	batch []mule.EdgeUpdate
}

// serveAcc is one client's traced-half counts.
type serveAcc struct {
	core        mule.Stats
	work        map[string]int64
	cliqueEdges int
	requests    int64
	respBytes   int64
	requeries   int64
	requeryHits int64
	ttfb, body  map[string][]float64 // by class, ms
}

type serve struct {
	e      *env
	srv    *server.Server
	ts     *httptest.Server
	hc     *http.Client
	inputs map[string]any
	edges  map[string]int // edges per graph name

	hits      []*shape
	hitTotal  int
	live      []*shape
	missCycle [2][]*shape
	missPos   [2]int
	pool      [][2]int // live edges whose probabilities applies rewrite
	seedBatch []mule.EdgeUpdate
	first     map[*shape]answer // first answer of each hit shape

	// Client 0 owns batches, requeries and queue; each client owns its own
	// misses and accumulator.
	queue     []*shape
	batches   []applied
	requeries []check
	misses    [2][]check
	acc       [2]*serveAcc

	statsAt  statsBody
	admAt    mule.AdmissionStats
	loadTime time.Duration
	loadB    int64
	loadA    int64
	loadE    int64
	probe    probeStats
}

// statsBody is the part of GET /stats the benchmark reads.
type statsBody struct {
	Cache struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Bytes     int64 `json:"bytes"`
		Evictions int64 `json:"evictions"`
	} `json:"cache"`
	Warm struct {
		Completed int64 `json:"completed"`
		Skipped   int64 `json:"skipped"`
	} `json:"warm"`
}

// probeStats are the post-phase library and maintainer timings.
type probeStats struct {
	applyMs, snapshotMs []float64
	updates, search     int64
	changed             int64
	coreCalls           int64
	alloc, runs         map[string]int64
}

// Graph generators: the inputs derive from the seed alone.
func serveGraphs(seed int64) (static, community, live *mule.Graph, bip *mule.Bipartite) {
	return gen.BA(serveBA, seed), communityGraph(150, 8, 7, seed), gen.BA(serveBA, seed+1000003),
		cohortBipartite(200, 150, 6, seed)
}

func setupServe(e *env) (session, error) {
	static, community, live, bip := serveGraphs(e.seed)
	s := &serve{e: e, first: map[*shape]answer{}, edges: map[string]int{},
		probe: probeStats{alloc: map[string]int64{}, runs: map[string]int64{}}}
	for i := range s.acc {
		s.acc[i] = &serveAcc{work: map[string]int64{}, ttfb: map[string][]float64{}, body: map[string][]float64{}}
	}
	s.srv = server.New(server.Config{})
	s.ts = httptest.NewServer(s.srv.Handler())
	s.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true}}

	// Preload the way muled -load does: one file per graph, through graphio.
	files := map[string]int64{}
	for _, f := range []struct {
		name, file, format string
		g                  *mule.Graph
		b                  *mule.Bipartite
	}{
		{"static", "static.ugb", "binary", static, nil},
		{"community", "community.ug.gz", "gzip", community, nil},
		{"live", "live.ug", "text", live, nil},
		{"bip", "bip.ubg", "bipartite", nil, bip},
	} {
		path := filepath.Join(e.dir, f.file)
		n, err := saveFile(path, f.g, f.b)
		if err != nil {
			s.close()
			return nil, err
		}
		files[f.file] = n
		if err := s.preload(f.name, path, f.format, n); err != nil {
			s.close()
			return nil, err
		}
	}
	s.srv.Executor().SetTenantLimits(cappedTenant, mule.Limits{MaxInFlight: 1, MaxQueued: 64})

	s.defineShapes(e.seed, static, community, live, bip)
	for _, uv := range live.Edges() {
		s.pool = append(s.pool, [2]int{uv.U, uv.V})
	}
	rng := rand.New(rand.NewSource(e.seed))
	s.seedBatch = s.newBatch(rng)
	ctx := context.Background()
	if _, err := s.apply(ctx, s.seedBatch, true); err != nil {
		s.close()
		return nil, fmt.Errorf("seeding the live maintainer: %w", err)
	}
	// Pre-warm: ask every hit and live shape twice; the first answer is the
	// one later hits must repeat, the second is a cache hit, which is what
	// makes muled re-warm the live shapes after each apply.
	for _, sh := range append(append([]*shape(nil), s.hits...), s.live...) {
		for i := 0; i < 2; i++ {
			var buf bytes.Buffer
			head, results, _, _, _, err := s.get(ctx, sh, "", &buf)
			if err != nil {
				s.close()
				return nil, fmt.Errorf("pre-warming %s: %w", sh.name, err)
			}
			if i == 0 {
				s.first[sh] = answerOf(head.Count, results)
			}
		}
	}
	s.inputs = map[string]any{
		"graphs": map[string]any{
			"static":    map[string]any{"gen": "gen.BA", "vertices": static.NumVertices(), "edges": static.NumEdges()},
			"community": map[string]any{"gen": "communityGraph(150,8,7)", "vertices": community.NumVertices(), "edges": community.NumEdges()},
			"live":      map[string]any{"gen": "gen.BA", "vertices": live.NumVertices(), "edges": live.NumEdges(), "alpha": liveAlpha},
			"bip":       map[string]any{"gen": "cohortBipartite(200,150,6)", "vertices": bip.NumLeft() + bip.NumRight(), "edges": bip.NumEdges()},
		},
		"file_bytes":       files,
		"cache":            map[string]any{"entries": 256, "bytes": 64 << 20, "warm_keys": 4},
		"shares":           map[string]float64{"apply_client0": shareApply, "miss": shareMiss},
		"miss_keys":        2 * missKeys,
		"apply_batch":      applyBatch,
		"tenants":          map[string]any{cappedTenant: "MaxInFlight 1, MaxQueued 64", "open": "unlimited"},
		"hit_shape_weight": weights(s.hits),
	}
	return s, nil
}

func weights(shapes []*shape) map[string]int {
	out := map[string]int{}
	for _, sh := range shapes {
		out[sh.name] = sh.weight
	}
	return out
}

// preload loads one graph file through graphio and installs it.
func (s *serve) preload(name, path, format string, size int64) error {
	tr := s.e.tr
	traced := tr.active()
	var a0 int64
	if traced {
		a0 = allocated()
	}
	snap := &server.Snapshot{}
	var err error
	t0 := time.Now()
	sp := tr.begin(0, -1, "graphio.load."+format, "graphio")
	if format == "bipartite" {
		snap.Bipartite, err = graphio.LoadBipartiteFile(path)
	} else {
		snap.Graph, err = graphio.LoadFile(path)
	}
	tr.end(sp)
	if err != nil {
		return err
	}
	s.loadTime += time.Since(t0)
	s.loadB += size
	s.edges[name] = snap.Edges()
	s.loadE += int64(snap.Edges())
	if traced {
		s.loadA += allocated() - a0
	}
	return s.srv.Install(name, snap)
}

// defineShapes builds the hit shapes, the live shapes and each client's
// cycle of miss keys, every one with its library reference.
func (s *serve) defineShapes(seed int64, static, community, live *mule.Graph, bip *mule.Bipartite) {
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	cliques := func(g *mule.Graph, graph string, alpha float64, w int) *shape {
		return &shape{graph: graph, miner: "cliques", params: "alpha=" + f(alpha), weight: w,
			ref: func() ([]byte, int64, error) { return s.refCliques(g, alpha) }}
	}
	truss := func(eta float64, w int) *shape {
		return &shape{graph: "static", miner: "truss", params: "eta=" + f(eta), weight: w,
			ref: func() ([]byte, int64, error) { return s.refTruss(static, eta) }}
	}
	core := func(eta float64, w int) *shape {
		return &shape{graph: "static", miner: "core", params: "eta=" + f(eta), weight: w,
			ref: func() ([]byte, int64, error) { return s.refCore(static, eta) }}
	}
	cluster := func(g *mule.Graph, graph string, k, w int) *shape {
		return &shape{graph: graph, miner: "cluster", params: "centers=" + strconv.Itoa(k), weight: w,
			ref: func() ([]byte, int64, error) { return s.refCluster(g, k) }}
	}
	bicliques := func(alpha float64, w int) *shape {
		return &shape{graph: "bip", miner: "bicliques", params: "alpha=" + f(alpha) + "&minl=2&minr=2", weight: w,
			ref: func() ([]byte, int64, error) { return s.refBicliques(bip, alpha) }}
	}
	quasi := func(gamma float64, w int) *shape {
		return &shape{graph: "community", miner: "quasi", params: "gamma=" + f(gamma) + "&minsize=4", weight: w,
			ref: func() ([]byte, int64, error) { return s.refQuasi(community, gamma) }}
	}
	densest := &shape{graph: "static", miner: "densest", params: "", weight: 3,
		ref: func() ([]byte, int64, error) { return s.refDensest(static) }}

	// Hit weights: the four smallest answers (a few µs to serve) hold 30%,
	// truss 50% so the median hit and the median request are truss hits,
	// cliques 17%, and densest, the largest answer, 3% so the hits' p99
	// falls inside it.
	//
	// Set-up mines every hit shape once, so a shape whose cost moves with
	// the seed moves setup_s. Cluster k-center on the static graph runs a
	// seed-dependent number of Lloyd rounds (21–76 ms at k = 16 over seeds
	// 1–10), so the cluster hit runs on the community graph, with k below the
	// miss keys' k ≥ 4; bicliques at α = 0.4 vary 31–39 ms over those seeds,
	// against 36–56 ms at α = 0.2.
	s.hits = []*shape{
		cliques(static, "static", 0.001, 17), truss(0.3, 50), core(0.3, 8), cluster(community, "community", 3, 7),
		densest, bicliques(0.4, 7), quasi(0.7, 8),
	}
	for _, sh := range s.hits {
		sh.name = sh.miner + "@" + sh.graph
		s.hitTotal += sh.weight
	}
	// One hot shape on the live graph: a requery is then one kind of
	// operation, and the race with the background warm is the only thing
	// that splits its latency.
	s.live = []*shape{cliques(live, "live", liveAlpha, 0)}
	s.live[0].name = "cliques@live"

	// Miss keys: quasi and cluster on the small community graph take under
	// a ms; then cliques, truss and core on the static graph, each slower
	// than the last and each stable from seed to seed. The weights put the
	// misses' median inside truss and their p90, and the p99 of all
	// requests, inside core. Bicliques, the slowest and the one whose cost
	// moves most with the seed, are kept rare so no percentile lands there.
	//
	// Every client walks its own seeded cycle of distinct keys;
	// the two clients' parameter grids interleave, so no key is shared. A
	// key recurs only after ~2·missKeys other cache insertions, far beyond
	// the 256-entry cache, so it has been evicted by then.
	mix := []struct {
		miner string
		w     int
		mk    func(i int) *shape
	}{
		{"quasi", 10, func(i int) *shape { return quasi(0.6+float64(i)*0.002, 0) }},
		{"cluster", 5, func(i int) *shape { return cluster(community, "community", 4+i, 0) }},
		{"bicliques", 3, func(i int) *shape { return bicliques(0.5+float64(i)*0.001, 0) }},
		{"cliques", 25, func(i int) *shape { return cliques(static, "static", 0.0011+float64(i)*1e-5, 0) }},
		{"truss", 44, func(i int) *shape { return truss(0.2+float64(i)*0.001, 0) }},
		{"core", 13, func(i int) *shape { return core(0.2+float64(i)*0.001, 0) }},
	}
	total := 0
	for _, m := range mix {
		total += m.w
	}
	for c := 0; c < 2; c++ {
		var cycle []*shape
		for _, m := range mix {
			n := missKeys * m.w / total
			for i := 0; i < n; i++ {
				sh := m.mk(2*i + c)
				sh.name = "miss:" + m.miner
				cycle = append(cycle, sh)
			}
		}
		rng := rand.New(rand.NewSource(seed*31 + int64(c)))
		rng.Shuffle(len(cycle), func(a, b int) { cycle[a], cycle[b] = cycle[b], cycle[a] })
		s.missCycle[c] = cycle
	}
}

// newBatch draws applyBatch probability rewrites of existing live edges, so
// the live topology, and with it the cost of a requery, stays stationary.
func (s *serve) newBatch(rng *rand.Rand) []mule.EdgeUpdate {
	b := make([]mule.EdgeUpdate, applyBatch)
	for i := range b {
		uv := s.pool[rng.Intn(len(s.pool))]
		b[i] = mule.EdgeUpdate{U: uv[0], V: uv[1], P: 0.05 + 0.95*rng.Float64()}
	}
	return b
}

func (s *serve) close() {
	if s.ts != nil {
		s.ts.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
}

func (s *serve) describe() map[string]any { return s.inputs }

// get sends one query and reads the whole body into buf. ttfb runs to the
// response headers, body from there to the last byte.
func (s *serve) get(ctx context.Context, sh *shape, tenant string, buf *bytes.Buffer) (head queryHead, results, stats []byte, ttfb, body time.Duration, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, sh.url(s.ts.URL), nil)
	if err != nil {
		return
	}
	if tenant != "" {
		req.Header.Set("X-Mule-Tenant", tenant)
	}
	t0 := time.Now()
	resp, err := s.hc.Do(req)
	if err != nil {
		return
	}
	ttfb = time.Since(t0)
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	body = time.Since(t0) - ttfb
	if err != nil {
		return
	}
	if resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("%s: HTTP %d: %s", sh.name, resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
		return
	}
	head, results, stats, err = splitResponse(buf.Bytes())
	return
}

// splitResponse cuts a query response into its small head, its results and
// its stats without decoding the results: muled writes the fields in
// declaration order, with results and stats last. A body of another shape
// is an error, so a change to that order fails operations visibly.
func splitResponse(body []byte) (queryHead, []byte, []byte, error) {
	var head queryHead
	i := bytes.Index(body, []byte(`,"results":`))
	j := bytes.LastIndex(body, []byte(`,"stats":`))
	k := bytes.LastIndexByte(body, '}')
	if i <= 0 || j <= i || k <= j {
		return head, nil, nil, errors.New("query response does not end with results and stats")
	}
	if err := json.Unmarshal(append(body[:i:i], '}'), &head); err != nil {
		return head, nil, nil, fmt.Errorf("decoding query response: %w", err)
	}
	return head, body[i+len(`,"results":`) : j], body[j+len(`,"stats":`) : k], nil
}

// apply posts one update batch to the live graph and returns the new epoch.
func (s *serve) apply(ctx context.Context, batch []mule.EdgeUpdate, seed bool) (uint64, error) {
	body, err := applyBody(batch)
	if err != nil {
		return 0, err
	}
	url := s.ts.URL + "/graphs/live/apply"
	if seed {
		url += "?alpha=" + strconv.FormatFloat(liveAlpha, 'g', -1, 64)
	}
	epoch, _, err := s.post(ctx, url, body)
	return epoch, err
}

func applyBody(batch []mule.EdgeUpdate) ([]byte, error) {
	type upd struct {
		U int     `json:"u"`
		V int     `json:"v"`
		P float64 `json:"p"`
	}
	req := struct {
		Updates []upd `json:"updates"`
	}{}
	for _, u := range batch {
		req.Updates = append(req.Updates, upd{u.U, u.V, u.P})
	}
	return json.Marshal(req)
}

func (s *serve) post(ctx context.Context, url string, body []byte) (uint64, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	resp, err := s.hc.Do(req)
	if err != nil {
		return 0, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return 0, lat, err
	}
	var out struct {
		Epoch  uint64 `json:"epoch"`
		Status string `json:"status"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		return 0, lat, fmt.Errorf("decoding apply response: %w", err)
	}
	if resp.StatusCode != http.StatusOK || out.Status != mule.StatusComplete.String() {
		return 0, lat, fmt.Errorf("apply: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return out.Epoch, lat, nil
}

// window: client 0 completes 500 requests in about a second.
func (s *serve) window() int { return 500 }

func (s *serve) begin(traced bool) {
	if !traced {
		return
	}
	s.statsAt = s.stats()
	s.admAt = s.srv.Executor().AdmissionStats()
}

func (s *serve) stats() statsBody {
	// A failed read leaves the counters at zero, which the per-layer
	// metrics then show; it cannot change any answer check.
	var st statsBody
	resp, err := s.hc.Get(s.ts.URL + "/stats")
	if err != nil {
		return st
	}
	defer resp.Body.Close()
	_ = json.NewDecoder(resp.Body).Decode(&st)
	return st
}

func (s *serve) do(c *client) opRecord {
	ctx := context.Background()
	tr := s.e.tr
	op := c.nextOp()
	tenant := "open"
	if c.rng.Intn(2) == 0 {
		tenant = cappedTenant
	}
	var sh *shape
	class := "hit"
	u := c.rng.Float64()
	if c.id == 0 {
		u -= shareApply // client 0's applies take the draws below shareApply
	}
	switch {
	case c.id == 0 && len(s.queue) > 0:
		sh, s.queue = s.queue[0], s.queue[1:]
		class = "requery"
	case u < 0:
		return s.doApply(c, op)
	case u < shareMiss:
		cyc := s.missCycle[c.id]
		sh = cyc[s.missPos[c.id]%len(cyc)]
		s.missPos[c.id]++
		class = "miss"
	default:
		sh = s.pickHit(c.rng)
	}

	root := tr.begin(0, op, "request "+class, "bench")
	sp := tr.begin(root, op, "server."+class, "server")
	head, results, stats, ttfb, body, err := s.get(ctx, sh, tenant, &c.body)
	tr.end(sp)
	tr.end(root)
	rec := opRecord{class: class, kind: sh.name, lat: ttfb + body, ok: err == nil}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return rec
	}
	ans := answerOf(head.Count, results)
	switch class {
	case "hit":
		rec.ok = ans == s.first[sh]
	case "miss":
		rec.ref = int32(c.id<<24 | len(s.misses[c.id]))
		s.misses[c.id] = append(s.misses[c.id], check{sh: sh, epoch: head.Epoch, ans: ans})
	case "requery":
		rec.ref = int32(len(s.requeries))
		s.requeries = append(s.requeries, check{sh: sh, epoch: head.Epoch, ans: ans})
	}
	if tr.active() {
		s.count(c, sh, class, head, stats, ttfb, body, c.body.Len())
	}
	return rec
}

func (s *serve) pickHit(rng *rand.Rand) *shape {
	n := rng.Intn(s.hitTotal)
	for _, sh := range s.hits {
		if n < sh.weight {
			return sh
		}
		n -= sh.weight
	}
	return s.hits[len(s.hits)-1]
}

func (s *serve) doApply(c *client, op int64) opRecord {
	tr := s.e.tr
	batch := s.newBatch(c.rng)
	body, err := applyBody(batch)
	if err != nil {
		return opRecord{class: "apply", kind: "apply"}
	}
	root := tr.begin(0, op, "request apply", "bench")
	sp := tr.begin(root, op, "server.apply", "server")
	epoch, lat, err := s.post(context.Background(), s.ts.URL+"/graphs/live/apply", body)
	tr.end(sp)
	tr.end(root)
	rec := opRecord{class: "apply", kind: "apply", lat: lat, ok: err == nil}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return rec
	}
	s.batches = append(s.batches, applied{epoch: epoch, batch: batch})
	s.queue = append(s.queue, s.live...)
	if tr.active() {
		s.acc[c.id].requests++
	}
	return rec
}

// count adds one traced response to the client's layer counts.
func (s *serve) count(c *client, sh *shape, class string, head queryHead, stats []byte, ttfb, body time.Duration, size int) {
	a := s.acc[c.id]
	a.requests++
	a.respBytes += int64(size)
	k := class
	if class == "requery" {
		a.requeries++
		if head.Cached {
			a.requeryHits++
		}
	}
	a.ttfb[k] = append(a.ttfb[k], float64(ttfb.Nanoseconds())/1e6)
	a.body[k] = append(a.body[k], float64(body.Nanoseconds())/1e6)
	if head.Cached {
		return // cached stats describe the run that filled the cache
	}
	var ws wireStats
	if err := json.Unmarshal(stats, &ws); err != nil {
		return
	}
	switch sh.miner {
	case "cliques":
		a.core.Calls += ws.Calls
		a.core.Emitted += ws.Emitted
		a.core.CandidateOps += ws.CandidateOps
		a.core.WitnessOps += ws.WitnessOps
		a.core.BitsetOps += ws.BitsetOps
		a.core.SizePruned += ws.SizePruned
		a.core.Steals += ws.Steals
		a.core.PrunedEdges += ws.PrunedEdges
		a.cliqueEdges += s.edges[sh.graph]
	case "bicliques":
		a.work["ubiclique"] += ws.Calls
	case "quasi":
		a.work["uquasi"] += ws.Calls
	case "truss":
		a.work["utruss"] += ws.Checks
	case "core":
		a.work["ucore"] += ws.Recomputes
	case "densest":
		a.work["udensest"] += ws.PeelSteps
	case "cluster":
		a.work["ucluster"] += ws.Sweeps
	}
}

// finish verifies, after the phase: the first answer of every hit shape
// and every miss against the library answer; every requery against the
// library answer on a library Maintainer that replays the same batches; and
// the live graph's final clique set against that Maintainer's.
func (s *serve) finish(r *runner) (func(*opRecord) bool, error) {
	if r.cfg.trace {
		// The library references double as the miners' probes.
		r.tr.setOn(true)
		defer r.tr.setOn(false)
	}
	refs := map[string]answer{}
	refOf := func(sh *shape) (answer, error) {
		key := sh.graph + "?" + sh.miner + "&" + sh.params
		if a, ok := refs[key]; ok {
			return a, nil
		}
		results, count, err := sh.ref()
		if err != nil {
			return answer{}, fmt.Errorf("reference for %s?%s: %w", sh.name, sh.params, err)
		}
		refs[key] = answerOf(count, results)
		return refs[key], nil
	}
	badHit := map[string]bool{}
	for _, sh := range s.hits {
		want, err := refOf(sh)
		if err != nil {
			return nil, err
		}
		if s.first[sh] != want {
			badHit[sh.name] = true
			fmt.Fprintf(os.Stderr, "e2ebench: %s answers %+v, library %+v\n", sh.name, s.first[sh], want)
		}
	}
	badMiss := map[int32]bool{}
	for c := range s.misses {
		for i, m := range s.misses[c] {
			want, err := refOf(m.sh)
			if err != nil {
				return nil, err
			}
			if m.ans != want {
				badMiss[int32(c<<24|i)] = true
				fmt.Fprintf(os.Stderr, "e2ebench: %s?%s answered %+v, library %+v\n", m.sh.name, m.sh.params, m.ans, want)
			}
		}
	}
	badReq, liveOK, err := s.replay()
	if err != nil {
		return nil, err
	}
	return func(rec *opRecord) bool {
		switch rec.class {
		case "hit":
			return badHit[rec.kind]
		case "miss":
			return badMiss[rec.ref]
		case "requery":
			return !liveOK || badReq[rec.ref]
		case "apply":
			return !liveOK
		}
		return false
	}, nil
}

// replay rebuilds the live graph's history in a library Maintainer: the
// seed batch, then client 0's batches in commit order. It times Apply and
// Graph (the dynamic probes), checks each requery against the library
// answer at its epoch, and reports whether the final clique set the server
// serves equals the Maintainer's.
func (s *serve) replay() (badReq map[int32]bool, liveOK bool, err error) {
	ctx, cancel := withTimeout()
	defer cancel()
	_, _, live, _ := serveGraphs(s.e.seed)
	m, err := mule.NewMaintainerContext(ctx, live, liveAlpha)
	if err != nil {
		return nil, false, err
	}
	if _, _, err := m.Apply(ctx, s.seedBatch); err != nil {
		return nil, false, err
	}
	byEpoch := map[uint64][]int{}
	for i, q := range s.requeries {
		byEpoch[q.epoch] = append(byEpoch[q.epoch], i)
	}
	badReq = map[int32]bool{}
	checked := 0
	for _, b := range s.batches {
		t0 := time.Now()
		_, st, err := m.Apply(ctx, b.batch)
		if err != nil {
			return nil, false, err
		}
		t1 := time.Now()
		g := m.Graph()
		s.probe.applyMs = append(s.probe.applyMs, float64(t1.Sub(t0).Nanoseconds())/1e6)
		s.probe.snapshotMs = append(s.probe.snapshotMs, float64(time.Since(t1).Nanoseconds())/1e6)
		s.probe.updates += int64(st.Updates)
		s.probe.search += st.SearchCalls
		s.probe.changed += int64(st.CliquesAdded + st.CliquesRemoved)
		for _, i := range byEpoch[b.epoch] {
			q := s.requeries[i]
			checked++
			results, count, err := s.refCliques(g, liveAlpha)
			if err != nil {
				return nil, false, err
			}
			if q.ans != answerOf(count, results) {
				badReq[int32(i)] = true
				fmt.Fprintf(os.Stderr, "e2ebench: %s at epoch %d differs from the replayed library answer\n", q.sh.name, q.epoch)
			}
		}
	}
	if checked != len(s.requeries) {
		fmt.Fprintf(os.Stderr, "e2ebench: %d requeries answered at an epoch no batch committed\n", len(s.requeries)-checked)
		return badReq, false, nil
	}

	// The final clique set, as the server now serves it, against the
	// Maintainer's own set.
	var buf bytes.Buffer
	head, results, _, _, _, err := s.get(ctx, s.live[0], "", &buf)
	if err != nil {
		return nil, false, err
	}
	var wire []struct {
		Vertices []int `json:"vertices"`
	}
	if err := json.Unmarshal(results, &wire); err != nil {
		return nil, false, err
	}
	sets := make([][]int, len(wire))
	for i, w := range wire {
		sets[i] = w.Vertices
	}
	got, want := setDigest(sets), setDigest(m.Cliques())
	if got != want || head.Count != int64(len(wire)) {
		fmt.Fprintf(os.Stderr, "e2ebench: live clique set %+v differs from the replayed Maintainer's %+v\n", got, want)
		return badReq, false, nil
	}
	return badReq, true, nil
}

// The ref* functions compute the library answer to one shape through the
// public query API and encode it exactly as muled does (internal/server's
// wire shapes, canonical order), so a correct response is byte-identical.
// In traced runs they are the miners' probes on this workload.

func (s *serve) timedRun(layer string, run func(vt *visitTimer) error) error {
	tr := s.e.tr
	var vt *visitTimer
	var a0 int64
	traced := tr.active()
	if traced {
		vt, a0 = &visitTimer{}, allocated()
	}
	sp := tr.begin(0, -1, layer+".run", layer)
	err := run(vt)
	tr.end(sp)
	if traced {
		tr.addSummed(sp, "mule.visit", "mule", vt.d)
		s.probe.alloc[layer] += allocated() - a0
		s.probe.runs[layer]++
	}
	return err
}

func marshalCount[T any](out []T, err error) ([]byte, int64, error) {
	if err != nil {
		return nil, 0, err
	}
	b, err := json.Marshal(out)
	return b, int64(len(out)), err
}

func (s *serve) refCliques(g *mule.Graph, alpha float64) ([]byte, int64, error) {
	type cliqueJSON struct {
		Vertices []int   `json:"vertices"`
		Prob     float64 `json:"prob"`
	}
	q, err := mule.NewQuery(g, alpha)
	if err != nil {
		return nil, 0, err
	}
	out := []cliqueJSON{}
	err = s.timedRun("core", func(vt *visitTimer) error {
		st, err := q.Run(context.Background(), func(c []int, p float64) bool {
			t0 := vt.start()
			out = append(out, cliqueJSON{append([]int(nil), c...), p})
			vt.stop(t0)
			return true
		})
		if s.e.tr.active() {
			s.probe.coreCalls += st.Calls
		}
		return err
	})
	sort.Slice(out, func(i, j int) bool { return slices.Compare(out[i].Vertices, out[j].Vertices) < 0 })
	return marshalCount(out, err)
}

func (s *serve) refBicliques(g *mule.Bipartite, alpha float64) ([]byte, int64, error) {
	type bicliqueJSON struct {
		Left  []int   `json:"left"`
		Right []int   `json:"right"`
		Prob  float64 `json:"prob"`
	}
	q, err := mule.NewBicliqueQuery(g, alpha, mule.WithSides(2, 2))
	if err != nil {
		return nil, 0, err
	}
	out := []bicliqueJSON{}
	err = s.timedRun("ubiclique", func(vt *visitTimer) error {
		_, err := q.Run(context.Background(), func(l, r []int, p float64) bool {
			t0 := vt.start()
			out = append(out, bicliqueJSON{append([]int(nil), l...), append([]int(nil), r...), p})
			vt.stop(t0)
			return true
		})
		return err
	})
	sort.Slice(out, func(i, j int) bool {
		if c := slices.Compare(out[i].Left, out[j].Left); c != 0 {
			return c < 0
		}
		return slices.Compare(out[i].Right, out[j].Right) < 0
	})
	return marshalCount(out, err)
}

func (s *serve) refQuasi(g *mule.Graph, gamma float64) ([]byte, int64, error) {
	q, err := mule.NewQuasiQuery(g, mule.WithGamma(gamma), mule.WithMinSize(4))
	if err != nil {
		return nil, 0, err
	}
	out := [][]int{}
	err = s.timedRun("uquasi", func(vt *visitTimer) error {
		_, err := q.Run(context.Background(), func(set []int) bool {
			t0 := vt.start()
			out = append(out, append([]int(nil), set...))
			vt.stop(t0)
			return true
		})
		return err
	})
	return marshalCount(out, err)
}

func (s *serve) refTruss(g *mule.Graph, eta float64) ([]byte, int64, error) {
	type edgeTrussJSON struct {
		U     int `json:"u"`
		V     int `json:"v"`
		Truss int `json:"truss"`
	}
	q, err := mule.NewTrussQuery(g, eta)
	if err != nil {
		return nil, 0, err
	}
	out := []edgeTrussJSON{}
	err = s.timedRun("utruss", func(vt *visitTimer) error {
		_, err := q.Run(context.Background(), func(e mule.EdgeTruss) bool {
			t0 := vt.start()
			out = append(out, edgeTrussJSON{e.U, e.V, e.Truss})
			vt.stop(t0)
			return true
		})
		return err
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return marshalCount(out, err)
}

func (s *serve) refCore(g *mule.Graph, eta float64) ([]byte, int64, error) {
	type vertexCoreJSON struct {
		V    int `json:"v"`
		Core int `json:"core"`
	}
	q, err := mule.NewCoreQuery(g, eta)
	if err != nil {
		return nil, 0, err
	}
	out := []vertexCoreJSON{}
	err = s.timedRun("ucore", func(vt *visitTimer) error {
		_, err := q.Run(context.Background(), func(vc mule.VertexCore) bool {
			t0 := vt.start()
			out = append(out, vertexCoreJSON{vc.V, vc.Core})
			vt.stop(t0)
			return true
		})
		return err
	})
	sort.Slice(out, func(i, j int) bool { return out[i].V < out[j].V })
	return marshalCount(out, err)
}

func (s *serve) refDensest(g *mule.Graph) ([]byte, int64, error) {
	type denseSubgraphJSON struct {
		Vertices []int   `json:"vertices"`
		Density  float64 `json:"density"`
		Prob     float64 `json:"prob"`
	}
	q, err := mule.NewDensestQuery(g)
	if err != nil {
		return nil, 0, err
	}
	out := []denseSubgraphJSON{}
	err = s.timedRun("udensest", func(vt *visitTimer) error {
		_, err := q.Run(context.Background(), func(c mule.DenseSubgraph) bool {
			t0 := vt.start()
			out = append(out, denseSubgraphJSON{append([]int(nil), c.Vertices...), c.ExpectedDensity, c.Probability})
			vt.stop(t0)
			return true
		})
		return err
	})
	return marshalCount(out, err)
}

func (s *serve) refCluster(g *mule.Graph, k int) ([]byte, int64, error) {
	type clusterJSON struct {
		Center  int     `json:"center"`
		Members []int   `json:"members"`
		Prob    float64 `json:"prob"`
	}
	q, err := mule.NewClusterQuery(g, mule.WithCenters(k))
	if err != nil {
		return nil, 0, err
	}
	out := []clusterJSON{}
	err = s.timedRun("ucluster", func(vt *visitTimer) error {
		_, err := q.Run(context.Background(), func(c mule.ClusterSet) bool {
			t0 := vt.start()
			out = append(out, clusterJSON{c.Center, append([]int(nil), c.Members...), c.Probability})
			vt.stop(t0)
			return true
		})
		return err
	})
	return marshalCount(out, err)
}

// report adds the per-class latencies and where each class percentile falls.
func (s *serve) report(r *runner, rep *report) {
	recs := r.records(0)
	rep.Classes = map[string]latSummary{}
	for class, tail := range classTails {
		keep := func(o *opRecord) bool { return o.class == class }
		sum := summarize(latencies(recs, keep), tail)
		rep.Classes[class] = sum
		rep.EndToEnd[class+"_p50_ms"] = sum.P50
		rep.EndToEnd[class+"_tail_ms"] = sum.Tail
		if sum.Beyond < minBeyond {
			rep.Notes = append(rep.Notes, fmt.Sprintf("%s_tail_ms: only %d samples beyond %s", class, sum.Beyond, sum.TailName))
		}
		rep.Placement = append(rep.Placement, placement(class, recs, keep, 0.5, float64(tail)/1000)...)
	}
}

// layers reports serve-mixed's per-layer metrics over the traced half.
func (s *serve) layers(r *runner, rep *report) {
	m := rep.PerLayer
	names := nameStats(r.tr.snapshot())
	loadStats(names, m)
	m["graphio.mb_per_s"] = ratio(float64(s.loadB)/1e6, s.loadTime.Seconds())
	m["graphio.alloc_b_per_edge"] = ratio(float64(s.loadA), float64(s.loadE))
	m["graphio.edges"] = float64(s.loadE)

	var a serveAcc
	a.work = map[string]int64{}
	a.ttfb, a.body = map[string][]float64{}, map[string][]float64{}
	var core runCounts
	for _, c := range s.acc {
		core.add(runCounts{core: c.core})
		a.cliqueEdges += c.cliqueEdges
		a.requests += c.requests
		a.respBytes += c.respBytes
		a.requeries += c.requeries
		a.requeryHits += c.requeryHits
		for k, v := range c.work {
			a.work[k] += v
		}
		for k, v := range c.ttfb {
			a.ttfb[k] = append(a.ttfb[k], v...)
			a.body[k] = append(a.body[k], c.body[k]...)
		}
	}
	coreCounts(core.core, m)
	m["uncertain.pruned_edges"] = float64(core.core.PrunedEdges)
	m["uncertain.pruned_share"] = ratio(float64(core.core.PrunedEdges), float64(a.cliqueEdges))
	static, _, live, _ := serveGraphs(s.e.seed)
	m["uncertain.prune_ms"] = (pruneMs(static, 0.001) + pruneMs(live, liveAlpha)) / 2
	m["core.run_ms"] = names.selfMs("core.run")
	m["core.alloc_b_per_call"] = ratio(float64(s.probe.alloc["core"]), float64(s.probe.coreCalls))
	for layer, count := range minerWork {
		m[count] = float64(a.work[layer])
		m[layer+".alloc_b_per_run"] = ratio(float64(s.probe.alloc[layer]), float64(s.probe.runs[layer]))
	}
	m["mule.visit_ms"] = ratio(names.get("mule.visit").total*1e3, float64(names.runs()))

	adm := s.srv.Executor().AdmissionStats()
	m["exec.admitted"] = float64(adm.Admitted - s.admAt.Admitted)
	m["exec.queued"] = float64(adm.Queued - s.admAt.Queued)
	m["exec.queued_share"] = ratio(m["exec.queued"], m["exec.admitted"])
	m["exec.rejected"] = float64(adm.Rejected - s.admAt.Rejected)
	for _, p := range adm.Peak {
		m["exec.peak_inflight"] = max(m["exec.peak_inflight"], float64(p))
	}

	st := s.stats()
	m["server.requests"] = float64(a.requests)
	m["server.resp_bytes"] = ratio(float64(a.respBytes), float64(a.requests))
	hits, misses := st.Cache.Hits-s.statsAt.Cache.Hits, st.Cache.Misses-s.statsAt.Cache.Misses
	m["server.lookups"] = float64(hits + misses)
	m["server.hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	m["server.evictions"] = float64(st.Cache.Evictions - s.statsAt.Cache.Evictions)
	m["server.cache_bytes"] = float64(st.Cache.Bytes)
	m["server.warm_completed"] = float64(st.Warm.Completed - s.statsAt.Warm.Completed)
	m["server.warm_skipped"] = float64(st.Warm.Skipped - s.statsAt.Warm.Skipped)
	m["server.requeries"] = float64(a.requeries)
	m["server.requery_hit_share"] = ratio(float64(a.requeryHits), float64(a.requeries))

	m["dynamic.updates"] = float64(s.probe.updates)
	m["dynamic.search_calls_per_update"] = ratio(float64(s.probe.search), float64(s.probe.updates))
	m["dynamic.cliques_changed_per_update"] = ratio(float64(s.probe.changed), float64(s.probe.updates))

	x := rep.Extra
	for _, class := range []string{"hit", "miss", "requery"} {
		x["server."+class+"_ttfb_ms"] = median(a.ttfb[class])
		x["server."+class+"_body_ms"] = median(a.body[class])
	}
	x["dynamic.apply_ms"] = median(s.probe.applyMs)
	x["dynamic.snapshot_ms"] = median(s.probe.snapshotMs)
	minerTimes(names, x)
}
