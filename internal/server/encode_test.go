package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"testing"

	mule "github.com/uncertain-graphs/mule"
	"github.com/uncertain-graphs/mule/internal/gen"
)

// The oracle: a query response as encoding/json writes it. The answer is
// collected into the tagged wire structs, marshalled by json.Marshal, and
// the whole response written by json.Encoder; muled's responses must match
// it byte for byte.

// queryResponse is the wire shape of a query result.
type queryResponse struct {
	Graph     string          `json:"graph"`
	Epoch     uint64          `json:"epoch"`
	Miner     string          `json:"miner"`
	Cached    bool            `json:"cached"`
	Truncated bool            `json:"truncated"`
	Status    string          `json:"status"`
	Count     int64           `json:"count"`
	Results   json.RawMessage `json:"results"`
	Stats     json.RawMessage `json:"stats,omitempty"`
}

// cliqueJSON & friends are the wire shapes of the seven result families.
type cliqueJSON struct {
	Vertices []int   `json:"vertices"`
	Prob     float64 `json:"prob"`
}

type bicliqueJSON struct {
	Left  []int   `json:"left"`
	Right []int   `json:"right"`
	Prob  float64 `json:"prob"`
}

type edgeTrussJSON struct {
	U     int `json:"u"`
	V     int `json:"v"`
	Truss int `json:"truss"`
}

type vertexCoreJSON struct {
	V    int `json:"v"`
	Core int `json:"core"`
}

type denseSubgraphJSON struct {
	Vertices []int   `json:"vertices"`
	Density  float64 `json:"density"`
	Prob     float64 `json:"prob"`
}

type clusterJSON struct {
	Center  int     `json:"center"`
	Members []int   `json:"members"`
	Prob    float64 `json:"prob"`
}

// oracleRun answers p on snap for encoding/json: the results collected
// into the tagged wire structs, in canonical order, for json.Marshal.
func oracleRun(t testing.TB, snap *Snapshot, ex *mule.Executor, p *qparams) (results any, count int64, status mule.RunStatus, stats any, err error) {
	t.Helper()
	ctx := context.Background()
	opts := p.commonOptions(ex, nil)
	switch p.miner {
	case "cliques":
		if p.minSize > 0 {
			opts = append(opts, mule.WithMinSize(p.minSize))
		}
		q, qerr := mule.NewQuery(snap.Graph, p.alpha, opts...)
		if qerr != nil {
			t.Fatal(qerr)
		}
		out := []cliqueJSON{}
		st, err := q.Run(ctx, func(c []int, prob float64) bool {
			out = append(out, cliqueJSON{Vertices: append([]int(nil), c...), Prob: prob})
			return true
		})
		sort.Slice(out, func(i, j int) bool { return lexLess(out[i].Vertices, out[j].Vertices) })
		return out, int64(len(out)), st.Status, st, err
	case "bicliques":
		if p.minL > 1 || p.minR > 1 {
			opts = append(opts, mule.WithSides(p.minL, p.minR))
		}
		q, qerr := mule.NewBicliqueQuery(snap.Bipartite, p.alpha, opts...)
		if qerr != nil {
			t.Fatal(qerr)
		}
		out := []bicliqueJSON{}
		st, err := q.Run(ctx, func(l, r []int, prob float64) bool {
			out = append(out, bicliqueJSON{Left: append([]int(nil), l...), Right: append([]int(nil), r...), Prob: prob})
			return true
		})
		sort.Slice(out, func(i, j int) bool {
			if !slicesEqual(out[i].Left, out[j].Left) {
				return lexLess(out[i].Left, out[j].Left)
			}
			return lexLess(out[i].Right, out[j].Right)
		})
		return out, int64(len(out)), st.Status, st, err
	case "quasi":
		opts = append(opts, mule.WithGamma(p.gamma))
		if p.minSize > 0 {
			opts = append(opts, mule.WithMinSize(p.minSize))
		}
		if p.maxSize > 0 {
			opts = append(opts, mule.WithMaxSize(p.maxSize))
		}
		q, qerr := mule.NewQuasiQuery(snap.Graph, opts...)
		if qerr != nil {
			t.Fatal(qerr)
		}
		out := [][]int{}
		st, err := q.Run(ctx, func(s []int) bool {
			out = append(out, append([]int(nil), s...))
			return true
		})
		return out, int64(len(out)), st.Status, st, err
	case "truss":
		q, qerr := mule.NewTrussQuery(snap.Graph, p.eta, opts...)
		if qerr != nil {
			t.Fatal(qerr)
		}
		out := []edgeTrussJSON{}
		st, err := q.Run(ctx, func(e mule.EdgeTruss) bool {
			out = append(out, edgeTrussJSON{U: e.U, V: e.V, Truss: e.Truss})
			return true
		})
		sort.Slice(out, func(i, j int) bool {
			if out[i].U != out[j].U {
				return out[i].U < out[j].U
			}
			return out[i].V < out[j].V
		})
		return out, int64(len(out)), st.Status, st, err
	case "core":
		q, qerr := mule.NewCoreQuery(snap.Graph, p.eta, opts...)
		if qerr != nil {
			t.Fatal(qerr)
		}
		out := []vertexCoreJSON{}
		st, err := q.Run(ctx, func(vc mule.VertexCore) bool {
			out = append(out, vertexCoreJSON{V: vc.V, Core: vc.Core})
			return true
		})
		sort.Slice(out, func(i, j int) bool { return out[i].V < out[j].V })
		return out, int64(len(out)), st.Status, st, err
	case "densest":
		q, qerr := mule.NewDensestQuery(snap.Graph, opts...)
		if qerr != nil {
			t.Fatal(qerr)
		}
		out := []denseSubgraphJSON{}
		st, err := q.Run(ctx, func(c mule.DenseSubgraph) bool {
			out = append(out, denseSubgraphJSON{Vertices: append([]int(nil), c.Vertices...), Density: c.ExpectedDensity, Prob: c.Probability})
			return true
		})
		return out, int64(len(out)), st.Status, st, err
	case "cluster":
		opts = append(opts, mule.WithCenters(p.centers))
		q, qerr := mule.NewClusterQuery(snap.Graph, opts...)
		if qerr != nil {
			t.Fatal(qerr)
		}
		out := []clusterJSON{}
		st, err := q.Run(ctx, func(c mule.ClusterSet) bool {
			out = append(out, clusterJSON{Center: c.Center, Members: append([]int(nil), c.Members...), Prob: c.Probability})
			return true
		})
		return out, int64(len(out)), st.Status, st, err
	}
	t.Fatalf("unknown miner %q", p.miner)
	return nil, 0, 0, nil, nil
}

// oracleBody is the response the server must write for the query string
// query against graph, served from the cache or not.
func oracleBody(t testing.TB, s *Server, graph, query string, cached bool) []byte {
	t.Helper()
	values, err := url.ParseQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	p, err := parseQueryParams(values)
	if err != nil {
		t.Fatal(err)
	}
	snap := s.reg.get(graph).snapshot()
	out, count, status, stats, runErr := oracleRun(t, snap, s.ex, p)
	if runErr != nil && !errors.Is(runErr, mule.ErrBudget) {
		t.Fatalf("oracle run of %s: %v", query, runErr)
	}
	results, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	statsJSON, _ := json.Marshal(stats)
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(queryResponse{
		Graph: graph, Epoch: snap.Epoch, Miner: p.miner, Cached: cached,
		Truncated: runErr != nil || status == mule.StatusStopped,
		Status:    status.String(),
		Count:     count,
		Results:   results,
		Stats:     statsJSON,
	}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// getQuery issues one query and checks its framing: a 200 response whose
// length is announced and matches its body, never chunked.
func getQuery(t testing.TB, base, graph, query string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/graphs/" + url.PathEscape(graph) + "/query?" + query)
	if err != nil {
		t.Error(err)
		return nil
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Error(err)
		return nil
	}
	if resp.StatusCode != http.StatusOK {
		t.Errorf("%s %s: %d %s", graph, query, resp.StatusCode, body)
		return nil
	}
	if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
		t.Errorf("%s %s: Content-Length %d, Transfer-Encoding %v for a %d-byte body",
			graph, query, resp.ContentLength, resp.TransferEncoding, len(body))
	}
	return body
}

// oracleGraphs loads the test graphs: a BA graph big enough that most
// answers on it span several network writes, a small graph for quasi, one
// whose clique probabilities are tiny, a random bipartite graph, and the BA
// graph again under names that encoding/json escapes (HTML characters,
// U+2028, an invalid UTF-8 byte).
func oracleGraphs(t testing.TB, s *Server) {
	t.Helper()
	ba := gen.BA(300, 7)
	small, err := mule.FromEdges(6, []mule.Edge{
		{U: 0, V: 1, P: 0.9}, {U: 0, V: 2, P: 0.9}, {U: 1, V: 2, P: 0.9},
		{U: 3, V: 4, P: 0.9},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Cliques below 1e-6, which encoding/json writes in 'e' notation.
	faint, err := mule.FromEdges(5, []mule.Edge{
		{U: 0, V: 1, P: 0.001}, {U: 0, V: 2, P: 0.003}, {U: 1, V: 2, P: 0.0007},
		{U: 3, V: 4, P: 0.9},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var bedges []mule.BipartiteEdge
	for l := 0; l < 12; l++ {
		for r := 0; r < 12; r++ {
			if rng.Intn(2) == 0 {
				bedges = append(bedges, mule.BipartiteEdge{L: l, R: r, P: 0.5 + rng.Float64()/2})
			}
		}
	}
	bip, err := mule.BipartiteFromEdges(12, 12, bedges)
	if err != nil {
		t.Fatal(err)
	}
	for name, snap := range map[string]*Snapshot{
		"g": {Graph: ba}, "small": {Graph: small}, "faint": {Graph: faint}, "b": {Bipartite: bip},
		"a<b>&c\u2028": {Graph: ba}, "bad\xffname": {Graph: ba},
	} {
		if err := s.Install(name, snap); err != nil {
			t.Fatal(err)
		}
	}
}

// TestQueryBodiesMatchEncoder pins the response bytes to the oracle for a
// miss and then a hit of every miner, an empty answer, a limit-truncated
// and a budget-truncated answer, and graph names encoding/json escapes.
func TestQueryBodiesMatchEncoder(t *testing.T) {
	s, ts := newTestServer(t)
	oracleGraphs(t, s)
	for _, tc := range []struct {
		graph, query string
		cacheable    bool
	}{
		{"g", "miner=cliques&alpha=0.01", true},
		{"b", "miner=bicliques&alpha=0.05&minl=2&minr=2", true},
		{"small", "miner=quasi&gamma=0.6&minsize=2", true},
		{"g", "miner=truss&eta=0.3", true},
		{"g", "miner=core&eta=0.3", true},
		{"g", "miner=densest", true},
		{"g", "miner=cluster&centers=8", true},
		{"faint", "miner=cliques&alpha=1e-12", true},
		{"g", "miner=cliques&alpha=0.01&minsize=50", true}, // empty
		{"g", "miner=cliques&alpha=0.01&limit=5", true},
		{"g", "miner=cliques&alpha=0.02&budget=40", false}, // not cached
		{"a<b>&c\u2028", "miner=cliques&alpha=0.01", true},
		{"bad\xffname", "miner=truss&eta=0.3", true},
	} {
		for _, cached := range []bool{false, true} {
			got := getQuery(t, ts.URL, tc.graph, tc.query)
			want := oracleBody(t, s, tc.graph, tc.query, cached && tc.cacheable)
			if !bytes.Equal(got, want) {
				t.Fatalf("%q %s (cached %v): body differs from encoding/json's\ngot:  %.300s\nwant: %.300s",
					tc.graph, tc.query, cached, got, want)
			}
		}
	}
}

// FuzzAppendMatchesJSON checks every append encoder against json.Marshal
// of the tagged wire structs, on floats from raw bits (with NaN and the
// infinities failing alike), nil and empty slices, and any int.
func FuzzAppendMatchesJSON(f *testing.F) {
	seeds := []float64{
		0, math.Copysign(0, -1), 1, -2, 0.5, 0.1, 1e20, 123456789, 1e-7, -3.5e-9,
		math.SmallestNonzeroFloat64, 0x1p-1022 - math.SmallestNonzeroFloat64, // subnormals
		1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1),
		1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)),
		math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
	}
	ids := binary.LittleEndian.AppendUint64(nil, math.MaxUint64>>1)
	ids = binary.LittleEndian.AppendUint64(ids, 1<<63)
	for i, x := range seeds {
		f.Add(math.Float64bits(x), math.Float64bits(seeds[(i+1)%len(seeds)]), ids, byte(i))
	}
	f.Add(uint64(0), uint64(0), []byte(nil), byte(0))
	f.Add(uint64(0), uint64(0), []byte(nil), byte(7))
	f.Fuzz(func(t *testing.T, bits1, bits2 uint64, raw []byte, shape byte) {
		x, y := math.Float64frombits(bits1), math.Float64frombits(bits2)
		// Three int slices from raw, 8 bytes an int; shape's low bits make
		// an empty one nil.
		var ints [3][]int
		for i := range ints {
			if shape&(1<<i) == 0 {
				ints[i] = []int{}
			}
		}
		for i := 0; len(raw) >= 8; i++ {
			ints[i%3] = append(ints[i%3], int(binary.LittleEndian.Uint64(raw)))
			raw = raw[8:]
		}
		a, b, c := ints[0], ints[1], ints[2]
		n := func(i int) int {
			if len(a) > i {
				return a[i]
			}
			return i
		}
		check := func(name string, got []byte, gotErr error, want any) {
			t.Helper()
			wantB, wantErr := json.Marshal(want)
			switch {
			case (gotErr == nil) != (wantErr == nil):
				t.Fatalf("%s: error %v, json.Marshal's %v", name, gotErr, wantErr)
			case gotErr != nil && gotErr.Error() != wantErr.Error():
				t.Fatalf("%s: error %q, json.Marshal's %q", name, gotErr, wantErr)
			case gotErr == nil && !bytes.Equal(got, wantB):
				t.Fatalf("%s:\ngot  %s\nwant %s", name, got, wantB)
			}
		}
		fb, err := appendFloat(nil, x)
		check("float", fb, err, x)

		// shape bit 3 makes the cliques answer nil, bit 4 empty.
		cl, clJ := []clique{{a, x}, {b, y}}, []cliqueJSON{{a, x}, {b, y}}
		if shape&8 != 0 {
			cl, clJ = nil, nil
		} else if shape&16 != 0 {
			cl, clJ = cl[:0], clJ[:0]
		}
		got, err := encodeList(cl, appendClique)
		check("cliques", got, err, clJ)

		bc, bcJ := []biclique{{a, b, x}, {c, nil, y}}, []bicliqueJSON{{a, b, x}, {c, nil, y}}
		got, err = encodeList(bc, appendBiclique)
		check("bicliques", got, err, bcJ)

		qs := [][]int{a, b, c}
		if shape&8 != 0 {
			qs = nil
		}
		got, err = encodeList(qs, appendVertexSet)
		check("quasi", got, err, qs)

		tr := []mule.EdgeTruss{{U: n(0), V: n(1), Truss: n(2)}, {U: n(3), V: -n(4), Truss: 2}}
		trJ := []edgeTrussJSON{{n(0), n(1), n(2)}, {n(3), -n(4), 2}}
		got, err = encodeList(tr, appendEdgeTruss)
		check("truss", got, err, trJ)

		co, coJ := []mule.VertexCore{{V: n(5), Core: n(6)}}, []vertexCoreJSON{{n(5), n(6)}}
		got, err = encodeList(co, appendVertexCore)
		check("core", got, err, coJ)

		de := []mule.DenseSubgraph{{Vertices: a, ExpectedDensity: x, Probability: y}, {Vertices: c, ExpectedDensity: y, Probability: x}}
		deJ := []denseSubgraphJSON{{a, x, y}, {c, y, x}}
		got, err = encodeList(de, appendDenseSubgraph)
		check("densest", got, err, deJ)

		cs := []mule.ClusterSet{{Center: n(7), Members: b, Probability: y}}
		csJ := []clusterJSON{{n(7), b, y}}
		got, err = encodeList(cs, appendCluster)
		check("cluster", got, err, csJ)
	})
}

// TestConcurrentHitsShareStoredBytes hammers one cached answer from eight
// goroutines while two more miss on distinct keys under a byte bound that
// holds only a few answers, so encodes and evictions run alongside the
// hits. Every hit must write the same bytes, and so must every miss of the
// hot key (it is re-encoded when evicted): a stored answer is never
// rewritten once the cache holds it.
func TestConcurrentHitsShareStoredBytes(t *testing.T) {
	s, ts := newTestServerCfg(t, Config{Workers: 2, CacheBytes: 256 << 10, WarmKeys: -1})
	oracleGraphs(t, s)
	const hot = "miner=truss&eta=0.3"
	first := getQuery(t, ts.URL, "g", hot)
	firstHit := getQuery(t, ts.URL, "g", hot)
	if want := oracleBody(t, s, "g", hot, true); !bytes.Equal(firstHit, want) {
		t.Fatalf("first hit differs from the oracle:\ngot:  %.300s\nwant: %.300s", firstHit, want)
	}

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				body := getQuery(t, ts.URL, "g", hot)
				if body != nil && !bytes.Equal(body, firstHit) && !bytes.Equal(body, first) {
					t.Errorf("hot key response differs from the first:\n%.300s", body)
					return
				}
			}
		}()
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				eta := strconv.FormatFloat(0.05+0.01*float64(10*i+j), 'g', -1, 64)
				getQuery(t, ts.URL, "g", "miner=core&eta="+eta)
				getQuery(t, ts.URL, "g", "miner=cliques&alpha="+eta)
			}
		}()
	}
	wg.Wait()
	st := s.cache.stats()
	t.Logf("cache %+v", st)
	if st.Evictions == 0 || st.Hits < 100 {
		t.Fatalf("cache %+v: want evictions and the hot key's hits", st)
	}
}

// BenchmarkQueryHit serves the BA1600 truss answer (η 0.3, ~440 KB) from
// the cache, the commonest request in a mixed serving load.
func BenchmarkQueryHit(b *testing.B) {
	s := New(Config{Workers: 1, WarmKeys: -1})
	defer s.Close()
	if err := s.Install("static", &Snapshot{Graph: gen.BA(1600, 1)}); err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	req := httptest.NewRequest(http.MethodGet, "/graphs/static/query?miner=truss&eta=0.3", nil)
	miss := httptest.NewRecorder()
	h.ServeHTTP(miss, req)
	if miss.Code != http.StatusOK {
		b.Fatalf("miss: %d %s", miss.Code, miss.Body)
	}
	b.SetBytes(int64(miss.Body.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("hit: %d", rec.Code)
		}
	}
}
