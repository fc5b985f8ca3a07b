package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"sync"
	"testing"

	mule "github.com/uncertain-graphs/mule"
)

// canonicalValues re-encodes parsed params in the canonical spelling. If the
// canonicalization is sound, reparsing this must reproduce the same cache
// key — that is what makes the cache unable to alias two different questions
// or split one question across two keys.
func canonicalValues(p *qparams) url.Values {
	ff := func(f float64) string { return strconv.FormatFloat(f, 'g', 17, 64) }
	v := url.Values{"miner": {p.kind.Name}}
	switch p.kind.Name {
	case "cliques":
		v.Set("alpha", ff(p.Alpha))
		v.Set("minsize", strconv.Itoa(p.MinSize))
		v.Set("workers", strconv.Itoa(p.Workers))
	case "bicliques":
		v.Set("alpha", ff(p.Alpha))
		v.Set("minl", strconv.Itoa(p.MinL))
		v.Set("minr", strconv.Itoa(p.MinR))
	case "quasi":
		v.Set("gamma", ff(p.Gamma))
		v.Set("minsize", strconv.Itoa(p.MinSize))
		v.Set("maxsize", strconv.Itoa(p.MaxSize))
	case "truss", "core":
		v.Set("eta", ff(p.Eta))
	case "cluster":
		v.Set("centers", strconv.Itoa(p.Centers))
	}
	v.Set("limit", strconv.FormatInt(p.limit, 10))
	v.Set("budget", strconv.FormatInt(p.budget, 10))
	if p.timeout > 0 {
		v.Set("timeout", p.timeout.String())
	}
	if p.tenant != "" {
		v.Set("tenant", p.tenant)
	}
	if p.nocache {
		v.Set("nocache", "true")
	}
	if p.shardsAuto {
		v.Set("shards", "auto")
	} else if p.shards > 0 {
		v.Set("shards", strconv.Itoa(p.shards))
	}
	return v
}

// fuzzServer is one tiny in-process server shared by every fuzz execution:
// graph "g" (a triangle) and bipartite "b", so arbitrary query strings can
// be driven through the real handler.
var fuzzServer = sync.OnceValue(func() *Server {
	s := New(Config{Workers: 1, CacheEntries: 16})
	g, err := mule.FromEdges(3, []mule.Edge{
		{U: 0, V: 1, P: 0.9}, {U: 0, V: 2, P: 0.9}, {U: 1, V: 2, P: 0.9},
	})
	if err != nil {
		panic(err)
	}
	if err := s.Install("g", &Snapshot{Graph: g}); err != nil {
		panic(err)
	}
	b, err := mule.BipartiteFromEdges(2, 2, []mule.BipartiteEdge{
		{L: 0, R: 0, P: 0.9}, {L: 0, R: 1, P: 0.9}, {L: 1, R: 0, P: 0.9},
	})
	if err != nil {
		panic(err)
	}
	if err := s.Install("b", &Snapshot{Bipartite: b}); err != nil {
		panic(err)
	}
	return s
})

// FuzzQueryParams drives arbitrary query strings through parsing,
// canonicalization, and the live query handler. Invariants: parsing never
// panics; an accepted request's canonical re-encoding parses back to the
// identical cache key; and the server answers every spelling with a
// client-side status — 400 for the malformed ones, never a 500.
func FuzzQueryParams(f *testing.F) {
	f.Add("miner=cliques&alpha=0.5")
	f.Add("miner=cliques&alpha=5e-1&minsize=2&workers=4&limit=10")
	f.Add("miner=bicliques&alpha=0.25&minl=2&minr=3")
	f.Add("miner=quasi&gamma=0.6&minsize=3&maxsize=0")
	f.Add("miner=truss&eta=0.9&budget=100")
	f.Add("miner=core&eta=1&timeout=5ms&tenant=acme&nocache=true")
	f.Add("miner=cliques&alpha=0.5&alpha=0.5")
	f.Add("miner=cliques&alpha=NaN")
	f.Add("miner=wat&eta=bad&%%%")
	f.Add("alpha=0.5")
	f.Add("miner=cluster&centers=1")
	f.Add("miner=cliques&alpha=0.5&shards=2&limit=1")
	f.Add("miner=densest")

	f.Fuzz(func(t *testing.T, raw string) {
		v, err := url.ParseQuery(raw)
		if err != nil {
			return
		}
		p, perr := parseQueryParams(v)
		if perr == nil {
			key := p.cacheKey("g", 7)
			p2, err := parseQueryParams(canonicalValues(p))
			if err != nil {
				t.Fatalf("canonical form of %q rejected: %v", raw, err)
			}
			if key2 := p2.cacheKey("g", 7); key != key2 {
				t.Fatalf("cache key not stable under canonicalization:\n%q\n%q", key, key2)
			}
		}

		for _, graph := range []string{"g", "b"} {
			req := httptest.NewRequest("GET", "/graphs/"+graph+"/query", nil)
			req.URL.RawQuery = raw
			rec := httptest.NewRecorder()
			fuzzServer().Handler().ServeHTTP(rec, req)
			if rec.Code == http.StatusInternalServerError {
				t.Fatalf("query %q on %q returned 500: %s", raw, graph, rec.Body.Bytes())
			}
			if perr != nil && rec.Code != http.StatusBadRequest {
				t.Fatalf("unparsable query %q on %q: got %d, want 400 (%s)", raw, graph, rec.Code, rec.Body.Bytes())
			}
			if rec.Code == http.StatusOK && !bytes.Contains(rec.Body.Bytes(), []byte(`"results"`)) {
				t.Fatalf("200 without results array: %s", rec.Body.Bytes())
			}
		}
	})
}
