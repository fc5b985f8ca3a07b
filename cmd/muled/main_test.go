package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	mule "github.com/uncertain-graphs/mule"
	"github.com/uncertain-graphs/mule/internal/graphio"
)

// writeTestGraph writes a small graph file: a triangle {0,1,2} plus the
// edge {3,4}.
func writeTestGraph(t *testing.T) string {
	t.Helper()
	g, err := mule.FromEdges(5, []mule.Edge{
		{U: 0, V: 1, P: 0.9}, {U: 0, V: 2, P: 0.9}, {U: 1, V: 2, P: 0.9},
		{U: 3, V: 4, P: 0.9},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := graphio.WriteText(&buf, g); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "seed.ug")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// startMuled runs the daemon on an ephemeral port and returns its base URL.
// The listener address is recovered from the startup line, exactly as a
// supervising script would.
func startMuled(t *testing.T, extraArgs ...string) (baseURL string, shutdown func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	pr, pw := io.Pipe()
	errc := make(chan error, 1)
	args := append([]string{"-addr", "127.0.0.1:0"}, extraArgs...)
	go func() {
		err := run(ctx, args, pw)
		pw.Close()
		errc <- err
	}()

	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "muled listening on "); ok {
				addrc <- rest
			}
		}
	}()
	select {
	case addr := <-addrc:
		baseURL = "http://" + addr
	case err := <-errc:
		cancel()
		t.Fatalf("muled exited before listening: %v", err)
	case <-time.After(10 * time.Second):
		cancel()
		t.Fatal("muled never announced its listener")
	}
	return baseURL, func() error {
		cancel()
		select {
		case err := <-errc:
			return err
		case <-time.After(15 * time.Second):
			return fmt.Errorf("muled did not shut down")
		}
	}
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func post(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// TestMuledIntegration exercises the daemon end to end over real TCP: boot
// with a preloaded graph, health-check, run one query per miner family,
// replay one query to see the cache serve it, apply an update batch, and
// confirm the epoch bump invalidated the cache and changed the answer —
// then shut down cleanly via context cancellation (the SIGINT path).
func TestMuledIntegration(t *testing.T) {
	seed := writeTestGraph(t)
	// -warm -1: post-apply warming would legitimately re-cache the replayed
	// query at the new epoch, racing the cache-invalidation assertion below.
	// The warming path has its own test in internal/server.
	base, shutdown := startMuled(t, "-load", "seed="+seed, "-warm", "-1")

	if code, body := get(t, base+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz: %d %s", code, body)
	}

	// One query per miner family against the preloaded graph.
	for _, q := range []string{
		"miner=cliques&alpha=0.5",
		"miner=quasi&gamma=0.6&minsize=2",
		"miner=truss&eta=0.5",
		"miner=core&eta=0.5",
	} {
		code, body := get(t, base+"/graphs/seed/query?"+q)
		if code != http.StatusOK {
			t.Fatalf("query %s: %d %s", q, code, body)
		}
	}
	// Bicliques over a graph loaded via POST body (bipartite kind).
	code, body := post(t, base+"/graphs/bip?kind=bipartite", "bipartite 2 2\n0 0 0.9\n0 1 0.9\n1 0 0.9\n1 1 0.9\n")
	if code != http.StatusOK {
		t.Fatalf("load bipartite: %d %s", code, body)
	}
	if code, body = get(t, base+"/graphs/bip/query?miner=bicliques&alpha=0.5"); code != http.StatusOK {
		t.Fatalf("bicliques query: %d %s", code, body)
	}

	// Cache: the repeat clique query must be served from cache.
	var first, second struct {
		Cached  bool            `json:"cached"`
		Epoch   uint64          `json:"epoch"`
		Count   int64           `json:"count"`
		Results json.RawMessage `json:"results"`
	}
	queryURL := base + "/graphs/seed/query?miner=cliques&alpha=0.5"
	_, body = get(t, queryURL)
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	_, body = get(t, queryURL)
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached || !bytes.Equal(first.Results, second.Results) {
		t.Fatalf("repeat query not cache-served: %s", body)
	}

	// Apply a batch; the epoch bump must invalidate the cache and the next
	// answer must reflect the new edge.
	code, body = post(t, base+"/graphs/seed/apply", `{"updates":[{"u":2,"v":3,"p":0.9}]}`)
	if code != http.StatusOK {
		t.Fatalf("apply: %d %s", code, body)
	}
	var applied struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(body, &applied); err != nil {
		t.Fatal(err)
	}
	if applied.Epoch <= first.Epoch {
		t.Fatalf("apply epoch %d not past %d", applied.Epoch, first.Epoch)
	}
	var third struct {
		Cached bool   `json:"cached"`
		Epoch  uint64 `json:"epoch"`
		Count  int64  `json:"count"`
	}
	_, body = get(t, queryURL)
	if err := json.Unmarshal(body, &third); err != nil {
		t.Fatal(err)
	}
	if third.Cached || third.Epoch != applied.Epoch || third.Count != first.Count+1 {
		t.Fatalf("post-apply query: %+v (want epoch %d, count %d)", third, applied.Epoch, first.Count+1)
	}

	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestMuledClosesSlowHeaders sends a request line and never the rest of
// the headers: the daemon must close the connection once readHeaderTimeout
// passes instead of holding it open.
func TestMuledClosesSlowHeaders(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out the header timeout")
	}
	base, shutdown := startMuled(t)
	defer func() {
		if err := shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\n"); err != nil {
		t.Fatal(err)
	}
	const slack = 5 * time.Second
	if err := conn.SetReadDeadline(start.Add(readHeaderTimeout + slack)); err != nil {
		t.Fatal(err)
	}
	// Reading ends at the close (EOF, or a reset); only the deadline means
	// the daemon kept the connection.
	_, err = io.ReadAll(conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("connection still open %v after a half-sent request", time.Since(start))
	}
	if elapsed := time.Since(start); elapsed < readHeaderTimeout/2 {
		t.Fatalf("connection closed after %v, before the header timeout (%v)", elapsed, readHeaderTimeout)
	}
}

// TestMuledBadFlags pins the CLI validation surface.
func TestMuledBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-load", "nopath"},
		{"-load", "name="},
		{"-load", "=path"},
		{"-load", "g=/definitely/not/a/file.ug"},
		{"unexpected-positional"},
		{"-addr", "999.999.999.999:1"},
		{"-cache", "64XB"},
		{"-cache", "-5MB"},
		{"-cache", "MB"},
	} {
		var out bytes.Buffer
		if err := run(context.Background(), args, &out); err == nil {
			t.Errorf("args %v: expected error", args)
		}
	}
}

// TestParseCacheFlag pins the dual entry-count / byte-size grammar.
func TestParseCacheFlag(t *testing.T) {
	cases := []struct {
		in      string
		entries int
		bytes   int64
		wantErr bool
	}{
		{in: "", entries: 0, bytes: 0},    // both defaults
		{in: "1024", entries: 1024},       // entry count
		{in: "-1", entries: -1},           // disabled
		{in: "0", entries: -1},            // disabled too
		{in: "64MB", bytes: 64_000_000},   // decimal bytes
		{in: "64MiB", bytes: 64 << 20},    // binary bytes
		{in: "1GiB", bytes: 1 << 30},      // case-insensitive suffix
		{in: "2gb", bytes: 2_000_000_000}, //
		{in: "512KiB", bytes: 512 << 10},  //
		{in: "1.5MiB", bytes: 3 << 19},    // fractional sizes allowed
		{in: "100b", bytes: 100},          // plain bytes
		{in: "64XB", wantErr: true},       // unknown suffix
		{in: "-5MB", wantErr: true},       // negative size
		{in: "MB", wantErr: true},         // no number
		{in: "deadbeef", wantErr: true},   //
		{in: "nanMB", wantErr: true},      // no int64 value
		{in: "infGB", wantErr: true},      //
		{in: "+InfKiB", wantErr: true},    //
		{in: "1e30GB", wantErr: true},     // above 2^63 bytes
		{in: "0.4b", wantErr: true},       // truncates to 0 (the default)
		{in: "1e-9k", wantErr: true},      //
	}
	for _, tc := range cases {
		entries, bytes, err := parseCacheFlag(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("%q: expected error, got entries=%d bytes=%d", tc.in, entries, bytes)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", tc.in, err)
			continue
		}
		if entries != tc.entries || bytes != tc.bytes {
			t.Errorf("%q: got entries=%d bytes=%d, want %d/%d", tc.in, entries, bytes, tc.entries, tc.bytes)
		}
	}
}
