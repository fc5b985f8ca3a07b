// Command muled serves uncertain-graph mining queries over HTTP.
//
// Where the mule command is one-shot — load a graph, run one query, exit —
// muled is resident: it holds named graphs in memory as immutable,
// epoch-stamped snapshots, answers all seven query families (cliques,
// bicliques, quasi-cliques, truss, core, densest, cluster) concurrently on a
// shared
// work-stealing executor with per-tenant admission control, ingests edge
// updates incrementally (copy-on-write snapshot swap; in-flight queries are
// never disturbed), and memoizes finished answers in an epoch-keyed LRU so
// repeat queries cost a map lookup.
//
// Usage:
//
//	muled -addr :7687                                # empty server; load over HTTP
//	muled -addr :7687 -load prot=graph.ug            # preload graph.ug as "prot"
//	muled -workers 8 -cache 1024 -load a=x.ug -load b=y.ubg
//
// Quickstart against a running server:
//
//	curl -X POST --data-binary @graph.ug localhost:7687/graphs/prot
//	curl 'localhost:7687/graphs/prot/query?miner=cliques&alpha=0.5'
//	curl -X POST -d '{"updates":[{"u":0,"v":9,"p":0.9}]}' localhost:7687/graphs/prot/apply
//	curl localhost:7687/stats
//
// The CLI's exit-code conventions map onto HTTP statuses: truncation
// (limit/budget) is 200 with "truncated": true, deadline is 504, admission
// rejection is 429 with Retry-After, contained panic or stall is 500 with
// the run status, and validation errors are 400. SIGINT/SIGTERM drain
// in-flight requests, then close the executor (failing queued admissions
// rather than leaving them hung) and exit 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/uncertain-graphs/mule/internal/graphio"
	"github.com/uncertain-graphs/mule/internal/server"
)

// shutdownGrace bounds how long a draining server waits for in-flight
// requests before closing their connections.
const shutdownGrace = 10 * time.Second

// readHeaderTimeout bounds how long a connection may take to send a
// request's headers, so a client that never finishes them cannot hold a
// connection and its goroutine forever. idleTimeout bounds how long a
// keep-alive connection may wait for its next request.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "muled:", err)
		os.Exit(1)
	}
}

// loadFlags collects repeated -load name=path flags.
type loadFlags []string

func (l *loadFlags) String() string     { return strings.Join(*l, ",") }
func (l *loadFlags) Set(v string) error { *l = append(*l, v); return nil }

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("muled", flag.ContinueOnError)
	var loads loadFlags
	var (
		addr    = fs.String("addr", ":7687", "listen address")
		workers = fs.Int("workers", 0, "executor workers (0 = GOMAXPROCS)")
		cache   = fs.String("cache", "", "result cache bound: an entry count (\"1024\"; 0 or negative = disabled) or a byte size (\"64MB\", \"1GiB\")")
		maxBody = fs.Int64("max-body", 0, "request body cap in bytes (0 = default 1 GiB)")
		warm    = fs.Int("warm", 0, "cached query shapes re-issued after each apply to pre-warm the new epoch (0 = default 4, negative = disabled)")
	)
	fs.Var(&loads, "load", "preload a graph as name=path (repeatable; .ubg paths load as bipartite)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}

	cacheEntries, cacheBytes, err := parseCacheFlag(*cache)
	if err != nil {
		return fmt.Errorf("-cache %q: %w", *cache, err)
	}

	srv := server.New(server.Config{Workers: *workers, CacheEntries: cacheEntries, CacheBytes: cacheBytes, MaxBodyBytes: *maxBody, WarmKeys: *warm})
	defer srv.Close()

	for _, spec := range loads {
		name, path, ok := strings.Cut(spec, "=")
		if !ok || name == "" || path == "" {
			return fmt.Errorf("-load %q: want name=path", spec)
		}
		if err := preload(srv, name, path); err != nil {
			return fmt.Errorf("-load %s: %w", spec, err)
		}
		fmt.Fprintf(out, "muled loaded graph %q from %s\n", name, path)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	fmt.Fprintf(out, "muled listening on %s\n", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Drain: stop accepting, let in-flight requests finish (bounded), then
	// release the executor so queued admissions fail instead of hanging.
	sctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := httpSrv.Shutdown(sctx); err != nil {
		_ = httpSrv.Close()
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(out, "muled shut down")
	return nil
}

// parseCacheFlag interprets the -cache value. A bare integer is an entry
// count (the historical form; negative disables the cache), a size-suffixed
// value like "64MB" or "1GiB" bounds the cache by total cached result bytes
// instead, and "" keeps both server defaults (256 entries, 64 MiB).
func parseCacheFlag(v string) (entries int, bytes int64, err error) {
	if v == "" {
		return 0, 0, nil
	}
	if n, err := strconv.Atoi(v); err == nil {
		if n == 0 {
			n = -1 // explicit "-cache 0" means disabled, not "use the default"
		}
		return n, 0, nil
	}
	b, err := parseByteSize(v)
	if err != nil {
		return 0, 0, err
	}
	return 0, b, nil
}

// byteSuffixes maps size suffixes to multipliers; decimal (KB/MB/GB) and
// binary (KiB/MiB/GiB) forms are both accepted, case-insensitively.
var byteSuffixes = []struct {
	suffix string
	mult   int64
}{
	{"gib", 1 << 30}, {"mib", 1 << 20}, {"kib", 1 << 10},
	{"gb", 1e9}, {"mb", 1e6}, {"kb", 1e3},
	{"g", 1 << 30}, {"m", 1 << 20}, {"k", 1 << 10},
	{"b", 1},
}

func parseByteSize(v string) (int64, error) {
	s := strings.ToLower(strings.TrimSpace(v))
	for _, sf := range byteSuffixes {
		num, ok := strings.CutSuffix(s, sf.suffix)
		if !ok {
			continue
		}
		n, err := strconv.ParseFloat(strings.TrimSpace(num), 64)
		if err != nil {
			break
		}
		// NaN, ±Inf and sizes of 2^63 bytes or more have no int64 value, and
		// a size below one byte would truncate to 0, which selects the default.
		if b := n * float64(sf.mult); b >= 1 && b < math.MaxInt64 {
			return int64(b), nil
		}
		return 0, fmt.Errorf("byte size %s must be at least 1 byte and below 2^63 bytes", v)
	}
	return 0, fmt.Errorf("want an entry count or a byte size like 64MB")
}

// preload installs one -load graph before the listener opens. Bipartite
// graphs are recognized by the .ubg suffix.
func preload(srv *server.Server, name, path string) error {
	snap := &server.Snapshot{}
	var err error
	if strings.HasSuffix(path, ".ubg") {
		snap.Bipartite, err = graphio.LoadBipartiteFile(path)
	} else {
		snap.Graph, err = graphio.LoadFile(path)
	}
	if err != nil {
		return err
	}
	return srv.Install(name, snap)
}
