package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	mule "github.com/uncertain-graphs/mule"
	"github.com/uncertain-graphs/mule/internal/gen"
	"github.com/uncertain-graphs/mule/internal/graphio"
	"github.com/uncertain-graphs/mule/internal/ubiclique"
	"github.com/uncertain-graphs/mule/internal/uncertain"
)

func writeTestGraph(t *testing.T) string {
	t.Helper()
	g, err := uncertain.FromEdges(4, []uncertain.Edge{
		{U: 0, V: 1, P: 0.5}, {U: 0, V: 2, P: 0.5}, {U: 1, V: 2, P: 0.5}, {U: 2, V: 3, P: 0.25},
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.ug")
	if err := graphio.SaveFile(path, g); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeBigGraph writes a dense graph whose enumeration at a low alpha runs
// for seconds — long enough to reliably cancel mid-run.
func writeBigGraph(t *testing.T) string {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	edges := gen.GNP(140, 0.6, rng)
	g, err := gen.BuildUncertain(140, edges, gen.ConstProb(0.95), rng)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "big.ug")
	if err := graphio.SaveFile(path, g); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunEnumerate(t *testing.T) {
	path := writeTestGraph(t)
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-in", path, "-alpha", "0.125", "-quiet"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 cliques, got %d: %q", len(lines), out.String())
	}
	if !strings.Contains(out.String(), "0 1 2") || !strings.Contains(out.String(), "2 3") {
		t.Fatalf("missing cliques in output: %q", out.String())
	}
	// Probability column is the first field.
	if !strings.HasPrefix(lines[0], "0.125\t") && !strings.HasPrefix(lines[1], "0.125\t") {
		t.Fatalf("expected a clique with probability 0.125: %q", out.String())
	}
}

func TestRunCount(t *testing.T) {
	path := writeTestGraph(t)
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-in", path, "-alpha", "0.125", "-count", "-quiet"}, &out); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out.String()) != "2" {
		t.Fatalf("count output %q, want 2", out.String())
	}
}

func TestRunTopK(t *testing.T) {
	path := writeTestGraph(t)
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-in", path, "-alpha", "0.125", "-top", "1", "-quiet"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("top-1 printed %d lines", len(lines))
	}
	// Highest probability maximal clique is {2,3} at 0.25.
	if !strings.Contains(lines[0], "2 3") {
		t.Fatalf("top-1 = %q, want clique {2,3}", lines[0])
	}
}

func TestRunMinSize(t *testing.T) {
	path := writeTestGraph(t)
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-in", path, "-alpha", "0.125", "-minsize", "3", "-quiet"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 1 || !strings.Contains(lines[0], "0 1 2") {
		t.Fatalf("minsize=3 output %q", out.String())
	}
}

func TestRunLimit(t *testing.T) {
	path := writeTestGraph(t)
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-in", path, "-alpha", "0.125", "-limit", "1", "-quiet"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("limit=1 printed %d lines: %q", len(lines), out.String())
	}
}

func TestRunOrderingsAndWorkers(t *testing.T) {
	path := writeTestGraph(t)
	for _, ord := range []string{"natural", "degree", "degeneracy", "random"} {
		var out bytes.Buffer
		if err := run(context.Background(), []string{"-in", path, "-alpha", "0.125", "-order", ord, "-workers", "2", "-count", "-quiet"}, &out); err != nil {
			t.Fatalf("order %s: %v", ord, err)
		}
		if strings.TrimSpace(out.String()) != "2" {
			t.Fatalf("order %s: count %q", ord, out.String())
		}
	}
}

func TestRunErrors(t *testing.T) {
	ctx := context.Background()
	var out bytes.Buffer
	if err := run(ctx, []string{}, &out); err == nil {
		t.Error("missing -in should fail")
	}
	if err := run(ctx, []string{"-in", "/nonexistent/file.ug"}, &out); err == nil {
		t.Error("missing file should fail")
	}
	path := writeTestGraph(t)
	if err := run(ctx, []string{"-in", path, "-alpha", "7"}, &out); err == nil {
		t.Error("bad alpha should fail")
	}
	if err := run(ctx, []string{"-in", path, "-order", "bogus"}, &out); err == nil {
		t.Error("bad ordering should fail")
	}
}

// TestRunCanceledMidRun cancels the context while the enumeration is in
// flight and checks the clean-abort contract: a wrapped context.Canceled
// comes back (so main exits 130) and the partial output was flushed intact
// — every emitted line is complete, no mid-write kill.
func TestRunCanceledMidRun(t *testing.T) {
	path := writeBigGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	var out syncBuffer
	lineSeen := make(chan struct{}, 1)
	out.onWrite = func() {
		select {
		case lineSeen <- struct{}{}:
		default:
		}
	}
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, []string{"-in", path, "-alpha", "0.00001", "-quiet"}, &out)
	}()
	select {
	case <-lineSeen:
		cancel()
	case <-time.After(30 * time.Second):
		t.Fatal("no output before timeout")
	}
	err := <-errc
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("run returned %v, want wrapped context.Canceled", err)
	}
	for i, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		if line == "" {
			continue
		}
		var p float64
		var rest string
		if _, serr := fmt.Sscanf(line, "%g\t%s", &p, &rest); serr != nil {
			t.Fatalf("flushed line %d is malformed: %q (%v)", i, line, serr)
		}
	}
}

// TestRunTimeoutFlag bounds a heavy run with -timeout and expects a wrapped
// context.DeadlineExceeded (the exit-124 path of main).
func TestRunTimeoutFlag(t *testing.T) {
	path := writeBigGraph(t)
	var out bytes.Buffer
	err := run(context.Background(), []string{"-in", path, "-alpha", "0.00001", "-count", "-quiet", "-timeout", "50ms"}, &out)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("run returned %v, want wrapped context.DeadlineExceeded", err)
	}
}

// TestSignalContext delivers a real SIGINT to the process and checks that
// the signal context — the one main wires to the query layer — cancels, so
// an interactive ^C aborts the enumeration instead of killing the process
// mid-write.
func TestSignalContext(t *testing.T) {
	ctx, stop := signalContext(context.Background())
	defer stop()
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ctx.Done():
		if !errors.Is(ctx.Err(), context.Canceled) {
			t.Fatalf("signal context err = %v", ctx.Err())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("SIGINT did not cancel the signal context")
	}
}

// TestSignalInterruptFlushes runs a heavy enumeration under the signal
// context, interrupts it with SIGINT, and verifies the run aborts with
// context.Canceled and flushed stats — the end-to-end ^C story.
func TestSignalInterruptFlushes(t *testing.T) {
	path := writeBigGraph(t)
	ctx, stop := signalContext(context.Background())
	defer stop()
	var out syncBuffer
	started := make(chan struct{}, 1)
	out.onWrite = func() {
		select {
		case started <- struct{}{}:
		default:
		}
	}
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, []string{"-in", path, "-alpha", "0.00001", "-quiet"}, &out)
	}()
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("no output before timeout")
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v, want wrapped context.Canceled", err)
	}
}

// syncBuffer is a bytes.Buffer safe for the cross-goroutine write/read the
// cancellation tests do, with a write hook to detect first output.
type syncBuffer struct {
	mu      sync.Mutex
	buf     bytes.Buffer
	onWrite func()
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	n, err := b.buf.Write(p)
	b.mu.Unlock()
	if b.onWrite != nil {
		b.onWrite()
	}
	return n, err
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestMainSmoke(t *testing.T) {
	// Ensure the os.Stdout path compiles and runs through run().
	path := writeTestGraph(t)
	if err := run(context.Background(), []string{"-in", path, "-alpha", "0.5", "-quiet"}, os.Stderr); err != nil {
		t.Fatal(err)
	}
}

func writeTestBipartite(t *testing.T) string {
	t.Helper()
	b := ubiclique.NewBuilder(3, 3)
	for l := 0; l < 2; l++ {
		for r := 0; r < 2; r++ {
			if err := b.AddEdge(l, r, 0.9); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := b.AddEdge(2, 2, 0.5); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "b.ubg")
	if err := graphio.SaveBipartiteFile(path, b.Build()); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunMineBicliques(t *testing.T) {
	path := writeTestBipartite(t)
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-in", path, "-mine", "bicliques", "-alpha", "0.6", "-quiet"}, &out); err != nil {
		t.Fatal(err)
	}
	// Only the 2×2 block (0.9^4 ≈ 0.656) survives α = 0.6.
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 1 || !strings.Contains(lines[0], "0 1 | 0 1") {
		t.Fatalf("biclique output %q", out.String())
	}
	out.Reset()
	if err := run(context.Background(), []string{"-in", path, "-mine", "bicliques", "-alpha", "0.3", "-minl", "2", "-minr", "2", "-count", "-quiet"}, &out); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out.String()) != "1" {
		t.Fatalf("biclique -minl/-minr count %q, want 1", out.String())
	}
}

func TestRunMineQuasi(t *testing.T) {
	path := writeTestGraph(t)
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-in", path, "-mine", "quasi", "-gamma", "1", "-quiet"}, &out); err != nil {
		t.Fatal(err)
	}
	// No certain triangle exists (all p = 0.5 < 1)… the expected-degree
	// condition at γ=1 needs expected degree |S|−1, impossible with p=0.5,
	// so the output is empty; re-run at γ=0.5 where {0,1,2} qualifies.
	out.Reset()
	if err := run(context.Background(), []string{"-in", path, "-mine", "quasi", "-gamma", "0.5", "-quiet"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "0 1 2") {
		t.Fatalf("quasi output %q, want the triangle", out.String())
	}
	// Missing -gamma fails eagerly with the typed sentinel.
	if err := run(context.Background(), []string{"-in", path, "-mine", "quasi", "-quiet"}, &out); !errors.Is(err, mule.ErrGammaRange) {
		t.Fatalf("quasi without -gamma returned %v, want wrapped ErrGammaRange", err)
	}
}

func TestRunMineTruss(t *testing.T) {
	path := writeTestGraph(t)
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-in", path, "-mine", "truss", "-eta", "0.1", "-quiet"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 4 { // every edge gets a truss number
		t.Fatalf("truss decomposition printed %d lines: %q", len(lines), out.String())
	}
	// The triangle edges have support probability 0.25 ≥ 0.1, so the
	// (3,0.1)-truss keeps exactly the triangle.
	out.Reset()
	if err := run(context.Background(), []string{"-in", path, "-mine", "truss", "-eta", "0.1", "-k", "3", "-quiet"}, &out); err != nil {
		t.Fatal(err)
	}
	lines = strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("(3,0.1)-truss printed %d edges: %q", len(lines), out.String())
	}
	// -eta is required.
	if err := run(context.Background(), []string{"-in", path, "-mine", "truss", "-quiet"}, &out); !errors.Is(err, mule.ErrEtaRange) {
		t.Fatalf("truss without -eta returned %v, want wrapped ErrEtaRange", err)
	}
}

func TestRunMineCore(t *testing.T) {
	path := writeTestGraph(t)
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-in", path, "-mine", "core", "-eta", "0.2", "-quiet"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 4 { // every vertex gets a core number
		t.Fatalf("core decomposition printed %d lines: %q", len(lines), out.String())
	}
	out.Reset()
	if err := run(context.Background(), []string{"-in", path, "-mine", "core", "-eta", "0.2", "-k", "2", "-quiet"}, &out); err != nil {
		t.Fatal(err)
	}
	// Vertices 0,1,2 keep η-degree ≥ 2 at η=0.2 (two incident 0.5 edges:
	// P[deg ≥ 2] = 0.25 ≥ 0.2); vertex 3's best is the pendant pair.
	if got := strings.Fields(strings.ReplaceAll(strings.TrimSpace(out.String()), "\n", " ")); len(got) != 3 {
		t.Fatalf("(2,0.2)-core = %v, want 3 vertices", got)
	}
}

// TestRunMineLimitAndTimeout: the cross-cutting -limit and -timeout flags
// apply to the extension modes exactly as to cliques.
func TestRunMineLimitAndTimeout(t *testing.T) {
	path := writeTestGraph(t)
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-in", path, "-mine", "truss", "-eta", "0.1", "-limit", "2", "-quiet"}, &out); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(strings.TrimSpace(out.String()), "\n"); len(lines) != 2 {
		t.Fatalf("-limit 2 printed %d truss lines: %q", len(lines), out.String())
	}
	// A heavy graph under a tiny -timeout aborts with the deadline error
	// (the exit-124 path of main) in the truss and core modes too.
	big := writeBigGraph(t)
	for _, mode := range [][]string{
		{"-mine", "truss", "-eta", "0.99"},
		{"-mine", "core", "-eta", "0.99"},
	} {
		args := append([]string{"-in", big, "-quiet", "-timeout", "1ms"}, mode...)
		if err := run(context.Background(), args, &out); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%v: err = %v, want wrapped context.DeadlineExceeded", mode, err)
		}
	}
}

func TestRunMineUnknown(t *testing.T) {
	path := writeTestGraph(t)
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-in", path, "-mine", "bogus"}, &out); err == nil || !strings.Contains(err.Error(), "unknown -mine mode") {
		t.Fatalf("unknown mode returned %v", err)
	}
}

func TestRunProfiles(t *testing.T) {
	path := writeTestGraph(t)
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pb.gz")
	mem := filepath.Join(dir, "mem.pb.gz")
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-in", path, "-alpha", "0.125", "-count", "-quiet",
		"-cpuprofile", cpu, "-memprofile", mem}, &out); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s not written: %v", p, err)
		}
		if fi.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
	// The -top path exits through a different return; it must still write
	// the heap profile.
	mem2 := filepath.Join(dir, "mem2.pb.gz")
	if err := run(context.Background(), []string{"-in", path, "-alpha", "0.125", "-top", "1", "-quiet",
		"-memprofile", mem2}, &out); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(mem2); err != nil || fi.Size() == 0 {
		t.Fatalf("top-k path did not write the heap profile: %v", err)
	}
}

// TestRunMineKPathsCountAndLimit: -count and -limit apply to the -k
// subgraph/vertex-set paths of the truss and core modes too.
func TestRunMineKPathsCountAndLimit(t *testing.T) {
	path := writeTestGraph(t)
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-in", path, "-mine", "truss", "-eta", "0.1", "-k", "3", "-count", "-quiet"}, &out); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out.String()) != "3" {
		t.Fatalf("truss -k -count = %q, want 3", out.String())
	}
	out.Reset()
	if err := run(context.Background(), []string{"-in", path, "-mine", "truss", "-eta", "0.1", "-k", "3", "-limit", "1", "-quiet"}, &out); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(strings.TrimSpace(out.String()), "\n"); len(lines) != 1 {
		t.Fatalf("truss -k -limit 1 printed %d lines: %q", len(lines), out.String())
	}
	out.Reset()
	if err := run(context.Background(), []string{"-in", path, "-mine", "core", "-eta", "0.2", "-k", "2", "-count", "-quiet"}, &out); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out.String()) != "3" {
		t.Fatalf("core -k -count = %q, want 3", out.String())
	}
	out.Reset()
	if err := run(context.Background(), []string{"-in", path, "-mine", "core", "-eta", "0.2", "-k", "2", "-limit", "2", "-quiet"}, &out); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(strings.TrimSpace(out.String()), "\n"); len(lines) != 2 {
		t.Fatalf("core -k -limit 2 printed %d lines: %q", len(lines), out.String())
	}
}

// checkMineLines pins one -mine mode against the library: its lines are
// want (the query's Collect printed in the CLI format) in order, -count
// prints len(want), -limit keeps a prefix, and -shard-batch is refused.
func checkMineLines(t *testing.T, path string, mode []string, want []string) {
	t.Helper()
	ctx := context.Background()
	args := append([]string{"-in", path, "-quiet"}, mode...)
	var out bytes.Buffer
	if err := run(ctx, args, &out); err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	if got := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n"); !equalStrings(got, want) {
		t.Fatalf("%v:\ngot  %q\nwant %q", args, got, want)
	}
	out.Reset()
	if err := run(ctx, append(args, "-count"), &out); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(out.String()); got != fmt.Sprint(len(want)) {
		t.Fatalf("%v -count: %q, want %d", args, got, len(want))
	}
	for limit := 1; limit <= len(want); limit++ {
		out.Reset()
		if err := run(ctx, append(args, "-limit", fmt.Sprint(limit)), &out); err != nil {
			t.Fatal(err)
		}
		if got := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n"); !equalStrings(got, want[:limit]) {
			t.Fatalf("%v -limit %d:\ngot  %q\nwant %q", args, limit, got, want[:limit])
		}
	}
	if err := run(ctx, append(args, "-shard-batch", "4"), &out); err == nil {
		t.Fatalf("%v -shard-batch: expected a refusal", args)
	}
}

// joinInts formats a vertex list the way the CLI prints it.
func joinInts(vs []int) string {
	s := make([]string, len(vs))
	for i, v := range vs {
		s[i] = fmt.Sprint(v)
	}
	return strings.Join(s, " ")
}

func TestRunMineDensest(t *testing.T) {
	path := writeMultiComponentGraph(t)
	g, err := graphio.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	q, err := mule.NewDensestQuery(g)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := q.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, c := range cands {
		want = append(want, fmt.Sprintf("%.9g\t%.9g\t%s", c.Probability, c.ExpectedDensity, joinInts(c.Vertices)))
	}
	checkMineLines(t, path, []string{"-mine", "densest"}, want)
}

func TestRunMineCluster(t *testing.T) {
	path := writeMultiComponentGraph(t)
	g, err := graphio.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	q, err := mule.NewClusterQuery(g, mule.WithCenters(3))
	if err != nil {
		t.Fatal(err)
	}
	clusters, err := q.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, c := range clusters {
		want = append(want, fmt.Sprintf("%.9g\t%d\t%s", c.Probability, c.Center, joinInts(c.Members)))
	}
	checkMineLines(t, path, []string{"-mine", "cluster", "-centers", "3"}, want)
}
