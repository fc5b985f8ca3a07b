package main

import (
	"bytes"
	"context"
	"errors"
	"regexp"
	"strings"
	"testing"

	mule "github.com/uncertain-graphs/mule"
)

// elapsed matches the run time on a stats line.
var elapsed = regexp.MustCompile(` in [0-9][0-9.a-zµ]*`)

// statsLine runs mule with args and returns its stats line with the
// elapsed time masked as " in T", and its stdout.
func statsLine(t *testing.T, args ...string) (line, stdout string, err error) {
	t.Helper()
	var stats, out bytes.Buffer
	prev := statsOut
	statsOut = &stats
	defer func() { statsOut = prev }()
	err = run(context.Background(), args, &out)
	return elapsed.ReplaceAllString(stats.String(), " in T"), out.String(), err
}

// TestStatsLines pins every mode's stats line, the elapsed time masked.
func TestStatsLines(t *testing.T) {
	mc := writeMultiComponentGraph(t)
	bip := writeTestBipartite(t)
	for _, tc := range []struct{ in, args, want string }{
		{mc, "-alpha 0.5",
			"3 α-maximal cliques (α=0.5, max size 3, complete) in T; 12 search calls, 0 edges pruned\n"},
		{mc, "-alpha 0.5 -shard-batch 2",
			"3 α-maximal cliques (α=0.5, max size 3, complete) in T; 13 search calls, 0 edges pruned\n"},
		{mc, "-alpha 0.5 -count -limit 2",
			"2 α-maximal cliques (α=0.5, max size 3, stopped) in T; 10 search calls, 0 edges pruned\n"},
		{mc, "-alpha 0.5 -top 2",
			"top-2 of α=0.5 maximal cliques in T (n=6 m=4)\n"},
		{bip, "-mine bicliques -alpha 0.3",
			"2 α-maximal bicliques (α=0.3, max 2×2, complete) in T; 21 search calls, 0 edges pruned\n"},
		{mc, "-mine quasi -gamma 0.6 -minsize 2",
			"2 maximal expected γ-quasi-cliques (γ=0.6, max size 3, complete) in T; 11 search calls\n"},
		{mc, "-mine quasi -gamma 0.6 -shard-batch 2",
			"1 maximal expected γ-quasi-cliques (γ=0.6, max size 3, complete) in T; 9 search calls\n"},
		{mc, "-mine truss -eta 0.5",
			"η-truss decomposition of 4 edges (η=0.5, max truss 3, complete) in T; 7 support checks\n"},
		{mc, "-mine truss -eta 0.5 -shard-batch 2",
			"η-truss decomposition of 4 edges (η=0.5, max truss 3, complete) in T; 7 support checks\n"},
		{mc, "-mine truss -eta 0.5 -k 3",
			"(3,0.5)-truss: 3 of 4 edges in T\n"},
		{mc, "-mine core -eta 0.5",
			"η-core decomposition of 6 vertices (η=0.5, degeneracy 2, complete) in T; 10 recomputes\n"},
		{mc, "-mine core -eta 0.5 -shard-batch 2",
			"η-core decomposition of 6 vertices (η=0.5, degeneracy 2, complete) in T; 10 recomputes\n"},
		{mc, "-mine core -eta 0.5 -k 1",
			"(1,0.5)-core: 5 of 6 vertices in T\n"},
		{mc, "-mine densest",
			"3 densest-subgraph candidates (best density 0.9, complete) in T; 6 peel steps, 3 scored\n"},
		{mc, "-mine cluster -centers 3",
			"3 clusters (centers=3, rounds=0, converged=true, complete) in T; 3 reliability sweeps\n"},
	} {
		got, _, err := statsLine(t, append([]string{"-in", tc.in}, strings.Fields(tc.args)...)...)
		if err != nil {
			t.Fatalf("%s: %v", tc.args, err)
		}
		if got != tc.want {
			t.Errorf("%s:\ngot  %q\nwant %q", tc.args, got, tc.want)
		}
	}
}

// TestBudgetMetByLastBatch: -budget is checked before another batch starts,
// so a run whose last (or only) batch completes is complete, even when its
// work meets or passes the allowance; a budget spent with batches left
// still stops the loop.
func TestBudgetMetByLastBatch(t *testing.T) {
	mc := writeMultiComponentGraph(t)
	for _, args := range []string{"-alpha 0.5 -budget 3", "-alpha 0.5 -shard-batch 2 -budget 13"} {
		line, out, err := statsLine(t, append([]string{"-in", mc}, strings.Fields(args)...)...)
		if err != nil {
			t.Fatalf("%s: %v", args, err)
		}
		if got := sortedLines(out); len(got) != 3 || !strings.Contains(line, ", complete)") {
			t.Errorf("%s: printed %q, stats %q; want all 3 cliques, complete", args, got, line)
		}
	}
	line, _, err := statsLine(t, "-in", mc, "-alpha", "0.5", "-shard-batch", "2", "-budget", "5")
	if !errors.Is(err, mule.ErrBudget) || !strings.Contains(line, ", budget)") {
		t.Errorf("budget spent before the last batch: err %v, stats %q", err, line)
	}
}

// TestRunRejectsNegativeKAndTop: a negative -k, -top or -timeout is an
// error, not the full answer.
func TestRunRejectsNegativeKAndTop(t *testing.T) {
	mc := writeMultiComponentGraph(t)
	for _, args := range []string{"-mine core -eta 0.5 -k -2", "-mine truss -eta 0.5 -k -1", "-alpha 0.5 -top -1", "-alpha 0.5 -timeout -1s"} {
		line, out, err := statsLine(t, append([]string{"-in", mc}, strings.Fields(args)...)...)
		if err == nil || out != "" || line != "" {
			t.Errorf("%s: err %v, stdout %q, stats %q; want an error and no output", args, err, out, line)
		}
	}
}

// TestInvalidQueryPrintsNothing: a query that fails validation prints
// nothing, in the batched modes as in the whole-graph ones.
func TestInvalidQueryPrintsNothing(t *testing.T) {
	mc := writeMultiComponentGraph(t)
	for _, args := range []string{
		"-mine truss -eta 0 -count",
		"-mine quasi -count -shard-batch 2",
		"-alpha 7 -count",
		"-mine cluster -centers 0 -count",
	} {
		line, out, err := statsLine(t, append([]string{"-in", mc}, strings.Fields(args)...)...)
		if err == nil || out != "" || line != "" {
			t.Errorf("%s: err %v, stdout %q, stats %q; want an error and no output", args, err, out, line)
		}
	}
}
