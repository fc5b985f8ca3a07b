package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	mule "github.com/uncertain-graphs/mule"
	"github.com/uncertain-graphs/mule/internal/graphio"
)

// cowBase builds the base graph for the copy-on-write test: a 10-vertex
// path, which the batches progressively thicken into triangles.
func cowBase(t *testing.T) *mule.Graph {
	t.Helper()
	var edges []mule.Edge
	for i := 0; i < 9; i++ {
		edges = append(edges, mule.Edge{U: i, V: i + 1, P: 0.8})
	}
	g, err := mule.FromEdges(10, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// cowBatches are the update batches the writer applies, in order.
func cowBatches() [][]mule.EdgeUpdate {
	var batches [][]mule.EdgeUpdate
	for k := 0; k < 8; k++ {
		batches = append(batches, []mule.EdgeUpdate{{U: k, V: k + 2, P: 0.9}})
	}
	return batches
}

// mineJSON produces the exact results bytes the query handler would serve
// for g, by running the same parse → runner → encode pipeline.
func mineJSON(t *testing.T, g *mule.Graph, ex *mule.Executor) []byte {
	t.Helper()
	p, err := parseQueryParams(url.Values{"miner": {"cliques"}, "alpha": {"0.5"}, "nocache": {"true"}})
	if err != nil {
		t.Fatal(err)
	}
	run, err := p.newRunner(&Snapshot{Graph: g}, ex, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := run(context.Background())
	if out.Err != nil || out.EncErr != nil {
		t.Fatal(out.Err, out.EncErr)
	}
	return out.Results
}

// TestApplySnapshotSwapRace is the copy-on-write pin: while a writer
// commits update batches (each bumping the epoch), concurrent readers on
// uncached queries must each see results byte-identical to the precomputed
// answer for the epoch their response reports — never a torn graph, never a
// mix of epochs. Run under -race this also proves the swap is data-race
// free. The goroutine count is checked back to baseline at the end.
func TestApplySnapshotSwapRace(t *testing.T) {
	baseline := runtime.NumGoroutine()

	s, ts := newTestServer(t)
	batches := cowBatches()

	// Precompute the expected results bytes per epoch by replaying the
	// batches on a private maintainer. Epochs are deterministic: the load
	// is 1, each committed batch adds one.
	expected := map[uint64][]byte{}
	base := cowBase(t)
	expected[1] = mineJSON(t, base, s.Executor())
	m, err := mule.NewMaintainer(base, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for i, batch := range batches {
		if _, _, err := m.Apply(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
		expected[uint64(i)+2] = mineJSON(t, m.Graph(), s.Executor())
	}

	var buf bytes.Buffer
	if err := graphio.WriteText(&buf, base); err != nil {
		t.Fatal(err)
	}
	if code, body, _ := do(t, "POST", ts.URL+"/graphs/cow", buf.Bytes()); code != http.StatusOK {
		t.Fatalf("load: %d %s", code, body)
	}

	queryURL := ts.URL + "/graphs/cow/query?miner=cliques&alpha=0.5&nocache=true"
	var done atomic.Bool
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{}
			defer client.CloseIdleConnections()
			for !done.Load() {
				resp, err := client.Get(queryURL)
				if err != nil {
					errc <- err
					return
				}
				var qr queryResponse
				err = json.NewDecoder(resp.Body).Decode(&qr)
				resp.Body.Close()
				if err != nil {
					errc <- err
					return
				}
				want, ok := expected[qr.Epoch]
				if !ok {
					errc <- fmt.Errorf("reader saw unknown epoch %d", qr.Epoch)
					return
				}
				if !bytes.Equal(qr.Results, want) {
					errc <- fmt.Errorf("epoch %d: results diverge:\ngot  %s\nwant %s", qr.Epoch, qr.Results, want)
					return
				}
			}
		}()
	}

	for i, batch := range batches {
		ups := make([]edgeUpdateJSON, len(batch))
		for j, u := range batch {
			ups[j] = edgeUpdateJSON{U: u.U, V: u.V, P: u.P, Remove: u.Remove}
		}
		body, err := json.Marshal(applyRequest{Updates: ups})
		if err != nil {
			t.Fatal(err)
		}
		code, out, _ := do(t, "POST", ts.URL+"/graphs/cow/apply", body)
		if code != http.StatusOK {
			t.Fatalf("apply %d: %d %s", i, code, out)
		}
		var ar applyResponse
		if err := json.Unmarshal(out, &ar); err != nil {
			t.Fatal(err)
		}
		if want := uint64(i) + 2; ar.Epoch != want {
			t.Fatalf("apply %d: epoch %d, want %d", i, ar.Epoch, want)
		}
		// Let readers overlap this epoch before the next swap.
		time.Sleep(2 * time.Millisecond)
	}

	done.Store(true)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	ts.Close()
	s.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d > baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
