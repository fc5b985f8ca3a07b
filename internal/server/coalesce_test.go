package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	mule "github.com/uncertain-graphs/mule"
	"github.com/uncertain-graphs/mule/internal/faultinject"
	"github.com/uncertain-graphs/mule/internal/gen"
)

// The tests in this file arm faultinject's SlowPoll, whose plan is
// process-global, so none of them runs in parallel. SlowPoll sleeps in
// every RunControl.Poll, and every clique run polls once before it starts,
// so an armed plan keeps each run in flight for at least the delay.

// slowRuns arms SlowPoll with delay d until the test ends.
func slowRuns(t *testing.T, d time.Duration) {
	t.Helper()
	t.Cleanup(faultinject.Activate(faultinject.NewPlan(1).ArmDelay(faultinject.SlowPoll, 1, d)))
}

// admissions turns on s's admission accounting, which counts runs only
// once some limit is set, with a limit no test reaches, and returns a
// reader of the number of runs admitted since.
func admissions(s *Server) func() int64 {
	s.Executor().SetDefaultLimits(mule.Limits{MaxInFlight: 1 << 20})
	before := s.Executor().AdmissionStats().Admitted
	return func() int64 { return s.Executor().AdmissionStats().Admitted - before }
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitInFlight waits until n query requests execute on s.
func waitInFlight(t *testing.T, s *Server, n int64) {
	t.Helper()
	waitFor(t, fmt.Sprintf("%d requests run", n), func() bool { return s.InFlight() >= n })
}

// waitWarmFlight waits until the warm pass has registered a run.
func waitWarmFlight(t *testing.T, s *Server) {
	t.Helper()
	waitFor(t, "a warm run is in flight", func() bool {
		s.cache.mu.Lock()
		defer s.cache.mu.Unlock()
		for _, f := range s.cache.flights {
			if f.warm {
				return true
			}
		}
		return false
	})
}

// waitWarmIdle waits until the warm pass has ended.
func waitWarmIdle(t *testing.T, s *Server) {
	t.Helper()
	waitFor(t, "the warm pass ends", func() bool {
		ws := s.warmStatsSnapshot()
		return ws.Scheduled > 0 && ws.InFlight == 0
	})
}

// loadTestGraph loads the six-vertex test graph as "g".
func loadTestGraph(t *testing.T, ts *httptest.Server) {
	t.Helper()
	if code, body, _ := do(t, "POST", ts.URL+"/graphs/g", testGraphText(t)); code != http.StatusOK {
		t.Fatalf("load: %d %s", code, body)
	}
}

// warmRun runs the warm pass's step for one shape of "g", given as a query
// string, on its own goroutine, and returns a channel closed when it ends.
func warmRun(t *testing.T, s *Server, query string) <-chan struct{} {
	t.Helper()
	v, err := url.ParseQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	p, err := parseQueryParams(v)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.warmOne("g", p)
	}()
	return done
}

// warmedServer loads the six-vertex test graph as "g" on a server that
// warms two shapes, and records the shape of u through a miss and a hit.
func warmedServer(t *testing.T, query string) (*Server, *httptest.Server, string) {
	t.Helper()
	s, ts := newTestServerCfg(t, Config{Workers: 2, CacheEntries: 64, WarmKeys: 2})
	loadTestGraph(t, ts)
	u := ts.URL + "/graphs/g/query?" + query
	for i := 0; i < 2; i++ {
		if code, body, _ := do(t, "GET", u, nil); code != http.StatusOK {
			t.Fatalf("query: %d %s", code, body)
		}
	}
	return s, ts, u
}

// applyEdge23 sets edge {2,3} to 0.9 on "g" and returns the new epoch.
func applyEdge23(t *testing.T, ts *httptest.Server) uint64 {
	t.Helper()
	code, body, _ := do(t, "POST", ts.URL+"/graphs/g/apply", []byte(`{"updates":[{"u":2,"v":3,"p":0.9}]}`))
	if code != http.StatusOK {
		t.Fatalf("apply: %d %s", code, body)
	}
	var ar applyResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	return ar.Epoch
}

type reply struct {
	code int
	body []byte
	err  error
}

// send issues a GET under ctx on its own goroutine.
func send(ctx context.Context, url string) <-chan reply {
	ch := make(chan reply, 1)
	go func() {
		req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
		if err != nil {
			ch <- reply{err: err}
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			ch <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		ch <- reply{code: resp.StatusCode, body: body, err: err}
	}()
	return ch
}

// okQuery receives one reply and requires a 200 query response.
func okQuery(t *testing.T, ch <-chan reply) queryResponse {
	t.Helper()
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.code != http.StatusOK {
		t.Fatalf("query: %d %s", r.code, r.body)
	}
	return decodeQuery(t, r.body)
}

// TestMissesWaitOnWarmRun sends eight identical misses of a warmed shape
// while the warm pass runs it on the new epoch: the warm run is the only
// run admitted, and every request answers from it with "cached": true.
func TestMissesWaitOnWarmRun(t *testing.T) {
	s, ts, u := warmedServer(t, "miner=cliques&alpha=0.5")
	slowRuns(t, 200*time.Millisecond)
	admitted := admissions(s)
	epoch := applyEdge23(t, ts)
	waitWarmFlight(t, s)
	var replies []<-chan reply
	for i := 0; i < 8; i++ {
		replies = append(replies, send(context.Background(), u))
	}
	for i, ch := range replies {
		qr := okQuery(t, ch)
		if !qr.Cached || qr.Epoch != epoch || !bytes.Contains(qr.Results, []byte(`"vertices":[2,3]`)) {
			t.Fatalf("reply %d: cached %v, epoch %d (apply %d), results %s", i, qr.Cached, qr.Epoch, epoch, qr.Results)
		}
	}
	waitWarmIdle(t, s)
	if got := admitted(); got != 1 {
		t.Fatalf("admitted %d runs for an apply and eight queries, want 1", got)
	}
	if ws := s.warmStatsSnapshot(); ws.Completed != 1 {
		t.Fatalf("warm stats %+v, want 1 completed", ws)
	}
}

// TestFailedWarmRunReleasesWaiters makes a warm run end without a settled
// answer, by a contained panic: the requests waiting on it run the query
// themselves and get 200 with the results a fresh run returns.
func TestFailedWarmRunReleasesWaiters(t *testing.T) {
	s, ts := newTestServer(t)
	loadTestGraph(t, ts)
	u := ts.URL + "/graphs/g/query?miner=cliques&alpha=0.5"
	restore := faultinject.Activate(faultinject.NewPlan(1).
		ArmDelay(faultinject.SlowPoll, 1, 200*time.Millisecond).Arm(faultinject.PanicVisitor, 1))
	t.Cleanup(restore)
	done := warmRun(t, s, "miner=cliques&alpha=0.5")
	waitWarmFlight(t, s)
	var waiters []<-chan reply
	for i := 0; i < 4; i++ {
		// The timeout turns a waiter that is never released into a failure.
		waiters = append(waiters, send(context.Background(), u+"&timeout=10s"))
	}
	// The warm run panics at its first clique, 200 ms in. Disarm the plan
	// before the released waiters' runs, which each sleep 200 ms at their
	// first poll while it is armed, reach theirs.
	waitFor(t, "the warm run fails", func() bool { return s.warmStatsSnapshot().Failed == 1 })
	restore()
	<-done
	code, body, _ := do(t, "GET", u+"&nocache=true", nil)
	if code != http.StatusOK {
		t.Fatalf("fresh run: %d %s", code, body)
	}
	fresh := decodeQuery(t, body).Results
	for i, ch := range waiters {
		if qr := okQuery(t, ch); qr.Cached || !bytes.Equal(qr.Results, fresh) {
			t.Fatalf("waiter %d: cached %v, results %s, want a fresh run's %s", i, qr.Cached, qr.Results, fresh)
		}
	}
}

// TestWaiterGivesUpOnItsOwnTerms ends a request waiting on a warm run, by
// its own timeout or by closing its connection, well before the run lands:
// the request ends as its own run would, and the warm run still lands for
// the next query.
func TestWaiterGivesUpOnItsOwnTerms(t *testing.T) {
	for _, tc := range []struct {
		name  string
		query string
		close bool
	}{
		{"timeout", "&timeout=20ms", false},
		{"closed", "", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t)
			loadTestGraph(t, ts)
			u := ts.URL + "/graphs/g/query?miner=cliques&alpha=0.5"
			slowRuns(t, 500*time.Millisecond)
			done := warmRun(t, s, "miner=cliques&alpha=0.5")
			waitWarmFlight(t, s)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			start := time.Now()
			waiter := send(ctx, u+tc.query)
			if tc.close {
				time.Sleep(20 * time.Millisecond)
				cancel()
			}
			r := <-waiter
			if tc.close {
				if r.err == nil {
					t.Fatalf("closed waiter got a reply: %d %s", r.code, r.body)
				}
			} else if r.err != nil || r.code != http.StatusGatewayTimeout {
				t.Fatalf("waiter: %d %s %v, want 504", r.code, r.body, r.err)
			}
			if el := time.Since(start); el > 400*time.Millisecond {
				t.Fatalf("waiter ended after %v, not on its own terms", el)
			}
			<-done
			if ws := s.warmStatsSnapshot(); ws.Completed != 1 {
				t.Fatalf("warm stats %+v, want 1 completed", ws)
			}
			if qr := okQuery(t, send(context.Background(), u)); !qr.Cached {
				t.Fatal("the query after the warm run missed")
			}
		})
	}
}

// TestRequestsDoNotCoalesce sends, while a request's run is in flight, a
// second request: an identical one, or one that differs in a way the run
// cannot answer. Requests never wait on each other, so each runs.
func TestRequestsDoNotCoalesce(t *testing.T) {
	for _, tc := range []struct {
		name           string
		leader, second string
		apply          bool
	}{
		{"identical", "", "", false},
		{"nocache", "", "&nocache=true", false},
		{"limit", "", "&limit=1", false},
		{"tenant", "&tenant=a", "&tenant=b", false},
		{"epoch", "", "", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t)
			loadTestGraph(t, ts)
			u := ts.URL + "/graphs/g/query?miner=cliques&alpha=0.5"
			if tc.apply {
				// Seed the maintainer before the runs are slowed.
				if code, body, _ := do(t, "POST", ts.URL+"/graphs/g/apply", []byte(`{"updates":[{"u":0,"v":1,"p":0.9}]}`)); code != http.StatusOK {
					t.Fatalf("apply: %d %s", code, body)
				}
			}
			slowRuns(t, 300*time.Millisecond)
			admitted := admissions(s)
			leader := send(context.Background(), u+tc.leader)
			waitInFlight(t, s, 1)
			if tc.apply {
				applyEdge23(t, ts)
			}
			second := okQuery(t, send(context.Background(), u+tc.second))
			first := okQuery(t, leader)
			if first.Cached || second.Cached {
				t.Fatalf("cached: leader %v, second %v; want both false", first.Cached, second.Cached)
			}
			if got := admitted(); got != 2 {
				t.Fatalf("admitted %d runs, want 2", got)
			}
			if tc.apply && second.Epoch <= first.Epoch {
				t.Fatalf("second epoch %d not past the leader's %d", second.Epoch, first.Epoch)
			}
		})
	}
}

// TestWarmSkipsRequestRun runs the warm pass's shape while a request is
// already running its key: the warm pass skips the key, and the request's
// answer fills the cache.
func TestWarmSkipsRequestRun(t *testing.T) {
	s, ts := newTestServer(t)
	loadTestGraph(t, ts)
	u := ts.URL + "/graphs/g/query?miner=cliques&alpha=0.5"
	slowRuns(t, 200*time.Millisecond)
	admitted := admissions(s)
	req := send(context.Background(), u)
	waitInFlight(t, s, 1)
	<-warmRun(t, s, "miner=cliques&alpha=0.5")
	if qr := okQuery(t, req); qr.Cached {
		t.Fatal("the request read cached")
	}
	if ws := s.warmStatsSnapshot(); ws.Skipped != 1 {
		t.Fatalf("warm stats %+v, want 1 skipped", ws)
	}
	if got := admitted(); got != 1 {
		t.Fatalf("admitted %d runs, want 1", got)
	}
	if qr := okQuery(t, send(context.Background(), u)); !qr.Cached {
		t.Fatal("the query after the request missed")
	}
}

// TestWaiterQueuesBehindWarmAdmission pins the one way a waiter can sit in
// another tenant's admission queue: a warm run is admitted as the empty
// tenant, so when the default limits queue it, a request of tenant "a"
// that waits on it waits in that queue too, and is never admitted itself.
func TestWaiterQueuesBehindWarmAdmission(t *testing.T) {
	s, ts := newTestServer(t)
	loadTestGraph(t, ts)
	slowRuns(t, 200*time.Millisecond)
	ex := s.Executor()
	ex.SetDefaultLimits(mule.Limits{MaxInFlight: 1, MaxQueued: 4})
	queued := ex.AdmissionStats().Queued
	// An untenanted run holds the empty tenant's only slot.
	blocker := send(context.Background(), ts.URL+"/graphs/g/query?miner=cliques&alpha=0.4&nocache=true")
	waitInFlight(t, s, 1)
	done := warmRun(t, s, "miner=cliques&alpha=0.5")
	waitFor(t, "the warm run queues", func() bool { return ex.AdmissionStats().Queued > queued })
	qr := okQuery(t, send(context.Background(), ts.URL+"/graphs/g/query?miner=cliques&alpha=0.5&tenant=a"))
	if !qr.Cached {
		t.Fatal("the waiter ran for itself")
	}
	okQuery(t, blocker)
	<-done
	if peak := ex.AdmissionStats().Peak["a"]; peak != 0 {
		t.Fatalf("tenant a was admitted (peak %d)", peak)
	}
}

// TestWarmIgnoresHitBudget records a shape through a hit that carries
// budget=1. The budget is not part of the cache key, so it must not follow
// the shape into the warm pass: the post-apply warm run completes and the
// next plain query hits.
func TestWarmIgnoresHitBudget(t *testing.T) {
	s, ts := newTestServerCfg(t, Config{Workers: 2, CacheEntries: 64, WarmKeys: 2})
	if err := s.Install("ba", &Snapshot{Graph: gen.BA(400, 1)}); err != nil {
		t.Fatal(err)
	}
	u := ts.URL + "/graphs/ba/query?miner=cliques&alpha=0.001"
	if code, body, _ := do(t, "GET", u, nil); code != http.StatusOK {
		t.Fatalf("miss: %d %s", code, body)
	}
	code, body, _ := do(t, "GET", u+"&budget=1", nil)
	if code != http.StatusOK || !decodeQuery(t, body).Cached {
		t.Fatalf("budget=1 repeat is not a hit: %d %s", code, body)
	}
	e := gen.BA(400, 1).Edges()[0]
	apply := fmt.Sprintf(`{"updates":[{"u":%d,"v":%d,"p":%g}]}`, e.U, e.V, e.P/2)
	if code, body, _ := do(t, "POST", ts.URL+"/graphs/ba/apply", []byte(apply)); code != http.StatusOK {
		t.Fatalf("apply: %d %s", code, body)
	}
	waitWarmIdle(t, s)
	if ws := s.warmStatsSnapshot(); ws.Completed != 1 || ws.Failed != 0 {
		t.Fatalf("warm stats %+v, want 1 completed and 0 failed", ws)
	}
	code, body, _ = do(t, "GET", u, nil)
	if code != http.StatusOK || !decodeQuery(t, body).Cached {
		t.Fatalf("plain query after the warm pass is not a hit: %d %s", code, body)
	}
}
