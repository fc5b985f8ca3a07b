// Package server implements muled, the resident graph-query service: a
// long-lived HTTP server that keeps named uncertain graphs in memory as
// immutable, epoch-stamped snapshots, answers all seven prepared-query
// families against them through a shared mule.Executor with per-tenant
// admission control, ingests edge-update batches through the incremental
// clique Maintainer with a copy-on-write snapshot swap, and serves repeat
// queries from an epoch-keyed LRU result cache.
//
// Epoch semantics: every load and every committed Apply stamps the graph
// with a fresh epoch from a server-wide monotonic counter. Queries resolve
// one snapshot for their whole run — a concurrent Apply never changes what
// an in-flight query sees — and cache keys embed the epoch, so an update
// invalidates the cache implicitly: new queries form new keys and the stale
// entries age out of the LRU.
//
// The CLI's exit-code conventions map onto HTTP statuses:
//
//	exit 0 + truncation  → 200 with "truncated": true (limit or budget)
//	exit 124 (deadline)  → 504 Gateway Timeout
//	exit 75  (admission) → 429 Too Many Requests, with Retry-After
//	exit 70  (panic,
//	          stall)     → 500 with the run status in "status"
//	validation errors    → 400 Bad Request
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	mule "github.com/uncertain-graphs/mule"
	"github.com/uncertain-graphs/mule/internal/graphio"
)

// Config tunes a Server.
type Config struct {
	// Executor is the scheduling/admission domain queries run on. Nil means
	// the server creates a private executor with Workers workers and owns
	// it: Server.Close closes it.
	Executor *mule.Executor
	// Workers sizes the private executor when Executor is nil; values below
	// 1 mean GOMAXPROCS (the mule.NewExecutor clamp applies).
	Workers int
	// CacheEntries caps the result cache (default 256; 0 after default
	// applies only via explicit negative → disabled).
	CacheEntries int
	// CacheBytes caps the result cache's total stored result bytes (default
	// 64 MiB; negative → unbounded by bytes, entry cap only). An entry
	// larger than the byte cap is never stored.
	CacheBytes int64
	// MaxBodyBytes caps graph-load and apply request bodies (default 1 GiB).
	MaxBodyBytes int64
	// WarmKeys is how many most-recently-hit cached query shapes a committed
	// Apply re-issues against the new epoch, repopulating the cache before
	// clients re-ask (default 4; negative disables warming).
	WarmKeys int
}

const (
	defaultCacheEntries = 256
	defaultCacheBytes   = 64 << 20
	defaultMaxBody      = 1 << 30
	// defaultMaintainerAlpha seeds a graph's incremental maintainer when the
	// first Apply batch names no alpha of its own.
	defaultMaintainerAlpha = 0.5
)

// Server is the muled HTTP service. Build it with New, mount Handler on an
// http.Server, and Close it on shutdown. All methods are safe for
// concurrent use.
type Server struct {
	ex        *mule.Executor
	ownsExec  bool
	reg       *registry
	cache     *resultCache
	progress  *progressTable
	warm      *warmTracker
	warmKeys  int
	warmCount warmCounters
	maxBody   int64
	mux       *http.ServeMux
	inflight  atomic.Int64
	closed    sync.Once
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	ex := cfg.Executor
	owns := false
	if ex == nil {
		w := cfg.Workers
		ex = mule.NewExecutor(w)
		owns = true
	}
	entries := cfg.CacheEntries
	if entries == 0 {
		entries = defaultCacheEntries
	} else if entries < 0 {
		entries = 0
	}
	capBytes := cfg.CacheBytes
	if capBytes == 0 {
		capBytes = defaultCacheBytes
	} else if capBytes < 0 {
		capBytes = 0
	}
	maxBody := cfg.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = defaultMaxBody
	}
	warmKeys := cfg.WarmKeys
	if warmKeys == 0 {
		warmKeys = defaultWarmKeys
	} else if warmKeys < 0 {
		warmKeys = 0
	}
	s := &Server{
		ex:       ex,
		ownsExec: owns,
		reg:      newRegistry(),
		cache:    newResultCache(entries, capBytes),
		progress: newProgressTable(),
		warm:     newWarmTracker(warmTrackCap),
		warmKeys: warmKeys,
		maxBody:  maxBody,
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /graphs", s.handleListGraphs)
	mux.HandleFunc("POST /graphs/{name}", s.handleLoadGraph)
	mux.HandleFunc("PUT /graphs/{name}", s.handleLoadGraph)
	mux.HandleFunc("GET /graphs/{name}", s.handleGraphInfo)
	mux.HandleFunc("DELETE /graphs/{name}", s.handleDeleteGraph)
	mux.HandleFunc("GET /graphs/{name}/query", s.handleQuery)
	mux.HandleFunc("POST /graphs/{name}/apply", s.handleApply)
	mux.HandleFunc("PUT /tenants/{id}/limits", s.handleTenantLimits)
	s.mux = mux
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Executor returns the scheduling domain queries run on (for installing
// tenant limits programmatically).
func (s *Server) Executor() *mule.Executor { return s.ex }

// Close releases the server's resources. If the server owns its executor it
// is closed — queued admissions fail with ErrAdmission rather than hang.
// Close is idempotent.
func (s *Server) Close() {
	s.closed.Do(func() {
		if s.ownsExec {
			s.ex.Close()
		}
	})
}

// InFlight returns the number of query requests currently executing (cache
// hits excluded).
func (s *Server) InFlight() int64 { return s.inflight.Load() }

// Install publishes snap under name with a fresh epoch, replacing any
// previous graph of that name. It is the programmatic counterpart of
// POST /graphs/{name}, used to preload graphs before the listener opens.
// Exactly one of snap.Graph and snap.Bipartite must be non-nil.
func (s *Server) Install(name string, snap *Snapshot) error {
	if name == "" {
		return errors.New("empty graph name")
	}
	if (snap.Graph == nil) == (snap.Bipartite == nil) {
		return errors.New("exactly one of Graph and Bipartite must be set")
	}
	snap.Epoch = s.reg.nextEpoch()
	s.reg.install(name, snap)
	return nil
}

// --- error mapping ---

// httpStatusOf maps a query/apply error onto the HTTP status and run-status
// detail the response should carry, mirroring the CLI's exit conventions.
func httpStatusOf(err error) (code int, detail string) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, mule.StatusDeadline.String()
	case errors.Is(err, context.Canceled):
		// The client went away; 499 is the de-facto convention (nginx).
		return 499, mule.StatusCanceled.String()
	case errors.Is(err, mule.ErrAdmission):
		return http.StatusTooManyRequests, mule.StatusFailed.String()
	case errors.Is(err, mule.ErrPanic):
		return http.StatusInternalServerError, mule.StatusPanicked.String()
	case errors.Is(err, mule.ErrStalled):
		return http.StatusInternalServerError, mule.StatusStalled.String()
	case errors.Is(err, mule.ErrNilGraph),
		errors.Is(err, mule.ErrAlphaRange),
		errors.Is(err, mule.ErrConfig),
		errors.Is(err, mule.ErrGammaRange),
		errors.Is(err, mule.ErrEtaRange),
		errors.Is(err, mule.ErrKRange),
		errors.Is(err, mule.ErrCentersRange),
		errors.Is(err, mule.ErrVertexRange),
		errors.Is(err, mule.ErrSelfLoop),
		errors.Is(err, mule.ErrProbRange),
		errors.Is(err, mule.ErrDuplicateEdge):
		return http.StatusBadRequest, mule.StatusFailed.String()
	default:
		return http.StatusInternalServerError, mule.StatusFailed.String()
	}
}

type errorResponse struct {
	Error  string `json:"error"`
	Status string `json:"status,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, detail string, err error) {
	writeJSON(w, code, errorResponse{Error: err.Error(), Status: detail})
}

// --- handlers ---

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// graphInfo is the wire shape of one registry entry.
type graphInfo struct {
	Name     string `json:"name"`
	Kind     string `json:"kind"`
	Epoch    uint64 `json:"epoch"`
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
}

func infoOf(e *entry) graphInfo {
	snap := e.snapshot()
	return graphInfo{Name: e.name, Kind: snap.Kind(), Epoch: snap.Epoch,
		Vertices: snap.Vertices(), Edges: snap.Edges()}
}

func (s *Server) handleListGraphs(w http.ResponseWriter, _ *http.Request) {
	entries := s.reg.list()
	out := make([]graphInfo, 0, len(entries))
	for _, e := range entries {
		out = append(out, infoOf(e))
	}
	writeJSON(w, http.StatusOK, map[string]any{"graphs": out})
}

func (s *Server) handleGraphInfo(w http.ResponseWriter, r *http.Request) {
	e := s.reg.get(r.PathValue("name"))
	if e == nil {
		writeError(w, http.StatusNotFound, "", fmt.Errorf("graph %q not loaded", r.PathValue("name")))
		return
	}
	writeJSON(w, http.StatusOK, infoOf(e))
}

func (s *Server) handleDeleteGraph(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.reg.delete(name) {
		writeError(w, http.StatusNotFound, "", fmt.Errorf("graph %q not loaded", name))
		return
	}
	// Cache entries for the deleted graph are keyed by epochs that will
	// never be issued again; the LRU ages them out. Warm shapes are purged
	// eagerly so a future graph of the same name starts cold.
	s.warm.purge(name)
	writeJSON(w, http.StatusOK, map[string]string{"deleted": name})
}

// handleLoadGraph ingests a graph under /graphs/{name}: from the request
// body (any graphio format, gzip transparent — no temp file) or, with
// ?path=, from a server-local file. ?kind=bipartite selects the bipartite
// text format. Re-loading an existing name replaces it under a fresh epoch.
func (s *Server) handleLoadGraph(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if name == "" {
		writeError(w, http.StatusBadRequest, "", errors.New("empty graph name"))
		return
	}
	q := r.URL.Query()
	kind := q.Get("kind")
	if kind != "" && kind != "graph" && kind != "bipartite" {
		writeError(w, http.StatusBadRequest, "", fmt.Errorf("unknown kind %q (want graph or bipartite)", kind))
		return
	}
	path := q.Get("path")

	snap := &Snapshot{}
	var err error
	if kind == "bipartite" {
		if path != "" {
			snap.Bipartite, err = graphio.LoadBipartiteFile(path)
		} else {
			snap.Bipartite, err = graphio.LoadBipartite(http.MaxBytesReader(w, r.Body, s.maxBody))
		}
	} else {
		if path != "" {
			snap.Graph, err = graphio.LoadFile(path)
		} else {
			snap.Graph, err = graphio.Load(http.MaxBytesReader(w, r.Body, s.maxBody))
		}
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "", fmt.Errorf("loading graph %q: %w", name, err))
		return
	}
	snap.Epoch = s.reg.nextEpoch()
	s.reg.install(name, snap)
	writeJSON(w, http.StatusOK, graphInfo{Name: name, Kind: snap.Kind(), Epoch: snap.Epoch,
		Vertices: snap.Vertices(), Edges: snap.Edges()})
}

// handleQuery runs one prepared query against the graph's current snapshot,
// serving from the epoch-keyed cache when possible. See the package comment
// for the status mapping.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	e := s.reg.get(name)
	if e == nil {
		writeError(w, http.StatusNotFound, "", fmt.Errorf("graph %q not loaded", name))
		return
	}
	values := r.URL.Query()
	if values.Get("tenant") == "" {
		if h := r.Header.Get("X-Mule-Tenant"); h != "" {
			values.Set("tenant", h)
		}
	}
	p, err := parseQueryParams(values)
	if err != nil {
		writeError(w, http.StatusBadRequest, "", err)
		return
	}

	// Resolve the snapshot once: the epoch, the cache key, and the whole
	// run use this version of the graph no matter what Apply does meanwhile.
	snap := e.snapshot()
	var prog func(done, total int)
	if p.sharded() {
		var id int64
		id, prog = s.progress.register(name, p.miner)
		defer s.progress.unregister(id)
	}
	run, err := p.newRunner(snap, s.ex, prog)
	if err != nil {
		code, detail := httpStatusOf(err)
		writeError(w, code, detail, err)
		return
	}

	key := p.cacheKey(name, snap.Epoch)
	if key != "" {
		if hit, ok := s.cache.get(key); ok {
			// A hit marks the shape worth re-warming after the next Apply.
			s.warm.record(name, p)
			writeQuery(w, name, snap.Epoch, p.miner, true, &hit)
			return
		}
	}

	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	ctx := r.Context()
	if p.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.timeout)
		defer cancel()
	}
	out := run(ctx)

	// Budget exhaustion is a truncation, not a failure: the partial prefix
	// is delivered with truncated=true, mirroring exit 0 + partial output
	// in the CLI. Everything else maps through httpStatusOf.
	if out.err != nil && !errors.Is(out.err, mule.ErrBudget) {
		code, detail := httpStatusOf(out.err)
		if code == http.StatusTooManyRequests {
			// The rejection was instantaneous (admission, not execution), so a
			// prompt retry is reasonable once a slot frees up.
			w.Header().Set("Retry-After", "1")
		}
		writeError(w, code, detail, out.err)
		return
	}

	res, err := s.settle(key, out)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "", err)
		return
	}
	writeQuery(w, name, snap.Epoch, p.miner, false, &res)
}

// settle builds the stored form of a finished run, which handleQuery
// writes and the cache keeps, and caches it under key when the answer is
// settled: a complete run or a limit-truncated one. A budget abort depends
// on the budget and is recomputed; key "" caches nothing. The error is the
// answer's encoding failure.
func (s *Server) settle(key string, out runOutcome) (cachedResult, error) {
	if out.encErr != nil {
		return cachedResult{}, out.encErr
	}
	// A stats struct that fails to marshal leaves the field out.
	stats, _ := json.Marshal(out.stats)
	res := cachedResult{
		Status:    out.status.String(),
		Truncated: out.err != nil || out.status == mule.StatusStopped,
		Count:     out.count,
		Results:   out.results,
		Stats:     stats,
	}
	if key != "" && out.err == nil {
		s.cache.put(key, res)
	}
	return res, nil
}

// edgeUpdateJSON is one element of an apply batch.
type edgeUpdateJSON struct {
	U      int     `json:"u"`
	V      int     `json:"v"`
	P      float64 `json:"p,omitempty"`
	Remove bool    `json:"remove,omitempty"`
}

type applyRequest struct {
	Updates []edgeUpdateJSON `json:"updates"`
}

type applyResponse struct {
	Graph          string `json:"graph"`
	Epoch          uint64 `json:"epoch"`
	Updates        int    `json:"updates"`
	CliquesAdded   int    `json:"cliques_added"`
	CliquesRemoved int    `json:"cliques_removed"`
	Status         string `json:"status"`
	Error          string `json:"error,omitempty"`
}

// handleApply ingests one edge-update batch through the graph's incremental
// maintainer and publishes the new snapshot under a bumped epoch. The body
// is {"updates":[{"u":0,"v":1,"p":0.5},{"u":2,"v":3,"remove":true}]} or the
// bare array. ?alpha= seeds the maintainer on the first batch.
func (s *Server) handleApply(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	e := s.reg.get(name)
	if e == nil {
		writeError(w, http.StatusNotFound, "", fmt.Errorf("graph %q not loaded", name))
		return
	}
	alpha := defaultMaintainerAlpha
	if raw := r.URL.Query().Get("alpha"); raw != "" {
		f, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "", fmt.Errorf("parameter %q: %q is not a number", "alpha", raw))
			return
		}
		alpha = f
	}

	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody))
	dec.DisallowUnknownFields()
	var req applyRequest
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "", fmt.Errorf("decoding update batch: %w", err))
		return
	}
	if len(req.Updates) == 0 {
		writeError(w, http.StatusBadRequest, "", errors.New("empty update batch"))
		return
	}
	batch := make([]mule.EdgeUpdate, len(req.Updates))
	for i, u := range req.Updates {
		batch[i] = mule.EdgeUpdate{U: u.U, V: u.V, P: u.P, Remove: u.Remove}
	}

	diff, stats, epoch, err := e.apply(r.Context(), s.reg, batch, alpha)
	resp := applyResponse{
		Graph: name, Epoch: epoch, Updates: stats.Updates,
		CliquesAdded:   len(diff.Added),
		CliquesRemoved: len(diff.Removed),
		Status:         stats.Status.String(),
	}
	if err != nil {
		code, detail := httpStatusOf(err)
		resp.Error = err.Error()
		if detail != "" && stats.Status == 0 {
			resp.Status = detail
		}
		writeJSON(w, code, resp)
		return
	}
	// The new epoch is live: re-issue recently hit query shapes in the
	// background so the cache is hot before clients re-ask.
	s.warmAfterApply(name)
	writeJSON(w, http.StatusOK, resp)
}

// tenantLimitsJSON mirrors mule.Limits on the wire.
type tenantLimitsJSON struct {
	MaxInFlight int   `json:"max_inflight"`
	MaxQueued   int   `json:"max_queued"`
	MaxBudget   int64 `json:"max_budget"`
}

// handleTenantLimits installs per-tenant admission limits on the server's
// executor: PUT /tenants/{id}/limits with a tenantLimitsJSON body.
func (s *Server) handleTenantLimits(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if id == "" {
		writeError(w, http.StatusBadRequest, "", errors.New("empty tenant id"))
		return
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody))
	dec.DisallowUnknownFields()
	var l tenantLimitsJSON
	if err := dec.Decode(&l); err != nil {
		writeError(w, http.StatusBadRequest, "", fmt.Errorf("decoding limits: %w", err))
		return
	}
	if l.MaxInFlight < 0 || l.MaxQueued < 0 || l.MaxBudget < 0 {
		writeError(w, http.StatusBadRequest, "", errors.New("limits must be non-negative"))
		return
	}
	s.ex.SetTenantLimits(id, mule.Limits{
		MaxInFlight: l.MaxInFlight, MaxQueued: l.MaxQueued, MaxBudget: l.MaxBudget,
	})
	writeJSON(w, http.StatusOK, map[string]any{"tenant": id, "limits": l})
}

// statsResponse is the /stats wire shape.
type statsResponse struct {
	InFlight  int64               `json:"inflight"`
	Cache     cacheStats          `json:"cache"`
	Warm      warmStats           `json:"warm"`
	Admission mule.AdmissionStats `json:"admission"`
	Sharded   []shardRunInfo      `json:"sharded,omitempty"`
	Graphs    []graphInfo         `json:"graphs"`
}

// handleStats snapshots the server's observable state: in-flight queries,
// cache hit/miss/eviction counters, cache-warming outcomes, per-tenant
// admission accounting, per-component progress of in-flight sharded runs,
// and every graph's current epoch.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	entries := s.reg.list()
	graphs := make([]graphInfo, 0, len(entries))
	for _, e := range entries {
		graphs = append(graphs, infoOf(e))
	}
	writeJSON(w, http.StatusOK, statsResponse{
		InFlight:  s.inflight.Load(),
		Cache:     s.cache.stats(),
		Warm:      s.warmStatsSnapshot(),
		Admission: s.ex.AdmissionStats(),
		Sharded:   s.progress.list(),
		Graphs:    graphs,
	})
}
