package server

import (
	"container/list"
	"encoding/json"
	"sync"
)

// cachedResult is one finished query response body, stored by the exact
// bytes of its results array so a repeat query is served byte-identical
// without re-marshaling (let alone re-mining).
type cachedResult struct {
	Status    string
	Truncated bool
	Count     int64
	Results   json.RawMessage
	Stats     json.RawMessage
}

// entryOverhead approximates the fixed per-entry bookkeeping bytes (list
// element, map bucket share, struct headers) charged on top of the payload.
const entryOverhead = 256

// size is the byte footprint an entry charges against the cache's byte
// capacity: key plus both raw JSON payloads plus fixed overhead.
func (v *cachedResult) size(key string) int64 {
	return int64(len(key)+len(v.Status)+len(v.Results)+len(v.Stats)) + entryOverhead
}

// resultCache is an LRU over canonical cache keys, bounded both by entry
// count and by total cached result bytes — the byte bound is what keeps a
// handful of huge result sets from pinning the whole budget while thousands
// of small ones thrash. Keys embed the snapshot epoch (see params.cacheKey),
// so an Apply that bumps a graph's epoch invalidates every cached result for
// it implicitly: the new epoch forms new keys, and the old entries age out
// of the LRU. Epochs come from a server-wide monotonic counter and are never
// reused — a re-loaded graph can never collide with a stale entry of its
// former self.
//
// The same lock guards the runs in flight, keyed like the entries (see
// join), so storing an answer and ending its run are one step.
type resultCache struct {
	mu        sync.Mutex
	cap       int        // max entries; 0 disables the cache
	capBytes  int64      // max total bytes; 0 = unbounded by bytes
	bytes     int64      // current total charged bytes
	ll        *list.List // front = most recently used
	entries   map[string]*list.Element
	flights   map[string]*flight
	hits      int64
	misses    int64
	evictions int64
}

// A flight is one run of a cache key in progress: a warm-pass run, or a
// request's miss. A request that misses a key the warm pass is running
// waits on done instead of running the query again; a request's run is
// registered only so that the warm pass skips its key.
type flight struct {
	warm bool // led by the warm pass; only such runs are waited on
	done chan struct{}
	// res is the settled answer, set before done is closed; nil when the
	// run ended without one and its waiters must run the query themselves.
	res *cachedResult
}

type cacheEntry struct {
	key  string
	val  cachedResult
	size int64
}

func newResultCache(capacity int, capBytes int64) *resultCache {
	if capacity < 0 {
		capacity = 0
	}
	if capBytes < 0 {
		capBytes = 0
	}
	return &resultCache{cap: capacity, capBytes: capBytes, ll: list.New(),
		entries: make(map[string]*list.Element), flights: make(map[string]*flight)}
}

// get returns the cached result for key and whether it was present,
// promoting a hit to most-recently-used.
func (c *resultCache) get(key string) (cachedResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*cacheEntry).val, true
	}
	c.misses++
	return cachedResult{}, false
}

// join is a second look at key after a miss, under the lock that also
// guards the runs in flight. It returns an answer stored since the miss as
// hit; a warm-pass run of key in flight as f, for a request to wait on;
// and, when no run of key is in flight, a new run the caller leads (lead
// true, f its flight) and must end with land. It returns nothing when a
// warm caller finds any run of key, or a request finds another request's:
// the warm pass then skips the key, and the request runs unregistered.
func (c *resultCache) join(key string, warm bool) (hit *cachedResult, f *flight, lead bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		res := el.Value.(*cacheEntry).val
		return &res, nil, false
	}
	if f := c.flights[key]; f != nil {
		if f.warm && !warm {
			return nil, f, false
		}
		return nil, nil, false
	}
	f = &flight{warm: warm, done: make(chan struct{})}
	c.flights[key] = f
	return nil, f, true
}

// land ends the run f of key. A settled answer res is stored under key and
// handed to the waiters in the same step, so a request that misses key
// finds either the run or its answer; a nil res releases the waiters to run
// for themselves. Landing a flight a second time does nothing.
func (c *resultCache) land(key string, f *flight, res *cachedResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.flights[key] != f {
		return
	}
	delete(c.flights, key)
	if res != nil {
		c.store(key, *res)
	}
	f.res = res
	close(f.done)
}

// put inserts (or refreshes) key, evicting from the least-recently-used end
// until both the entry cap and the byte cap hold. A zero-capacity cache
// stores nothing; an entry too large to ever fit the byte cap is not stored
// at all rather than flushing everything else first.
func (c *resultCache) put(key string, val cachedResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.store(key, val)
}

// store is put with c.mu held.
func (c *resultCache) store(key string, val cachedResult) {
	if c.cap == 0 {
		return
	}
	sz := val.size(key)
	if c.capBytes > 0 && sz > c.capBytes {
		return
	}
	if el, ok := c.entries[key]; ok {
		ent := el.Value.(*cacheEntry)
		c.bytes += sz - ent.size
		ent.val, ent.size = val, sz
		c.ll.MoveToFront(el)
	} else {
		c.entries[key] = c.ll.PushFront(&cacheEntry{key: key, val: val, size: sz})
		c.bytes += sz
	}
	for c.ll.Len() > c.cap || (c.capBytes > 0 && c.bytes > c.capBytes) {
		oldest := c.ll.Back()
		ent := oldest.Value.(*cacheEntry)
		c.ll.Remove(oldest)
		delete(c.entries, ent.key)
		c.bytes -= ent.size
		c.evictions++
	}
}

// cacheStats is the /stats view of the cache.
type cacheStats struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Entries       int   `json:"entries"`
	Capacity      int   `json:"capacity"`
	Bytes         int64 `json:"bytes"`
	CapacityBytes int64 `json:"capacity_bytes"`
	Evictions     int64 `json:"evictions"`
}

func (c *resultCache) stats() cacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cacheStats{
		Hits: c.hits, Misses: c.misses,
		Entries: c.ll.Len(), Capacity: c.cap,
		Bytes: c.bytes, CapacityBytes: c.capBytes,
		Evictions: c.evictions,
	}
}
