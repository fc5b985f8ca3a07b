package server

import (
	"encoding/json"
	"net/http"
	"strconv"
)

// A query response is encoded once. A runner appends its sorted answer to
// a byte slice with the typed encoders of internal/miners, which write
// exactly what encoding/json writes for the same values; the settled
// answer is stored in the cache as those bytes, and every response for it,
// the first and every hit, writes them verbatim after a head encoding/json
// marshals.
//
// The layout is a wire contract: the head fields in declaration order, then
// "results", then "stats", then a newline. Clients that split a response
// without decoding its results rely on it.

// queryHead is the part of a query response encoding/json writes.
type queryHead struct {
	Graph     string `json:"graph"`
	Epoch     uint64 `json:"epoch"`
	Miner     string `json:"miner"`
	Cached    bool   `json:"cached"`
	Truncated bool   `json:"truncated"`
	Status    string `json:"status"`
	Count     int64  `json:"count"`
}

// writeQuery writes one 200 query response for res with its length
// announced up front: the head, then res's stored results and stats bytes
// as they are, then "}" and a newline. A response without stats bytes
// omits the field.
func writeQuery(w http.ResponseWriter, graph string, epoch uint64, miner string, cached bool, res *cachedResult) {
	// Strings, integers and booleans: marshalling cannot fail.
	head, _ := json.Marshal(queryHead{
		Graph: graph, Epoch: epoch, Miner: miner, Cached: cached,
		Truncated: res.Truncated, Status: res.Status, Count: res.Count,
	})
	head = append(head[:len(head)-1], `,"results":`...)
	tail := make([]byte, 0, len(`,"stats":`)+len(res.Stats)+2)
	if len(res.Stats) > 0 {
		tail = append(append(tail, `,"stats":`...), res.Stats...)
	}
	tail = append(tail, "}\n"...)

	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(head)+len(res.Results)+len(tail)))
	w.WriteHeader(http.StatusOK)
	// A failed write means the client went away; there is no one to tell.
	_, _ = w.Write(head)
	_, _ = w.Write(res.Results)
	_, _ = w.Write(tail)
}
