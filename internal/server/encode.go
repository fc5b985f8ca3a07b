package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"

	mule "github.com/uncertain-graphs/mule"
)

// A query response is encoded once. A runner appends its sorted answer to
// a byte slice with the typed encoders below, which write exactly what
// encoding/json writes for the same values; the settled answer is stored
// in the cache as those bytes, and every response for it, the first and
// every hit, writes them verbatim after a head encoding/json marshals.
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

// encodeBufs recycles the scratch an answer is encoded into. The answer
// itself is copied out at its exact size: the cache then holds no more
// memory than the bytes it charges, and nothing it stores or a response
// writes is ever pooled.
var encodeBufs = sync.Pool{New: func() any { return new([]byte) }}

// encodeList encodes xs as json.Marshal would a slice of their wire
// structs, appending each element with elem. The error is the one
// json.Marshal returns for a non-finite float.
func encodeList[T any](xs []T, elem func([]byte, T) ([]byte, error)) ([]byte, error) {
	buf := encodeBufs.Get().(*[]byte)
	defer encodeBufs.Put(buf)
	b := (*buf)[:0]
	if xs == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, x := range xs {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = elem(b, x); err != nil {
				return nil, err
			}
		}
		b = append(b, ']')
	}
	*buf = b
	return bytes.Clone(b), nil
}

// appendInts appends xs as a JSON array of integers, or null for a nil
// slice.
func appendInts(b []byte, xs []int) []byte {
	if xs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return append(b, ']')
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// decimal that reads back as f, in 'e' notation when |f| < 1e-6 or
// |f| ≥ 1e21 and in 'f' notation otherwise, with a one-digit negative
// exponent written without its leading zero (1e-7, not 1e-07). NaN and
// the infinities fail as json.Marshal fails on them.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// clique and biclique are the collected cliques and bicliques, copied out
// of the visitor's reused buffers. The other families collect the
// library's own result types.
type clique struct {
	vertices []int
	prob     float64
}

type biclique struct {
	left, right []int
	prob        float64
}

// The element encoders, one per result family. Each writes the object
// json.Marshal writes for the family's wire struct: the keys in field
// order, nil slices as null.

func appendClique(b []byte, c clique) ([]byte, error) {
	b = appendInts(append(b, `{"vertices":`...), c.vertices)
	b, err := appendFloat(append(b, `,"prob":`...), c.prob)
	return append(b, '}'), err
}

func appendBiclique(b []byte, c biclique) ([]byte, error) {
	b = appendInts(append(b, `{"left":`...), c.left)
	b = appendInts(append(b, `,"right":`...), c.right)
	b, err := appendFloat(append(b, `,"prob":`...), c.prob)
	return append(b, '}'), err
}

func appendVertexSet(b []byte, s []int) ([]byte, error) {
	return appendInts(b, s), nil
}

func appendEdgeTruss(b []byte, e mule.EdgeTruss) ([]byte, error) {
	b = strconv.AppendInt(append(b, `{"u":`...), int64(e.U), 10)
	b = strconv.AppendInt(append(b, `,"v":`...), int64(e.V), 10)
	b = strconv.AppendInt(append(b, `,"truss":`...), int64(e.Truss), 10)
	return append(b, '}'), nil
}

func appendVertexCore(b []byte, vc mule.VertexCore) ([]byte, error) {
	b = strconv.AppendInt(append(b, `{"v":`...), int64(vc.V), 10)
	b = strconv.AppendInt(append(b, `,"core":`...), int64(vc.Core), 10)
	return append(b, '}'), nil
}

func appendDenseSubgraph(b []byte, c mule.DenseSubgraph) ([]byte, error) {
	b = appendInts(append(b, `{"vertices":`...), c.Vertices)
	b, err := appendFloat(append(b, `,"density":`...), c.ExpectedDensity)
	if err != nil {
		return b, err
	}
	b, err = appendFloat(append(b, `,"prob":`...), c.Probability)
	return append(b, '}'), err
}

func appendCluster(b []byte, c mule.ClusterSet) ([]byte, error) {
	b = strconv.AppendInt(append(b, `{"center":`...), int64(c.Center), 10)
	b = appendInts(append(b, `,"members":`...), c.Members)
	b, err := appendFloat(append(b, `,"prob":`...), c.Probability)
	return append(b, '}'), err
}
