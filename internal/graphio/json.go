package graphio

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"github.com/uncertain-graphs/mule/internal/uncertain"
)

// jsonGraph is the JSON wire form (extension .json):
//
//	{"vertices": 4, "edges": [{"u": 0, "v": 1, "p": 0.5}, …]}
//
// It exists for interchange with tooling outside this repository; the text
// format remains the human-editable default and the binary format the
// compact one.
type jsonGraph struct {
	Vertices int        `json:"vertices"`
	Edges    []jsonEdge `json:"edges"`
}

type jsonEdge struct {
	U int     `json:"u"`
	V int     `json:"v"`
	P float64 `json:"p"`
}

// WriteJSON writes g in the JSON format, edges sorted by (U, V).
func WriteJSON(w io.Writer, g *uncertain.Graph) error {
	edges := g.Edges()
	jg := jsonGraph{Vertices: g.NumVertices(), Edges: make([]jsonEdge, len(edges))}
	for i, e := range edges {
		jg.Edges[i] = jsonEdge{U: e.U, V: e.V, P: e.P}
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(jg); err != nil {
		return fmt.Errorf("graphio: encoding JSON: %w", err)
	}
	return bw.Flush()
}

// ReadJSON parses the JSON format, decoding edge objects one at a time into
// a two-pass CSR build instead of unmarshaling the whole document. Unknown
// fields are rejected so that structural typos surface as errors instead of
// silently empty graphs.
func ReadJSON(r io.Reader) (*uncertain.Graph, error) {
	g, _, err := buildGraph(r, func(rr io.Reader, _ bool, fn EdgeFunc) (Header, error) {
		return scanJSON(rr, fn)
	}, 1, 0)
	return g, err
}
