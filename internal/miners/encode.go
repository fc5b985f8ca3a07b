package miners

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"sync"

	mule "github.com/uncertain-graphs/mule"
)

// muled encodes each answer once, with the typed encoders below, which
// write exactly what encoding/json writes for the same values.

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

// The element encoders, one per result family. Each writes the object
// json.Marshal writes for the family's wire struct: the keys in field
// order, nil slices as null.

func appendClique(b []byte, c mule.Clique) ([]byte, error) {
	b = appendInts(append(b, `{"vertices":`...), c.Vertices)
	b, err := appendFloat(append(b, `,"prob":`...), c.Prob)
	return append(b, '}'), err
}

func appendBiclique(b []byte, c mule.Biclique) ([]byte, error) {
	b = appendInts(append(b, `{"left":`...), c.Left)
	b = appendInts(append(b, `,"right":`...), c.Right)
	b, err := appendFloat(append(b, `,"prob":`...), c.Prob)
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
