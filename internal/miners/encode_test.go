package miners

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"testing"

	mule "github.com/uncertain-graphs/mule"
)

// The wire shapes of the seven result families, as encoding/json writes
// them from tagged structs.

type cliqueJSON struct {
	Vertices []int   `json:"vertices"`
	Prob     float64 `json:"prob"`
}

type bicliqueJSON struct {
	Left  []int   `json:"left"`
	Right []int   `json:"right"`
	Prob  float64 `json:"prob"`
}

type edgeTrussJSON struct {
	U     int `json:"u"`
	V     int `json:"v"`
	Truss int `json:"truss"`
}

type vertexCoreJSON struct {
	V    int `json:"v"`
	Core int `json:"core"`
}

type denseSubgraphJSON struct {
	Vertices []int   `json:"vertices"`
	Density  float64 `json:"density"`
	Prob     float64 `json:"prob"`
}

type clusterJSON struct {
	Center  int     `json:"center"`
	Members []int   `json:"members"`
	Prob    float64 `json:"prob"`
}

// FuzzAppendMatchesJSON checks every append encoder against json.Marshal
// of the tagged wire structs, on floats from raw bits (with NaN and the
// infinities failing alike), nil and empty slices, and any int.
func FuzzAppendMatchesJSON(f *testing.F) {
	seeds := []float64{
		0, math.Copysign(0, -1), 1, -2, 0.5, 0.1, 1e20, 123456789, 1e-7, -3.5e-9,
		math.SmallestNonzeroFloat64, 0x1p-1022 - math.SmallestNonzeroFloat64, // subnormals
		1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1),
		1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)),
		math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
	}
	ids := binary.LittleEndian.AppendUint64(nil, math.MaxUint64>>1)
	ids = binary.LittleEndian.AppendUint64(ids, 1<<63)
	for i, x := range seeds {
		f.Add(math.Float64bits(x), math.Float64bits(seeds[(i+1)%len(seeds)]), ids, byte(i))
	}
	f.Add(uint64(0), uint64(0), []byte(nil), byte(0))
	f.Add(uint64(0), uint64(0), []byte(nil), byte(7))
	f.Fuzz(func(t *testing.T, bits1, bits2 uint64, raw []byte, shape byte) {
		x, y := math.Float64frombits(bits1), math.Float64frombits(bits2)
		// Three int slices from raw, 8 bytes an int; shape's low bits make
		// an empty one nil.
		var ints [3][]int
		for i := range ints {
			if shape&(1<<i) == 0 {
				ints[i] = []int{}
			}
		}
		for i := 0; len(raw) >= 8; i++ {
			ints[i%3] = append(ints[i%3], int(binary.LittleEndian.Uint64(raw)))
			raw = raw[8:]
		}
		a, b, c := ints[0], ints[1], ints[2]
		n := func(i int) int {
			if len(a) > i {
				return a[i]
			}
			return i
		}
		check := func(name string, got []byte, gotErr error, want any) {
			t.Helper()
			wantB, wantErr := json.Marshal(want)
			switch {
			case (gotErr == nil) != (wantErr == nil):
				t.Fatalf("%s: error %v, json.Marshal's %v", name, gotErr, wantErr)
			case gotErr != nil && gotErr.Error() != wantErr.Error():
				t.Fatalf("%s: error %q, json.Marshal's %q", name, gotErr, wantErr)
			case gotErr == nil && !bytes.Equal(got, wantB):
				t.Fatalf("%s:\ngot  %s\nwant %s", name, got, wantB)
			}
		}
		fb, err := appendFloat(nil, x)
		check("float", fb, err, x)

		// shape bit 3 makes the cliques answer nil, bit 4 empty.
		cl, clJ := []mule.Clique{{Vertices: a, Prob: x}, {Vertices: b, Prob: y}}, []cliqueJSON{{a, x}, {b, y}}
		if shape&8 != 0 {
			cl, clJ = nil, nil
		} else if shape&16 != 0 {
			cl, clJ = cl[:0], clJ[:0]
		}
		got, err := encodeList(cl, appendClique)
		check("cliques", got, err, clJ)

		bc, bcJ := []mule.Biclique{{Left: a, Right: b, Prob: x}, {Left: c, Right: nil, Prob: y}}, []bicliqueJSON{{a, b, x}, {c, nil, y}}
		got, err = encodeList(bc, appendBiclique)
		check("bicliques", got, err, bcJ)

		qs := [][]int{a, b, c}
		if shape&8 != 0 {
			qs = nil
		}
		got, err = encodeList(qs, appendVertexSet)
		check("quasi", got, err, qs)

		tr := []mule.EdgeTruss{{U: n(0), V: n(1), Truss: n(2)}, {U: n(3), V: -n(4), Truss: 2}}
		trJ := []edgeTrussJSON{{n(0), n(1), n(2)}, {n(3), -n(4), 2}}
		got, err = encodeList(tr, appendEdgeTruss)
		check("truss", got, err, trJ)

		co, coJ := []mule.VertexCore{{V: n(5), Core: n(6)}}, []vertexCoreJSON{{n(5), n(6)}}
		got, err = encodeList(co, appendVertexCore)
		check("core", got, err, coJ)

		de := []mule.DenseSubgraph{{Vertices: a, ExpectedDensity: x, Probability: y}, {Vertices: c, ExpectedDensity: y, Probability: x}}
		deJ := []denseSubgraphJSON{{a, x, y}, {c, y, x}}
		got, err = encodeList(de, appendDenseSubgraph)
		check("densest", got, err, deJ)

		cs := []mule.ClusterSet{{Center: n(7), Members: b, Probability: y}}
		csJ := []clusterJSON{{n(7), b, y}}
		got, err = encodeList(cs, appendCluster)
		check("cluster", got, err, csJ)
	})
}
