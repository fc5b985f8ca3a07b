package dynamic

import (
	"context"
	"testing"

	"github.com/uncertain-graphs/mule/internal/uncertain"
)

// FuzzMaintainerApply decodes a small graph and a sequence of update
// batches from the input, applies the batches, and after every batch checks
// the maintainer against a Builder build of the committed edges and
// against a fresh enumeration of its graph.
//
// Layout: byte 0 picks n (2–12), byte 1 picks α, byte 2 the number of
// seed edges, then one (u, v, level) triple per seed edge; the rest is one
// (u, v, op) triple per update. In op, bits 0–1 pick the probability level,
// bit 2 makes the update a removal and bit 3 ends the batch after it.
// Updates are not filtered: a self-loop, or the removal of an absent edge,
// fails its batch, and the model then takes only the committed prefix.
func FuzzMaintainerApply(f *testing.F) {
	f.Add([]byte{4, 0, 3, 0, 1, 0, 1, 2, 1, 2, 3, 2, 0, 2, 8, 1, 2, 4, 0, 3, 1})
	f.Add([]byte{6, 2, 5, 0, 1, 0, 0, 2, 0, 1, 2, 0, 3, 4, 1, 4, 5, 1, 2, 3, 0, 2, 3, 12, 0, 0, 0})
	f.Add([]byte{9, 1, 0, 0, 1, 0, 1, 2, 0, 0, 2, 8, 0, 1, 4, 0, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := 2 + int(data[0])%11
		alpha := dyadicProbs[1+int(data[1])%3]
		seed := int(data[2]) % 40
		data = data[3:]
		b := uncertain.NewBuilder(n)
		for ; seed > 0 && len(data) >= 3; seed-- {
			u, v := int(data[0])%n, int(data[1])%n
			if u != v {
				_ = b.UpsertEdge(u, v, dyadicProbs[data[2]%4])
			}
			data = data[3:]
		}
		g := b.Build()
		m, err := New(g, alpha)
		if err != nil {
			t.Fatal(err)
		}
		em := modelOf(g)
		cliques := m.Cliques()
		for updates := 0; len(data) >= 3 && updates < 64; {
			var batch []EdgeUpdate
			for len(data) >= 3 && updates < 64 {
				up := EdgeUpdate{U: int(data[0]) % n, V: int(data[1]) % n,
					P: dyadicProbs[data[2]%4], Remove: data[2]&4 != 0}
				end := data[2]&8 != 0
				data = data[3:]
				batch = append(batch, up)
				updates++
				if end {
					break
				}
			}
			diff, st, err := m.Apply(context.Background(), batch)
			if err == nil && st.Updates != len(batch) || err != nil && st.Updates >= len(batch) {
				t.Fatalf("batch %+v: %d updates committed, err %v", batch, st.Updates, err)
			}
			for _, up := range batch[:st.Updates] {
				em.apply(up)
			}
			cliques = checkReplayStep(t, m, em, cliques, diff, "fuzz batch")
		}
	})
}
