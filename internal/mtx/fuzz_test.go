package mtx

import (
	"bytes"
	"testing"
)

// FuzzRead asserts the MatrixMarket reader never panics, that parsed
// matrices satisfy their index invariants, and that the hypergraph
// conversion stays within bounds on whatever Read accepts.
func FuzzRead(f *testing.F) {
	f.Add([]byte("%%MatrixMarket matrix coordinate real general\n3 3 2\n1 2 1.0\n2 3 4.0\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate pattern symmetric\n% comment\n4 4 3\n1 2\n2 3\n4 4\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate integer skew-symmetric\n3 3 1\n2 1 -5\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate real general\n2 5 2\n1 4 1\n2 5 1\n"))
	f.Add([]byte("%%MatrixMarket matrix array real general\n2 2\n"))
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip("oversized input")
		}
		m, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if m.Rows <= 0 || m.Cols <= 0 {
			t.Fatalf("accepted non-positive dimensions %dx%d", m.Rows, m.Cols)
		}
		if len(m.RowIdx) != len(m.ColIdx) {
			t.Fatalf("index slices diverge: %d vs %d", len(m.RowIdx), len(m.ColIdx))
		}
		for e := range m.RowIdx {
			if m.RowIdx[e] < 0 || int(m.RowIdx[e]) >= m.Rows {
				t.Fatalf("entry %d: row %d outside [0,%d)", e, m.RowIdx[e], m.Rows)
			}
			if m.ColIdx[e] < 0 || int(m.ColIdx[e]) >= m.Cols {
				t.Fatalf("entry %d: col %d outside [0,%d)", e, m.ColIdx[e], m.Cols)
			}
		}
		// The converter allocates O(rows+cols); skip giants, convert the rest.
		if m.Rows > 1<<20 || m.Cols > 1<<20 {
			t.Skip("absurd dimensions")
		}
		h, err := ToHypergraph(m)
		if err != nil {
			t.Fatalf("ToHypergraph on a parsed matrix: %v", err)
		}
		if h.NumVertices() != m.Rows {
			t.Fatalf("hypergraph has %d vertices, matrix %d rows", h.NumVertices(), m.Rows)
		}
		if h.NumNets() > m.Cols {
			t.Fatalf("hypergraph has %d nets, matrix %d columns", h.NumNets(), m.Cols)
		}
	})
}
