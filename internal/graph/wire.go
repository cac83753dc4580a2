package graph

import (
	"fmt"

	"hyperbal/internal/wire"
)

// A Graph ships to compute workers as one field of a codec-declared
// message (internal/wire): it lays itself out as the declared frame below
// in the Varint layout, so every count is bounded by the bytes present and
// a hostile frame yields a clean error, never a panic or an allocation
// bomb. Degrees stand in for the xadj offsets, so they stay one byte each.

// MaxWireVertices bounds a decoded graph, mirroring
// hypergraph.MaxWireVertices.
const MaxWireVertices = 1 << 24

// MaxWireEdgeEntries bounds the CSR adjacency length (2x edges).
const MaxWireEdgeEntries = 1 << 28

type frame struct {
	Degrees []uint32
	Adjncy  []int32
	Adjwgt  []int64
	Vwgt    []int64
	Vsize   []int64
}

// AppendWire appends g's frame.
func (g *Graph) AppendWire(buf []byte) []byte {
	f := frame{Degrees: make([]uint32, g.NumVertices()), Adjncy: g.adjncy, Adjwgt: g.adjwgt, Vwgt: g.vwgt, Vsize: g.vsize}
	for v := range f.Degrees {
		f.Degrees[v] = uint32(g.xadj[v+1] - g.xadj[v])
	}
	buf, _ = wire.Varint.Append(buf, f) // a declared struct always has a layout
	return buf
}

// DecodeWire reads one frame into g and validates the CSR invariants.
func (g *Graph) DecodeWire(r *wire.Reader) error {
	var f frame
	if err := wire.Varint.Read(r, &f); err != nil {
		return fmt.Errorf("graph: %w", err)
	}
	n := len(f.Degrees)
	if n > MaxWireVertices || len(f.Adjncy) > MaxWireEdgeEntries ||
		len(f.Vwgt) != n || len(f.Vsize) != n || len(f.Adjwgt) != len(f.Adjncy) {
		return fmt.Errorf("graph: %w: %d vertices with %d weights and %d sizes, %d neighbours with %d edge weights",
			wire.ErrMalformed, n, len(f.Vwgt), len(f.Vsize), len(f.Adjncy), len(f.Adjwgt))
	}
	xadj := make([]int32, n+1)
	total := 0
	for v, d := range f.Degrees {
		if total += int(d); total > len(f.Adjncy) {
			return fmt.Errorf("graph: %w: degrees overrun %d adjacency entries", wire.ErrMalformed, len(f.Adjncy))
		}
		xadj[v+1] = int32(total)
	}
	if total != len(f.Adjncy) {
		return fmt.Errorf("graph: %w: degrees cover %d of %d adjacency entries", wire.ErrMalformed, total, len(f.Adjncy))
	}
	*g = Graph{xadj: xadj, adjncy: f.Adjncy, adjwgt: f.Adjwgt, vwgt: f.Vwgt, vsize: f.Vsize}
	if err := g.Validate(); err != nil {
		return fmt.Errorf("graph: decoded frame invalid: %w", err)
	}
	return nil
}
