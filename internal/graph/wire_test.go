package graph

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"hyperbal/internal/hypergraph"
	"hyperbal/internal/wire"
)

// decode reads one graph frame that must fill data exactly.
func decode(data []byte) (*Graph, error) {
	g := new(Graph)
	r := wire.NewReader(data)
	if err := g.DecodeWire(r); err != nil {
		return nil, err
	}
	if r.Rem() != 0 {
		return nil, fmt.Errorf("%d bytes left after decode", r.Rem())
	}
	return g, nil
}

// buildTestGraph makes a small graph with non-trivial weights and sizes.
func buildTestGraph(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(6)
	b.SetWeight(0, 3)
	b.SetWeight(5, 7)
	b.SetSize(1, 4)
	b.AddEdge(0, 1, 2)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 3, 5)
	b.AddEdge(3, 4, 1)
	b.AddEdge(4, 5, 9)
	b.AddEdge(0, 5, 1)
	g := b.Build()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestGraphWireRoundTrip: the CSR wire frame must reproduce the graph
// exactly — field for field, and (the check the compute plane relies on)
// with an identical column-net hypergraph fingerprint and text rendering.
func TestGraphWireRoundTrip(t *testing.T) {
	g := buildTestGraph(t)
	buf := g.AppendWire([]byte("prefix"))
	if !bytes.HasPrefix(buf, []byte("prefix")) {
		t.Fatal("AppendWire did not append")
	}
	got, err := decode(buf[len("prefix"):])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, g) {
		t.Fatalf("decoded graph differs:\n got %v\nwant %v", got, g)
	}
	hw, hg := ToHypergraph(g), ToHypergraph(got)
	if hw.Fingerprint() != hg.Fingerprint() {
		t.Fatalf("hypergraph fingerprints differ: %s vs %s", hw.Fingerprint(), hg.Fingerprint())
	}
	var tw, tg strings.Builder
	if err := hypergraph.WriteText(&tw, hw); err != nil {
		t.Fatal(err)
	}
	if err := hypergraph.WriteText(&tg, hg); err != nil {
		t.Fatal(err)
	}
	if tw.String() != tg.String() {
		t.Fatal("text renderings differ after wire round trip")
	}
}

func TestGraphWireEmpty(t *testing.T) {
	g := NewBuilder(0).Build()
	got, err := decode(g.AppendWire(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumVertices() != 0 || got.NumEdges() != 0 {
		t.Fatalf("empty graph decoded to %d vertices, %d edges", got.NumVertices(), got.NumEdges())
	}
}

// TestGraphWireHostile: corrupt frames fail cleanly — counts past the
// limits, adjacency out of range, and truncations must all error without
// panicking or allocating attacker-sized buffers.
func TestGraphWireHostile(t *testing.T) {
	valid := buildTestGraph(t).AppendWire(nil)
	cases := map[string][]byte{
		"empty":          nil,
		"truncated":      valid[:len(valid)-3],
		"vertex bomb":    {0xff, 0xff, 0xff, 0xff, 0x7f},
		"degree overrun": {2, 0xff, 0xff, 0x7f, 0},
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := decode(data); err == nil {
				t.Fatal("DecodeWire accepted hostile input")
			}
		})
	}
	// Flip an adjacency entry out of range: vertex count stays 6 but an
	// endpoint points past it.
	bad := buildTestGraph(t)
	bad.adjncy[0] = 99
	if _, err := decode(bad.AppendWire(nil)); err == nil {
		t.Fatal("DecodeWire accepted an out-of-range adjacency")
	}
}
