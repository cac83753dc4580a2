package mtx

import (
	"strconv"
	"strings"
	"testing"
)

const general = `%%MatrixMarket matrix coordinate real general
% a 4x4 non-symmetric pattern
4 4 5
1 2 1.5
2 3 -2.0
3 1 0.5
4 4 9.0
2 1 1.0
`

const symmetric = `%%MatrixMarket matrix coordinate pattern symmetric
3 3 3
2 1
3 1
3 3
`

func TestReadGeneral(t *testing.T) {
	m, err := Read(strings.NewReader(general))
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 4 || m.Cols != 4 || m.NumEntries() != 5 {
		t.Fatalf("parsed %+v", m)
	}
	if m.Symmetric {
		t.Fatal("general matrix flagged symmetric")
	}
}

func TestReadSymmetricExpands(t *testing.T) {
	m, err := Read(strings.NewReader(symmetric))
	if err != nil {
		t.Fatal(err)
	}
	// 2 off-diagonal entries expand to 4, diagonal stays 1.
	if m.NumEntries() != 5 {
		t.Fatalf("entries = %d, want 5", m.NumEntries())
	}
	if !m.Symmetric {
		t.Fatal("symmetric flag lost")
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"",
		"not a header\n1 1 0\n",
		"%%MatrixMarket matrix array real general\n2 2 0\n",
		"%%MatrixMarket matrix coordinate real general\n-1 2 1\n1 1\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n5 1 1.0\n", // out of range
		"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n", // short
		"%%MatrixMarket matrix coordinate real weird\n2 2 0\n",
	}
	for i, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestToHypergraphColumnNet(t *testing.T) {
	m, _ := Read(strings.NewReader(general))
	h, err := ToHypergraph(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	// column 1: rows {3,2} + owner 1 -> 3 pins
	// column 2: rows {1} + owner 2 -> 2 pins
	// column 3: rows {2} + owner 3 -> 2 pins
	// column 4: rows {4} + owner 4 -> 1 pin (dropped)
	if h.NumNets() != 3 {
		t.Fatalf("nets = %d, want 3", h.NumNets())
	}
	sizes := map[int]int{}
	for n := 0; n < h.NumNets(); n++ {
		sizes[h.NetSize(n)]++
	}
	if sizes[3] != 1 || sizes[2] != 2 {
		t.Fatalf("net size histogram %v, want {3:1, 2:2}", sizes)
	}
}

func TestToHypergraphRectangular(t *testing.T) {
	// 3x2 rectangular: column nets over rows only, no owner row.
	in := "%%MatrixMarket matrix coordinate pattern general\n3 2 4\n1 1\n2 1\n3 2\n1 2\n"
	m, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	h, err := ToHypergraph(m)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumVertices() != 3 || h.NumNets() != 2 {
		t.Fatalf("got %v", h)
	}
}

func TestRoundTripThroughPartitioner(t *testing.T) {
	// A banded 20x20 matrix: the column-net hypergraph partitions cleanly.
	var sb strings.Builder
	sb.WriteString("%%MatrixMarket matrix coordinate pattern general\n20 20 38\n")
	for i := 1; i < 20; i++ {
		sb.WriteString(strings.Join([]string{itoa(i), itoa(i + 1)}, " ") + "\n")
		sb.WriteString(strings.Join([]string{itoa(i + 1), itoa(i)}, " ") + "\n")
	}
	m, err := Read(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	h, err := ToHypergraph(m)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumVertices() != 20 {
		t.Fatalf("vertices = %d", h.NumVertices())
	}
}

func itoa(x int) string { return strconv.Itoa(x) }
