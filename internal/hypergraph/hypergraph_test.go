package hypergraph

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// paperExample builds the epoch j-1 hypergraph of Figure 1: nine unit
// vertices, three nets.
func paperExample() *Hypergraph {
	b := NewBuilder(9)
	b.AddNet(1, 0, 1, 2) // {1,2,3}
	b.AddNet(1, 3, 4, 5) // {4,5,6}
	b.AddNet(1, 6, 7, 8) // {7,8,9}
	return b.Build()
}

func TestBuilderBasic(t *testing.T) {
	h := paperExample()
	if h.NumVertices() != 9 {
		t.Fatalf("NumVertices = %d, want 9", h.NumVertices())
	}
	if h.NumNets() != 3 {
		t.Fatalf("NumNets = %d, want 3", h.NumNets())
	}
	if h.NumPins() != 9 {
		t.Fatalf("NumPins = %d, want 9", h.NumPins())
	}
	if err := h.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := h.Pins(1); len(got) != 3 || got[0] != 3 || got[2] != 5 {
		t.Fatalf("Pins(1) = %v", got)
	}
	if h.Degree(4) != 1 {
		t.Fatalf("Degree(4) = %d, want 1", h.Degree(4))
	}
	if h.TotalWeight() != 9 {
		t.Fatalf("TotalWeight = %d, want 9", h.TotalWeight())
	}
}

func TestBuilderDuplicatePinsRemoved(t *testing.T) {
	for _, c := range []struct {
		name string
		nets [][]int
		want [][]int32 // pins per net, first occurrences in order
	}{
		{"within one net", [][]int{{0, 1, 1, 0, 2}}, [][]int32{{0, 1, 2}}},
		// The dedup marker must not carry over: a pin that repeats within
		// a net and then opens the next net is kept there, once.
		{"within and across consecutive nets",
			[][]int{{2, 0, 2, 2}, {2, 1, 2, 0}, {0, 0}, {1, 2}},
			[][]int32{{2, 0}, {2, 1, 0}, {0}, {1, 2}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			b := NewBuilder(3)
			for _, pins := range c.nets {
				b.AddNet(5, pins...)
			}
			h := b.Build()
			for n, want := range c.want {
				if got := h.Pins(n); !slices.Equal(got, want) {
					t.Errorf("net %d pins = %v, want %v", n, got, want)
				}
			}
			if err := h.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
		})
	}
}

func TestBuilderOutOfRangePinPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range pin")
		}
	}()
	NewBuilder(2).AddNet(1, 0, 5)
}

func TestVertexNetCSRConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := NewBuilder(50)
	for n := 0; n < 120; n++ {
		sz := 2 + rng.Intn(6)
		pins := rng.Perm(50)[:sz]
		b.AddNet(int64(1+rng.Intn(9)), pins...)
	}
	h := b.Build()
	if err := h.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Every pin appears exactly once in each direction.
	count := 0
	for v := 0; v < h.NumVertices(); v++ {
		count += h.Degree(v)
	}
	if count != h.NumPins() {
		t.Fatalf("sum of degrees %d != pins %d", count, h.NumPins())
	}
}

func TestFixedLabels(t *testing.T) {
	b := NewBuilder(4)
	b.Fix(2, 1)
	h := b.Build()
	if !h.HasFixed() {
		t.Fatal("HasFixed = false")
	}
	if h.Fixed(2) != 1 || h.Fixed(0) != Free {
		t.Fatalf("Fixed labels wrong: %d %d", h.Fixed(2), h.Fixed(0))
	}
	free := h.WithoutFixed()
	if free.HasFixed() {
		t.Fatal("WithoutFixed still has fixed labels")
	}
	relabeled := h.WithFixed([]int32{0, Free, Free, 1})
	if relabeled.Fixed(0) != 0 || relabeled.Fixed(3) != 1 {
		t.Fatal("WithFixed labels not applied")
	}
	// Original untouched.
	if h.Fixed(0) != Free {
		t.Fatal("WithFixed mutated original")
	}
}

func TestWithFixedLengthMismatchPanics(t *testing.T) {
	h := paperExample()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	h.WithFixed([]int32{0})
}

func TestScaleCosts(t *testing.T) {
	h := paperExample()
	s := h.ScaleCosts(5)
	for n := 0; n < s.NumNets(); n++ {
		if s.Cost(n) != 5 {
			t.Fatalf("scaled cost = %d, want 5", s.Cost(n))
		}
		if h.Cost(n) != 1 {
			t.Fatalf("original cost mutated")
		}
	}
}

func TestClone(t *testing.T) {
	b := NewBuilder(3)
	b.SetWeight(1, 7)
	b.SetSize(2, 9)
	b.Fix(0, 2)
	b.AddNet(4, 0, 1, 2)
	h := b.Build()
	c := h.Clone()
	if err := c.Validate(); err != nil {
		t.Fatalf("clone Validate: %v", err)
	}
	if c.Weight(1) != 7 || c.Size(2) != 9 || c.Fixed(0) != 2 {
		t.Fatal("clone lost attributes")
	}
}

func TestStats(t *testing.T) {
	h := paperExample()
	s := ComputeStats(h)
	if s.NumVertices != 9 || s.NumNets != 3 || s.NumPins != 9 {
		t.Fatalf("stats counts wrong: %+v", s)
	}
	if s.MinDegree != 1 || s.MaxDegree != 1 || s.AvgDegree != 1 {
		t.Fatalf("degree stats wrong: %+v", s)
	}
	if s.MinNetSize != 3 || s.MaxNetSize != 3 || s.AvgNetSize != 3 {
		t.Fatalf("net size stats wrong: %+v", s)
	}
}

func TestStatsEmpty(t *testing.T) {
	h := NewBuilder(0).Build()
	s := ComputeStats(h)
	if s.NumVertices != 0 || s.MaxDegree != 0 {
		t.Fatalf("empty stats wrong: %+v", s)
	}
}

func TestIORoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := NewBuilder(30)
	for v := 0; v < 30; v++ {
		b.SetWeight(v, int64(1+rng.Intn(10)))
		b.SetSize(v, int64(1+rng.Intn(5)))
	}
	for n := 0; n < 40; n++ {
		sz := 2 + rng.Intn(5)
		b.AddNet(int64(1+rng.Intn(4)), rng.Perm(30)[:sz]...)
	}
	h := b.Build()

	var buf bytes.Buffer
	if err := WriteText(&buf, h); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	g, err := ReadText(&buf)
	if err != nil {
		t.Fatalf("ReadText: %v", err)
	}
	if g.NumVertices() != h.NumVertices() || g.NumNets() != h.NumNets() || g.NumPins() != h.NumPins() {
		t.Fatalf("round trip size mismatch: %v vs %v", g, h)
	}
	for v := 0; v < h.NumVertices(); v++ {
		if g.Weight(v) != h.Weight(v) || g.Size(v) != h.Size(v) {
			t.Fatalf("vertex %d attribute mismatch", v)
		}
	}
	for n := 0; n < h.NumNets(); n++ {
		if g.Cost(n) != h.Cost(n) {
			t.Fatalf("net %d cost mismatch", n)
		}
		gp, hp := g.SortedPins(n), h.SortedPins(n)
		for i := range gp {
			if gp[i] != hp[i] {
				t.Fatalf("net %d pins differ: %v vs %v", n, gp, hp)
			}
		}
	}
}

func TestReadTextPlainHMETIS(t *testing.T) {
	// fmtcode absent: unit costs, unit weights.
	in := "% comment\n3 4\n1 2\n2 3 4\n1 4\n"
	h, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadText: %v", err)
	}
	if h.NumVertices() != 4 || h.NumNets() != 3 {
		t.Fatalf("parsed %v", h)
	}
	if h.Cost(0) != 1 || h.Weight(0) != 1 {
		t.Fatal("defaults not applied")
	}
}

func TestReadTextErrors(t *testing.T) {
	cases := []string{
		"",                   // no header
		"x y\n",              // non-numeric header
		"1\n",                // short header
		"1 3\n",              // missing net line
		"1 3 1\n5\n",         // net with cost only, no pins
		"1 3\n1 9\n",         // pin out of range
		"1 2 11\n1 1 2\n5\n", // missing one weight
	}
	for i, in := range cases {
		if _, err := ReadText(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: expected error for %q", i, in)
		}
	}
}

// Property: for random hypergraphs, Build output always validates and
// degree sums equal pin counts.
func TestQuickBuildInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nv := 1 + rng.Intn(40)
		b := NewBuilder(nv)
		nn := rng.Intn(60)
		for n := 0; n < nn; n++ {
			sz := 1 + rng.Intn(nv)
			if sz > 8 {
				sz = 8
			}
			b.AddNet(int64(rng.Intn(10)), rng.Perm(nv)[:sz]...)
		}
		h := b.Build()
		if err := h.Validate(); err != nil {
			return false
		}
		sum := 0
		for v := 0; v < nv; v++ {
			sum += h.Degree(v)
		}
		return sum == h.NumPins()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: IO round trip preserves stats.
func TestQuickIORoundTripStats(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nv := 1 + rng.Intn(20)
		b := NewBuilder(nv)
		for v := 0; v < nv; v++ {
			b.SetWeight(v, int64(1+rng.Intn(6)))
			b.SetSize(v, int64(1+rng.Intn(6)))
		}
		for n := 0; n < rng.Intn(25); n++ {
			sz := 1 + rng.Intn(nv)
			b.AddNet(int64(1+rng.Intn(5)), rng.Perm(nv)[:sz]...)
		}
		h := b.Build()
		var buf bytes.Buffer
		if WriteText(&buf, h) != nil {
			return false
		}
		g, err := ReadText(&buf)
		if err != nil {
			return false
		}
		return ComputeStats(g) == ComputeStats(h)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
