package dynamics

import (
	"testing"

	"hyperbal/internal/graph"
	"hyperbal/internal/partition"
)

func grid(w, h int) *graph.Graph {
	b := graph.NewBuilder(w * h)
	id := func(x, y int) int { return y*w + x }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				b.AddEdge(id(x, y), id(x+1, y), 1)
			}
			if y+1 < h {
				b.AddEdge(id(x, y), id(x, y+1), 1)
			}
		}
	}
	return b.Build()
}

func stripes(n, k int) partition.Partition {
	p := partition.New(n, k)
	for v := 0; v < n; v++ {
		p.Assign(v, v*k/n)
	}
	return p
}

func TestStructuralDeletesAndRestores(t *testing.T) {
	g := grid(16, 16)
	init := stripes(256, 4)
	s, err := NewStructural(g, init, 4, 0.25, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[int]bool{}
	for epoch := 0; epoch < 6; epoch++ {
		prob, inherited, aliveN := nextEpoch(t, s)
		if aliveN < 256-64-1 || aliveN > 256 {
			t.Fatalf("epoch %d: alive %d, want ~192", epoch, aliveN)
		}
		sizes[aliveN] = true
		if err := prob.G.Validate(); err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		if err := inherited.Validate(); err != nil {
			t.Fatalf("epoch %d inherited: %v", epoch, err)
		}
		if prob.H.NumVertices() != aliveN {
			t.Fatal("H and G vertex counts differ")
		}
		// Observe a trivial recomputed partition (keep inherited).
		if err := s.Observe(inherited); err != nil {
			t.Fatal(err)
		}
	}
}

func nextEpoch(t *testing.T, gen Generator) (prob coreProblem, inherited partition.Partition, n int) {
	t.Helper()
	p, inh := gen.Next()
	return coreProblem{p.G, p.H}, inh, p.G.NumVertices()
}

// coreProblem avoids an import cycle in test helpers.
type coreProblem struct {
	G interface {
		Validate() error
		NumVertices() int
	}
	H interface {
		NumVertices() int
	}
}

// TestStructuralVertexMap checks each epoch's VertexMap against a brute
// force that looks every vertex's original id up in the previous epoch's
// alive list (every vertex, in order, before the first epoch). Each epoch
// deletes a fresh subset, so some vertices return (-1 entries) and some
// previous vertices are dropped (base indices no entry names).
func TestStructuralVertexMap(t *testing.T) {
	const n, epochs = 256, 5
	for _, seed := range []int64{1, 2, 3, 20070326} {
		s, err := NewStructural(grid(16, 16), stripes(n, 4), 4, 0.25, 0.5, seed)
		if err != nil {
			t.Fatal(err)
		}
		prev := make([]int32, n)
		for v := range prev {
			prev[v] = int32(v)
		}
		returned, dropped := 0, 0
		for epoch := 1; epoch <= epochs; epoch++ {
			_, inherited := s.Next()
			got := s.VertexMap()
			if len(got) != len(s.alive) {
				t.Fatalf("seed %d epoch %d: map has %d entries, epoch has %d vertices", seed, epoch, len(got), len(s.alive))
			}
			kept := make([]bool, len(prev))
			for j, id := range s.alive {
				want := int32(-1)
				for i, pid := range prev {
					if pid == id {
						want = int32(i)
					}
				}
				if got[j] != want {
					t.Fatalf("seed %d epoch %d: vertex %d maps to %d, want %d", seed, epoch, j, got[j], want)
				}
				if want < 0 {
					returned++
				} else {
					kept[want] = true
				}
			}
			for _, k := range kept {
				if !k {
					dropped++
				}
			}
			prev = append(prev[:0], s.alive...)
			if err := s.Observe(inherited); err != nil {
				t.Fatal(err)
			}
		}
		if returned == 0 || dropped == 0 {
			t.Fatalf("seed %d: %d returned and %d dropped vertices over %d epochs, want both > 0", seed, returned, dropped, epochs)
		}
	}
}

func TestStructuralObserveLengthCheck(t *testing.T) {
	g := grid(8, 8)
	s, _ := NewStructural(g, stripes(64, 2), 2, 0.25, 0.5, 2)
	s.Next()
	if err := s.Observe(partition.New(3, 2)); err == nil {
		t.Fatal("expected length mismatch error")
	}
}

func TestStructuralValidation(t *testing.T) {
	g := grid(4, 4)
	if _, err := NewStructural(g, partition.New(3, 2), 2, 0.25, 0.5, 1); err == nil {
		t.Fatal("expected error for short init")
	}
	if _, err := NewStructural(g, stripes(16, 2), 2, 1.5, 0.5, 1); err == nil {
		t.Fatal("expected error for vertFrac >= 1")
	}
	if _, err := NewStructural(g, stripes(16, 2), 2, 0.25, 0, 1); err == nil {
		t.Fatal("expected error for partFrac = 0")
	}
}

func TestStructuralTargetsSelectedParts(t *testing.T) {
	// With partFrac = 0.5 and k = 2, each epoch deletes only from one part.
	g := grid(16, 16)
	init := stripes(256, 2)
	s, err := NewStructural(g, init, 2, 0.2, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	prob, inherited := s.Next()
	// count survivors per inherited part
	cnt := map[int32]int{}
	for _, p := range inherited.Parts {
		cnt[p]++
	}
	_ = prob
	// one part must have lost ~51 vertices, the other none
	if cnt[0] == 128 && cnt[1] == 128 {
		t.Fatal("no deletions happened")
	}
	if cnt[0] != 128 && cnt[1] != 128 {
		t.Fatalf("both parts lost vertices: %v; deletions must target selected parts only", cnt)
	}
}

func TestRefinementScalesSelectedParts(t *testing.T) {
	g := grid(16, 16)
	init := stripes(256, 10)
	r, err := NewRefinement(g, init, 10, 0.1, 1.5, 7.5, 5)
	if err != nil {
		t.Fatal(err)
	}
	prob, inherited := r.Next()
	if prob.G.NumVertices() != 256 {
		t.Fatal("refinement must not change the vertex set")
	}
	if err := inherited.Validate(); err != nil {
		t.Fatal(err)
	}
	// Exactly the vertices of one part (k=10, frac=0.1) scale up.
	scaled, unscaled := 0, 0
	for v := 0; v < 256; v++ {
		w := prob.G.Weight(v)
		switch {
		case w == 1:
			unscaled++
		case w >= 1 && w <= 7:
			scaled++
		default:
			t.Fatalf("vertex %d weight %d out of expected range", v, w)
		}
		if prob.G.Size(v) < 1 {
			t.Fatalf("vertex %d size %d < 1", v, prob.G.Size(v))
		}
	}
	if scaled == 0 {
		t.Fatal("no vertices were refined")
	}
	if scaled > 60 {
		t.Fatalf("too many vertices refined: %d (one part is ~26)", scaled)
	}
}

func TestRefinementBoundedRelativeToOriginal(t *testing.T) {
	// Weights must stay within [orig, 7.5*orig] no matter how many epochs
	// pass (no compounding).
	g := grid(8, 8)
	init := stripes(64, 4)
	r, err := NewRefinement(g, init, 4, 0.5, 1.5, 7.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	for epoch := 0; epoch < 20; epoch++ {
		prob, inherited := r.Next()
		for v := 0; v < 64; v++ {
			if w := prob.G.Weight(v); w < 1 || w > 7 {
				t.Fatalf("epoch %d: vertex %d weight %d escaped [1, 7.5]", epoch, v, w)
			}
		}
		if err := r.Observe(inherited); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRefinementValidation(t *testing.T) {
	g := grid(4, 4)
	if _, err := NewRefinement(g, stripes(16, 2), 2, 0, 1.5, 7.5, 1); err == nil {
		t.Fatal("expected error for partFrac = 0")
	}
	if _, err := NewRefinement(g, stripes(16, 2), 2, 0.5, 0.5, 7.5, 1); err == nil {
		t.Fatal("expected error for minF < 1")
	}
	if _, err := NewRefinement(g, stripes(16, 2), 2, 0.5, 3, 2, 1); err == nil {
		t.Fatal("expected error for maxF < minF")
	}
	if _, err := NewRefinement(g, partition.New(5, 2), 2, 0.5, 1.5, 7.5, 1); err == nil {
		t.Fatal("expected error for short init")
	}
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	g := grid(10, 10)
	init := stripes(100, 4)
	s1, _ := NewStructural(g, init, 4, 0.25, 0.5, 42)
	s2, _ := NewStructural(g, init, 4, 0.25, 0.5, 42)
	p1, i1 := s1.Next()
	p2, i2 := s2.Next()
	if p1.G.NumVertices() != p2.G.NumVertices() {
		t.Fatal("same seed, different epoch size")
	}
	for v := range i1.Parts {
		if i1.Parts[v] != i2.Parts[v] {
			t.Fatal("same seed, different inherited partition")
		}
	}
}
