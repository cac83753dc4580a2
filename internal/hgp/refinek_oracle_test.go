package hgp

import (
	"math/rand"
	"slices"
	"testing"

	"hyperbal/internal/hypergraph"
	"hyperbal/internal/partition"
)

// This file keeps the k-way move scoring as it was before gains scored
// every destination of a vertex in one pass over its nets: AdjacentParts,
// which scanned all k pin counts of every net, the BestMove built on it
// and MoveGain, and repairBalance's per-destination MoveGain scan. The
// live kernels must reproduce them exactly: the same gains, the same
// candidate order and the same moves.

// AdjacentParts collects the parts that nets of v touch (excluding v's own
// part), in first-touch order.
func (s *KwayState) AdjacentParts(v int) []int32 {
	var buf []int32
	mark := make([]bool, s.k)
	from := s.parts[v]
	for _, nn := range s.h.Nets(v) {
		base := int(nn) * s.k
		for p := 0; p < s.k; p++ {
			if int32(p) != from && s.pinCount[base+p] > 0 && !mark[p] {
				mark[p] = true
				buf = append(buf, int32(p))
			}
		}
	}
	return buf
}

// oracleBestMove is BestMove over AdjacentParts and MoveGain.
func oracleBestMove(s *KwayState, v int, caps []int64) (to int32, gain int64) {
	to = -1
	wv := s.h.Weight(v)
	for _, q := range s.AdjacentParts(v) {
		if s.w[q]+wv > caps[q] {
			continue
		}
		if g := s.MoveGain(v, q); to < 0 || g > gain {
			to, gain = q, g
		}
	}
	return to, gain
}

// oracleRepairBalance is repairBalance with a MoveGain call per
// (vertex, destination) candidate.
func oracleRepairBalance(s *KwayState, caps []int64) []int32 {
	h, k := s.h, s.k
	n := h.NumVertices()
	var moved []int32
	for len(moved) <= n {
		src := int32(-1)
		var worst int64
		for p := 0; p < k; p++ {
			if over := s.w[p] - caps[p]; over > worst {
				worst, src = over, int32(p)
			}
		}
		if src < 0 {
			break
		}
		bestV, bestTo := int32(-1), int32(-1)
		var bestGain int64
		for v := 0; v < n; v++ {
			if s.parts[v] != src || h.Fixed(v) != hypergraph.Free {
				continue
			}
			wt := h.Weight(v)
			for p := 0; p < k; p++ {
				to := int32(p)
				if to == src || s.w[p]+wt > caps[p] {
					continue
				}
				g := s.MoveGain(v, to)
				if bestV < 0 || g > bestGain || (g == bestGain && s.w[to] < s.w[bestTo]) {
					bestV, bestTo, bestGain = int32(v), to, g
				}
			}
		}
		if bestV < 0 {
			break
		}
		s.Move(int(bestV), bestTo)
		moved = append(moved, bestV)
	}
	return moved
}

// oracleRefineKwayWithMigration is RefineKwayWithMigration over
// AdjacentParts and MoveGain.
func oracleRefineKwayWithMigration(h *hypergraph.Hypergraph, k int, parts []int32, oldPart []int32, alpha int64, caps []int64, passes int) int64 {
	s := NewKwayState(h, k, parts)
	for pass := 0; pass < passes; pass++ {
		improved := false
		for v := 0; v < h.NumVertices(); v++ {
			if h.Fixed(v) != hypergraph.Free {
				continue
			}
			from := s.PartOf(v)
			var bestTo int32 = -1
			var bestGain int64
			overFrom := s.PartWeight(from) > caps[from]
			var forcedTo int32 = -1
			var forcedGain int64
			for _, to := range s.AdjacentParts(v) {
				if s.PartWeight(to)+h.Weight(v) > caps[to] {
					continue
				}
				gain := alpha * s.MoveGain(v, to)
				if from == oldPart[v] {
					gain -= h.Size(v)
				}
				if to == oldPart[v] {
					gain += h.Size(v)
				}
				if gain > bestGain {
					bestGain = gain
					bestTo = to
				}
				if overFrom && (forcedTo == -1 || gain > forcedGain) {
					forcedGain = gain
					forcedTo = to
				}
			}
			to := bestTo
			if bestGain <= 0 {
				to = -1
			}
			if to == -1 && overFrom {
				to = forcedTo
			}
			if to >= 0 {
				s.Move(v, to)
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return s.Cut()
}

// kwayOracleInput builds a random hypergraph over n vertices laid out in k
// contiguous blocks, and a partition that follows the blocks except that
// a third of the vertices sit on part 0, which is then over its cap.
// Half the nets draw their pins from a narrow window, so many lie inside
// one part; the rest draw from anywhere and are cut. One vertex in nine
// is fixed to its part; net costs include zero.
func kwayOracleInput(rng *rand.Rand, k int) (*hypergraph.Hypergraph, []int32) {
	n := 20*k + rng.Intn(40*k)
	parts := make([]int32, n)
	for v := range parts {
		parts[v] = int32(v * k / n)
		if rng.Intn(3) == 0 {
			parts[v] = 0
		}
	}
	b := hypergraph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetWeight(v, int64(1+rng.Intn(4)))
		if rng.Intn(9) == 0 {
			b.Fix(v, int(parts[v]))
		}
	}
	for i := 0; i < 2*n; i++ {
		sz := 2 + rng.Intn(4)
		pins := make([]int, sz)
		lo := rng.Intn(n)
		for j := range pins {
			if i%2 == 0 {
				pins[j] = (lo + rng.Intn(3)) % n
			} else {
				pins[j] = rng.Intn(n)
			}
		}
		b.AddNet(int64(rng.Intn(4)), pins...)
	}
	return b.Build(), parts
}

// TestGainsMatchOracle checks gains, BestMove and repairBalance against
// the per-candidate oracles on random states at k = 2, 3, 8 and 16: after
// random moves, every free vertex's base + acc[q] equals MoveGain(v, q)
// for every other part q, its candidates come in AdjacentParts order, its
// BestMove equals oracleBestMove, and acc is zero again afterwards.
// repairBalance, run from the over-cap start and from each moved state,
// makes the oracle's moves in the oracle's order.
func TestGainsMatchOracle(t *testing.T) {
	var interior, cut, checked, repairs int
	for _, k := range []int{2, 3, 8, 16} {
		for trial := 0; trial < 6; trial++ {
			rng := rand.New(rand.NewSource(int64(100*k + trial)))
			h, parts := kwayOracleInput(rng, k)
			n := h.NumVertices()
			caps := partition.Caps(h.TotalWeight(), k, 0.05)

			// repair runs both repairs on copies of start and returns the
			// number of moves.
			repair := func(start []int32) int {
				want := append([]int32(nil), start...)
				wantMoved := oracleRepairBalance(NewKwayState(h, k, want), caps)
				got := append([]int32(nil), start...)
				gotMoved := repairBalance(NewKwayState(h, k, got), caps)
				if !slices.Equal(gotMoved, wantMoved) || !slices.Equal(got, want) {
					t.Fatalf("k%d trial %d: repair moved %v, oracle %v", k, trial, gotMoved, wantMoved)
				}
				return len(gotMoved)
			}
			if repair(parts) == 0 {
				t.Fatalf("k%d trial %d: the repair moved nothing", k, trial)
			}
			repairs++

			s := NewKwayState(h, k, parts)
			for round := 0; round < 3; round++ {
				for i := 0; i < n/4; i++ {
					if v := rng.Intn(n); h.Fixed(v) == hypergraph.Free {
						s.Move(v, int32(rng.Intn(k)))
					}
				}
				for nn := 0; nn < h.NumNets(); nn++ {
					if s.lambda[nn] == 1 {
						interior++
					} else {
						cut++
					}
				}
				for v := 0; v < n; v++ {
					if h.Fixed(v) != hypergraph.Free {
						continue
					}
					adj := s.AdjacentParts(v)
					base, cands := s.gains(v)
					if !slices.Equal(cands, adj) {
						t.Fatalf("k%d vertex %d: candidates %v, AdjacentParts %v", k, v, cands, adj)
					}
					for q := int32(0); q < int32(k); q++ {
						if q == s.parts[v] {
							continue
						}
						if g, w := base+s.acc[q], s.MoveGain(v, q); g != w {
							t.Fatalf("k%d vertex %d to %d: base+acc %d, MoveGain %d", k, v, q, g, w)
						}
					}
					for _, q := range cands {
						s.acc[q] = 0
					}
					to, gain := s.BestMove(v, caps)
					wto, wgain := oracleBestMove(s, v, caps)
					if to != wto || gain != wgain {
						t.Fatalf("k%d vertex %d: BestMove (%d, %d), oracle (%d, %d)", k, v, to, gain, wto, wgain)
					}
					if slices.ContainsFunc(s.acc, func(a int64) bool { return a != 0 }) {
						t.Fatalf("k%d vertex %d: acc %v not zero after BestMove", k, v, s.acc)
					}
					checked++
				}
				if repair(parts) > 0 {
					repairs++
				}
			}
		}
	}
	if interior == 0 || cut == 0 {
		t.Fatalf("inputs lack a net kind: %d interior, %d cut", interior, cut)
	}
	t.Logf("%d vertices checked over %d interior and %d cut net states; %d repairs that moved", checked, interior, cut, repairs)
}

// TestRefineKwayWithMigrationMatchesOracle runs A2's refinement and its
// oracle from the over-cap inputs of TestGainsMatchOracle, with the old
// parts a scatter of the start and α ∈ {1, 4}: the parts and the cut
// must agree.
func TestRefineKwayWithMigrationMatchesOracle(t *testing.T) {
	for _, k := range []int{2, 3, 8, 16} {
		for trial := 0; trial < 4; trial++ {
			rng := rand.New(rand.NewSource(int64(1000*k + trial)))
			h, parts := kwayOracleInput(rng, k)
			caps := partition.Caps(h.TotalWeight(), k, 0.05)
			old := append([]int32(nil), parts...)
			for v := range old {
				if h.Fixed(v) == hypergraph.Free && rng.Intn(5) == 0 {
					old[v] = int32(rng.Intn(k))
				}
			}
			for _, alpha := range []int64{1, 4} {
				want := append([]int32(nil), parts...)
				wantCut := oracleRefineKwayWithMigration(h, k, want, old, alpha, caps, 3)
				got := append([]int32(nil), parts...)
				gotCut := RefineKwayWithMigration(h, k, got, old, alpha, caps, 3)
				if gotCut != wantCut || !slices.Equal(got, want) {
					t.Fatalf("k%d trial %d α%d: cut %d, oracle %d; parts equal %v", k, trial, alpha, gotCut, wantCut, slices.Equal(got, want))
				}
			}
		}
	}
}
