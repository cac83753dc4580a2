package difftest

import (
	"bytes"
	"fmt"
	"testing"

	"hyperbal/internal/datasets"
	"hyperbal/internal/dynamics"
	"hyperbal/internal/graph"
	"hyperbal/internal/hgp"
	"hyperbal/internal/hypergraph"
	"hyperbal/internal/partition"
)

const (
	diffN      = 300 // vertices per dataset analogue
	diffEpochs = 4

	// warmCutSlack is the fixed multiplicative tolerance for the warm
	// path: warmCut <= (1+warmCutSlack)*coldCut + warmCutFloor. The warm
	// path inherits the previous epoch's solution instead of re-running
	// multi-start initial partitioning, so a bounded regression is the
	// accepted price for skipping the full V-cycle; large transitions
	// escalate to the cold partitioner and cost nothing extra.
	warmCutSlack = 1.0
	warmCutFloor = 10

	// warmBalanceSlack is the additive imbalance the warm path may add
	// over what the cold partitioner itself achieved on the same input.
	warmBalanceSlack = 0.02
)

// step is one epoch transition handed to a visit callback: the scratch
// hypergraph is what the generator built from scratch, delta is the wire
// transition from the previous epoch's scratch hypergraph, inherited the
// previous distribution over the new vertex set.
type step struct {
	epoch     int
	base      *hypergraph.Hypergraph
	scratch   *hypergraph.Hypergraph
	delta     *hypergraph.Delta
	inherited partition.Partition
}

// walk drives the named dynamic over the named dataset analogue and
// invokes visit once per epoch; visit returns the partition to feed back
// into the generator (what the application "ran with").
func walk(t *testing.T, ds, dynamic string, k int, seed int64, epochs int, init partition.Partition, h0 *hypergraph.Hypergraph, g *graph.Graph, visit func(step) partition.Partition) {
	t.Helper()
	var gen dynamics.Generator
	var err error
	switch dynamic {
	case "structure":
		gen, err = dynamics.NewStructural(g, init, k, 0.25, 0.5, seed*3+1)
	case "weights":
		gen, err = dynamics.NewRefinement(g, init, k, 0.1, 1.5, 7.5, seed*3+2)
	default:
		t.Fatalf("unknown dynamic %q", dynamic)
	}
	if err != nil {
		t.Fatal(err)
	}
	base := h0
	for e := 1; e <= epochs; e++ {
		prob, old := gen.Next()
		var d *hypergraph.Delta
		var ok bool
		if st, isStruct := gen.(*dynamics.Structural); isStruct {
			d, ok = hypergraph.ComputeDeltaMapped(base, prob.H, st.VertexMap())
		} else {
			d, ok = hypergraph.ComputeDelta(base, prob.H)
		}
		if !ok {
			t.Fatalf("epoch %d: transition not delta-able", e)
		}
		computed := visit(step{epoch: e, base: base, scratch: prob.H, delta: d, inherited: old})
		if err := gen.Observe(computed); err != nil {
			t.Fatal(err)
		}
		base = prob.H
	}
}

// setup generates the dataset analogue and its epoch-0 cold partition.
func setup(t *testing.T, ds string, k int, seed int64, opt hgp.Options) (*graph.Graph, *hypergraph.Hypergraph, partition.Partition) {
	t.Helper()
	g, err := datasets.Generate(ds, diffN, seed)
	if err != nil {
		t.Fatal(err)
	}
	h := graph.ToHypergraph(g)
	init, err := hgp.Partition(h, opt)
	if err != nil {
		t.Fatal(err)
	}
	return g, h, init
}

// assertIdentical asserts fingerprint equality and byte-level text
// serialization equality between the delta-applied and scratch-built
// hypergraphs.
func assertIdentical(t *testing.T, e int, applied, scratch *hypergraph.Hypergraph) {
	t.Helper()
	if af, sf := applied.Fingerprint(), scratch.Fingerprint(); af != sf {
		t.Fatalf("epoch %d: applied fingerprint %s != scratch %s", e, af, sf)
	}
	var ab, sb bytes.Buffer
	if err := hypergraph.WriteText(&ab, applied); err != nil {
		t.Fatal(err)
	}
	if err := hypergraph.WriteText(&sb, scratch); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab.Bytes(), sb.Bytes()) {
		t.Fatalf("epoch %d: applied and scratch hypergraphs serialize differently", e)
	}
	if err := applied.Validate(); err != nil {
		t.Fatalf("epoch %d: applied hypergraph invalid: %v", e, err)
	}
}

// TestDeltaApplyMatchesRebuild: for every dataset analogue and both
// dynamics, a chain of delta applications must reproduce each epoch's
// from-scratch hypergraph byte-identically — the delta wire format loses
// nothing, including across vertex churn and reappearance.
func TestDeltaApplyMatchesRebuild(t *testing.T) {
	for _, ds := range datasets.Names() {
		for _, dynamic := range []string{"weights", "structure"} {
			t.Run(ds+"_"+dynamic, func(t *testing.T) {
				const k = 4
				opt := hgp.Options{K: k, Seed: 41}
				g, h0, init := setup(t, ds, k, 41, opt)
				applied := h0
				walk(t, ds, dynamic, k, 41, diffEpochs, init, h0, g, func(s step) partition.Partition {
					next, err := s.delta.Apply(applied)
					if err != nil {
						t.Fatalf("epoch %d: apply: %v", s.epoch, err)
					}
					assertIdentical(t, s.epoch, next, s.scratch)
					applied = next
					return s.inherited
				})
			})
		}
	}
}

// TestWarmStartQuality: across every dataset analogue, both dynamics and
// k in {4,8}, the warm-started partition must satisfy the cold path's
// balance constraint (up to a small additive slack over what cold itself
// achieved) and keep the connectivity-1 cut within the fixed tolerance of
// the cold partitioner on the identical hypergraph.
func TestWarmStartQuality(t *testing.T) {
	for _, ds := range datasets.Names() {
		for _, dynamic := range []string{"weights", "structure"} {
			for _, k := range []int{4, 8} {
				t.Run(fmt.Sprintf("%s_%s_k%d", ds, dynamic, k), func(t *testing.T) {
					opt := hgp.Options{K: k, Seed: 43}
					g, h0, init := setup(t, ds, k, 43, opt)
					walk(t, ds, dynamic, k, 43, diffEpochs, init, h0, g, func(s step) partition.Partition {
						cold, err := hgp.Partition(s.scratch, opt)
						if err != nil {
							t.Fatalf("epoch %d: cold: %v", s.epoch, err)
						}
						dirty := s.delta.DirtyVertices(s.base, s.scratch)
						warm, stats, err := hgp.PartitionWarm(s.scratch, opt, hgp.WarmSpec{Parts: s.inherited.Parts, Dirty: dirty})
						if err != nil {
							t.Fatalf("epoch %d: warm: %v", s.epoch, err)
						}
						coldCut := partition.CutSize(s.scratch, cold)
						if limit := int64(float64(coldCut)*(1+warmCutSlack)) + warmCutFloor; stats.Cut > limit {
							t.Errorf("epoch %d (%s): warm cut %d exceeds cold %d beyond tolerance (limit %d)",
								s.epoch, stats.Mode, stats.Cut, coldCut, limit)
						}
						coldImb := partition.Imbalance(partition.Weights(s.scratch, cold))
						warmImb := partition.Imbalance(partition.Weights(s.scratch, warm))
						bound := opt.Imbalance
						if bound == 0 {
							bound = 0.05
						}
						if coldImb > bound {
							bound = coldImb
						}
						if warmImb > bound+warmBalanceSlack {
							t.Errorf("epoch %d (%s): warm imbalance %.4f exceeds bound %.4f (cold %.4f)",
								s.epoch, stats.Mode, warmImb, bound+warmBalanceSlack, coldImb)
						}
						// Drive the next epoch from the cold solution so
						// both paths always face the same inheritance.
						return cold
					})
				})
			}
		}
	}
}

// TestWarmParallelismInvariance: the full pipeline — initial cold
// partition, per-epoch deltas, dirty sets, warm repartitions, and a cold
// repartition of every epoch's hypergraph — must be byte-identical at
// every Parallelism setting, on every dataset analogue and both dynamics.
// This is the invariant the fingerprint-keyed partition cache serves
// results under: the warm tiers run serially, and the cold pipeline's RB
// sides and multi-starts are index-seeded and reduced in index order.
func TestWarmParallelismInvariance(t *testing.T) {
	for _, ds := range datasets.Names() {
		for _, dynamic := range []string{"weights", "structure"} {
			t.Run(ds+"_"+dynamic, func(t *testing.T) {
				const k = 4
				type epochOut struct{ warm, cold []int32 }
				var ref []epochOut
				for _, par := range []int{1, 2, 4, 8} {
					opt := hgp.Options{K: k, Seed: 47, Parallelism: par}
					g, h0, init := setup(t, ds, k, 47, opt)
					var got []epochOut
					walk(t, ds, dynamic, k, 47, diffEpochs, init, h0, g, func(s step) partition.Partition {
						cold, err := hgp.Partition(s.scratch, opt)
						if err != nil {
							t.Fatalf("epoch %d: cold: %v", s.epoch, err)
						}
						dirty := s.delta.DirtyVertices(s.base, s.scratch)
						warm, _, err := hgp.PartitionWarm(s.scratch, opt, hgp.WarmSpec{Parts: s.inherited.Parts, Dirty: dirty})
						if err != nil {
							t.Fatalf("epoch %d: warm: %v", s.epoch, err)
						}
						got = append(got, epochOut{
							warm: append([]int32(nil), warm.Parts...),
							cold: append([]int32(nil), cold.Parts...),
						})
						return warm
					})
					if ref == nil {
						ref = got
						continue
					}
					for e := range got {
						if !int32Equal(got[e].warm, ref[e].warm) {
							t.Errorf("parallelism %d epoch %d: warm partition differs from parallelism 1", par, e+1)
						}
						if !int32Equal(got[e].cold, ref[e].cold) {
							t.Errorf("parallelism %d epoch %d: cold partition differs from parallelism 1", par, e+1)
						}
					}
				}
			})
		}
	}
}

// TestWarmModesCovered: the harness must exercise the warm tiers — the
// refinement dynamic's small dirty sets the localized path, the
// structural dynamic's churn the cold escalation — otherwise the quality
// assertions above prove less than they claim. (The localized tier's
// infeasible-result fallback is covered by the hgp unit tests.)
func TestWarmModesCovered(t *testing.T) {
	modes := map[string]bool{}
	for _, dynamic := range []string{"weights", "structure"} {
		// k=8 keeps the refinement dynamic's dirty fraction (~1/k of the
		// vertices) under the escalation threshold; the structural
		// dynamic's churn exceeds it at any k.
		k := 8
		if dynamic == "structure" {
			k = 4
		}
		opt := hgp.Options{K: k, Seed: 53}
		g, h0, init := setup(t, "cage14", k, 53, opt)
		walk(t, "cage14", dynamic, k, 53, diffEpochs, init, h0, g, func(s step) partition.Partition {
			dirty := s.delta.DirtyVertices(s.base, s.scratch)
			warm, stats, err := hgp.PartitionWarm(s.scratch, opt, hgp.WarmSpec{Parts: s.inherited.Parts, Dirty: dirty})
			if err != nil {
				t.Fatalf("epoch %d: warm: %v", s.epoch, err)
			}
			modes[stats.Mode] = true
			return warm
		})
	}
	if !modes["localized"] {
		t.Error("no epoch took the localized warm path")
	}
	if !modes["cold"] {
		t.Error("no epoch took the cold escalation path")
	}
}

func int32Equal(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
