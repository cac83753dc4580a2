package core

import (
	"testing"

	"hyperbal/internal/hypergraph"
	"hyperbal/internal/partition"
)

func TestSessionLifecycle(t *testing.T) {
	p := mesh(12, 12)
	bal, err := NewBalancer(Config{K: 4, Alpha: 10, Seed: 1, Method: HypergraphRepart})
	if err != nil {
		t.Fatal(err)
	}
	s, first, err := NewSession(bal, p)
	if err != nil {
		t.Fatal(err)
	}
	if first.MigrationVolume != 0 || s.Epoch() != 0 || s.TotalCost() != first.TotalCost(10) {
		t.Fatalf("fresh session state wrong: %+v", s)
	}
	// Balanced unchanged problem: no rebalance needed.
	should, err := s.ShouldRebalance(p)
	if err != nil {
		t.Fatal(err)
	}
	if should {
		t.Fatal("balanced problem should not trigger rebalancing")
	}
	// Inflate a hot corner's weights past the threshold.
	hb := hypergraph.NewBuilder(144)
	for v := 0; v < 144; v++ {
		w := int64(1)
		if v < 36 {
			w = 6
		}
		hb.SetWeight(v, w)
	}
	for n := 0; n < p.H.NumNets(); n++ {
		pins := p.H.Pins(n)
		hb.AddNet(p.H.Cost(n), int(pins[0]), int(pins[1]))
	}
	hot := Problem{H: hb.Build()}
	should, err = s.ShouldRebalance(hot)
	if err != nil {
		t.Fatal(err)
	}
	if !should {
		t.Fatal("hot problem should trigger rebalancing")
	}
	res, err := s.Rebalance(hot)
	if err != nil {
		t.Fatal(err)
	}
	if s.Epoch() != 1 {
		t.Fatal("session bookkeeping wrong after rebalance")
	}
	w := partition.Weights(hot.H, res.Partition)
	if partition.Imbalance(w) > 0.25 {
		t.Fatalf("rebalance left imbalance %.3f", partition.Imbalance(w))
	}
	if s.TotalCost() != first.TotalCost(10)+res.TotalCost(10) {
		t.Fatal("TotalCost accumulation wrong")
	}
}

func TestSessionStructuralChange(t *testing.T) {
	p := mesh(10, 10)
	bal, _ := NewBalancer(Config{K: 2, Seed: 3, Method: HypergraphRepart})
	s, first, err := NewSession(bal, p)
	if err != nil {
		t.Fatal(err)
	}
	smaller := mesh(9, 9) // 81 vertices vs 100
	// Rebalance must refuse a changed vertex set...
	if _, err := s.Rebalance(smaller); err == nil {
		t.Fatal("expected vertex-set-change error")
	}
	// ...and ShouldRebalance flags it unconditionally.
	should, _ := s.ShouldRebalance(smaller)
	if !should {
		t.Fatal("structural change should trigger rebalance")
	}
	inherited := partition.New(81, 2)
	for v := 0; v < 81; v++ {
		inherited.Assign(v, v%2)
	}
	res, err := s.RebalanceInherited(smaller, inherited)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Current().Parts) != 81 {
		t.Fatal("current partition not updated to new vertex set")
	}
	// A refused Rebalance installs nothing; the structural one counts once.
	alpha := bal.Config().Alpha
	if s.Epoch() != 1 || s.TotalCost() != first.TotalCost(alpha)+res.TotalCost(alpha) {
		t.Fatalf("epoch %d, total %d after one structural rebalance", s.Epoch(), s.TotalCost())
	}
	// Length validation on inherited.
	if _, err := s.RebalanceInherited(p, inherited); err == nil {
		t.Fatal("expected inherited-length error")
	}
}
