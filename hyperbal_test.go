package hyperbal_test

import (
	"testing"

	"hyperbal"
)

// buildMesh returns a small mesh problem through the public API only.
func buildMesh(w, h int) hyperbal.Problem {
	b := hyperbal.NewGraphBuilder(w * h)
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
	g := b.Build()
	return hyperbal.Problem{G: g, H: hyperbal.GraphToHypergraph(g)}
}

func TestPublicAPIEndToEnd(t *testing.T) {
	p := buildMesh(12, 12)
	bal, err := hyperbal.NewBalancer(hyperbal.BalancerConfig{
		K: 4, Alpha: 10, Seed: 1, Method: hyperbal.HypergraphRepart,
	})
	if err != nil {
		t.Fatal(err)
	}
	first, err := bal.Partition(p)
	if err != nil {
		t.Fatal(err)
	}
	w := hyperbal.PartWeights(p.H, first.Partition)
	if hyperbal.Imbalance(w) > 0.10 {
		t.Fatalf("imbalanced: %v (%.3f)", w, hyperbal.Imbalance(w))
	}
	res, err := bal.Repartition(p, first.Partition, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.CommVolume != hyperbal.CutSize(p.H, res.Partition) {
		t.Fatal("CommVolume disagrees with CutSize")
	}
	if res.MigrationVolume != hyperbal.MigrationVolume(p.H, first.Partition, res.Partition) {
		t.Fatal("MigrationVolume disagrees with metric")
	}
}

func TestPublicRepartitionModel(t *testing.T) {
	p := buildMesh(8, 8)
	old := hyperbal.Partition{K: 2, Parts: make([]int32, 64)}
	for v := 32; v < 64; v++ {
		old.Assign(v, 1)
	}
	r, err := hyperbal.BuildRepartition(p.H, old, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	aug, err := hyperbal.PartitionHypergraph(r.H, hyperbal.HGPOptions{K: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	newP, mig, err := r.Decode(p.H, aug)
	if err != nil {
		t.Fatal(err)
	}
	if mig.Volume != hyperbal.MigrationVolume(p.H, old, newP) {
		t.Fatal("decode migration disagrees")
	}
}

func TestPublicParallelAndMigration(t *testing.T) {
	p := buildMesh(8, 8)
	var old, next hyperbal.Partition
	err := hyperbal.RunWorld(2, func(c *hyperbal.Comm) error {
		pp, err := hyperbal.ParallelPartitionHypergraph(c, p.H, hyperbal.PHGOptions{
			Serial: hyperbal.HGPOptions{K: 2, Seed: 5},
		})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			old = pp
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// shift a few vertices and execute the migration
	next = old.Clone()
	for v := 0; v < 6; v++ {
		next.Assign(v, 1-old.Of(v))
	}
	plan, err := hyperbal.NewMigrationPlan(p.H, old, next)
	if err != nil {
		t.Fatal(err)
	}
	if plan.TotalVolume() != hyperbal.MigrationVolume(p.H, old, next) {
		t.Fatal("plan volume mismatch")
	}
}

func TestPublicDatasetsAndDynamics(t *testing.T) {
	g, err := hyperbal.GenerateDataset("cage14", 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	init := hyperbal.Partition{K: 4, Parts: make([]int32, g.NumVertices())}
	for v := 0; v < g.NumVertices(); v++ {
		init.Assign(v, v%4)
	}
	gen, err := hyperbal.NewRefinementDynamics(g, init, 4, 0.25, 1.5, 7.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	prob, inherited := gen.Next()
	if prob.H.NumVertices() != g.NumVertices() {
		t.Fatal("refinement dynamic changed the vertex set")
	}
	if prob.H.NumVertices() != len(inherited.Parts) {
		t.Fatal("epoch problem and inherited partition disagree")
	}
	if err := gen.Observe(inherited); err != nil {
		t.Fatal(err)
	}
}

func TestPublicGraphBaselines(t *testing.T) {
	p := buildMesh(10, 10)
	gp, err := hyperbal.PartitionGraph(p.G, hyperbal.GPOptions{K: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if hyperbal.CutSize(p.H, gp) <= 0 {
		t.Fatal("4-way mesh partition must cut something")
	}
	rp, err := hyperbal.PartitionGraph(p.G, hyperbal.GPOptions{K: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	remapped := hyperbal.RemapParts(p.H, gp, rp)
	if hyperbal.MigrationVolume(p.H, gp, remapped) > hyperbal.MigrationVolume(p.H, gp, rp) {
		t.Fatal("remap made migration worse")
	}
}

func TestPublicCostModel(t *testing.T) {
	m := hyperbal.DefaultCostModel
	e := m.Evaluate(hyperbal.Result{CommVolume: 1000, MigrationVolume: 500}, 100)
	if e.Total() <= 0 {
		t.Fatal("cost model returned nothing")
	}
}
