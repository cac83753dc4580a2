// Benchmarks regenerating every table and figure of the paper's
// evaluation (Section 5), plus the ablations called out in DESIGN.md §7.
//
// Each BenchmarkFigN* runs the corresponding experiment at laptop scale
// and reports the figure's quantities as custom metrics:
//
//	comm/epoch      average communication volume per epoch
//	mig/epoch       average migration volume per epoch
//	normcost        normalized total cost (comm + mig/α), the bar height
//	                in Figures 2-6
//	ms/repart       repartitioning time, the bar height in Figures 7-8
//
// Run: go test -bench=. -benchmem   (full sweep: cmd/repartbench -all)
package hyperbal_test

import (
	"testing"

	"hyperbal"
	"hyperbal/internal/core"
	"hyperbal/internal/datasets"
	"hyperbal/internal/graph"
	"hyperbal/internal/harness"
	"hyperbal/internal/hgp"
	"hyperbal/internal/partition"
)

// benchScale keeps per-iteration work modest; cmd/repartbench runs the
// full-scale sweep.
const benchScale = 1200

// figureConfig is the reduced sweep used inside benchmarks.
func figureConfig(dataset, dynamic string) harness.Config {
	return harness.Config{
		Dataset: dataset,
		ScaleV:  benchScale,
		Dynamic: dynamic,
		Procs:   []int{8},
		Alphas:  []int64{1, 100},
		Trials:  1,
		Epochs:  2,
		Seed:    1,
	}
}

// benchFigure runs one dataset × dynamic experiment per iteration and
// reports the figure quantities for the paper's headline cell (α=1,
// Zoltan-repart) plus the winner rate against ParMETIS-repart.
func benchFigure(b *testing.B, dataset, dynamic string) {
	b.Helper()
	var last *harness.Report
	for i := 0; i < b.N; i++ {
		rep, err := harness.Run(figureConfig(dataset, dynamic))
		if err != nil {
			b.Fatal(err)
		}
		last = rep
	}
	reportFigureMetrics(b, last)
}

func reportFigureMetrics(b *testing.B, rep *harness.Report) {
	b.Helper()
	var zr, pr *harness.Cell
	for i := range rep.Cells {
		c := &rep.Cells[i]
		if c.Alpha != 1 {
			continue
		}
		switch c.Method {
		case core.HypergraphRepart:
			zr = c
		case core.GraphRepart:
			pr = c
		}
	}
	if zr != nil {
		b.ReportMetric(zr.CommVolume, "comm/epoch")
		b.ReportMetric(zr.MigrationVolume, "mig/epoch")
		b.ReportMetric(zr.NormalizedCost, "normcost")
	}
	if zr != nil && pr != nil && pr.NormalizedCost > 0 {
		b.ReportMetric(zr.NormalizedCost/pr.NormalizedCost, "zoltan/parmetis")
	}
}

// ---- Table 1 ----

// BenchmarkTable1Stats regenerates the dataset analogues and their Table 1
// statistics.
func BenchmarkTable1Stats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, info := range datasets.Registry {
			g, err := datasets.Generate(info.Name, benchScale, 1)
			if err != nil {
				b.Fatal(err)
			}
			s := graph.ComputeStats(g)
			if s.NumEdges == 0 {
				b.Fatal("degenerate dataset")
			}
		}
	}
}

// ---- Figures 2-6: normalized total cost ----

func BenchmarkFig2XyceStructure(b *testing.B)  { benchFigure(b, "xyce680s", "structure") }
func BenchmarkFig2XyceWeights(b *testing.B)    { benchFigure(b, "xyce680s", "weights") }
func BenchmarkFig3LipidStructure(b *testing.B) { benchFigure(b, "2DLipid", "structure") }
func BenchmarkFig3LipidWeights(b *testing.B)   { benchFigure(b, "2DLipid", "weights") }
func BenchmarkFig4AutoStructure(b *testing.B)  { benchFigure(b, "auto", "structure") }
func BenchmarkFig4AutoWeights(b *testing.B)    { benchFigure(b, "auto", "weights") }
func BenchmarkFig5ApoaStructure(b *testing.B)  { benchFigure(b, "apoa1-10", "structure") }
func BenchmarkFig5ApoaWeights(b *testing.B)    { benchFigure(b, "apoa1-10", "weights") }
func BenchmarkFig6CageStructure(b *testing.B)  { benchFigure(b, "cage14", "structure") }
func BenchmarkFig6CageWeights(b *testing.B)    { benchFigure(b, "cage14", "weights") }

// ---- Figures 7-8: run time ----

// benchRuntime times one repartitioning operation per method per
// iteration, the quantity of Figures 7-8.
func benchRuntime(b *testing.B, dataset string) {
	g, err := datasets.Generate(dataset, benchScale, 1)
	if err != nil {
		b.Fatal(err)
	}
	prob := hyperbal.Problem{G: g, H: hyperbal.GraphToHypergraph(g)}
	for _, m := range []hyperbal.Method{hyperbal.HypergraphRepart, hyperbal.GraphRepart} {
		b.Run(m.String(), func(b *testing.B) {
			bal, err := hyperbal.NewBalancer(hyperbal.BalancerConfig{
				K: 8, Alpha: 100, Seed: 2, Method: m,
			})
			if err != nil {
				b.Fatal(err)
			}
			first, err := bal.Partition(prob)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := bal.Repartition(prob, first.Partition, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig7RuntimeXyce(b *testing.B)  { benchRuntime(b, "xyce680s") }
func BenchmarkFig8RuntimeLipid(b *testing.B) { benchRuntime(b, "2DLipid") }
func BenchmarkFig8RuntimeAuto(b *testing.B)  { benchRuntime(b, "auto") }

// ---- Ablations (DESIGN.md §7) ----

// BenchmarkAblationModelVsRefineOnly (A2): migration modeled in the
// hypergraph from coarsening onward (the paper's model) vs accounted only
// during refinement — both the hypergraph refine-only ablation and the
// ParMETIS-style unified scheme. Reports each method's α=1 total cost
// after a structural perturbation (the regime where refinement-only gets
// stuck in the inherited partition's local minimum). The timed loop
// repartitions at epoch i; the reported cost is the mean over epochs 0–4,
// computed after the timer stops, so it does not depend on -benchtime.
func BenchmarkAblationModelVsRefineOnly(b *testing.B) {
	g, err := datasets.Generate("auto", benchScale, 5)
	if err != nil {
		b.Fatal(err)
	}
	prob := hyperbal.Problem{G: g, H: hyperbal.GraphToHypergraph(g)}
	for _, m := range []hyperbal.Method{hyperbal.HypergraphRepart, core.HypergraphRefineOnly, hyperbal.GraphRepart} {
		b.Run(m.String(), func(b *testing.B) {
			bal, err := hyperbal.NewBalancer(hyperbal.BalancerConfig{K: 8, Alpha: 1, Seed: 7, Method: m})
			if err != nil {
				b.Fatal(err)
			}
			first, err := bal.Partition(prob)
			if err != nil {
				b.Fatal(err)
			}
			// Perturb the inherited partition: scatter 15% of the vertices,
			// the local minimum a refinement-only scheme must escape.
			old := first.Partition.Clone()
			for v := 0; v < len(old.Parts); v += 7 {
				old.Parts[v] = int32((int(old.Parts[v]) + 1 + v%3) % 8)
			}
			run := func(epoch int64) hyperbal.Result {
				res, err := bal.Repartition(prob, old, epoch)
				if err != nil {
					b.Fatal(err)
				}
				return res
			}
			for i := 0; i < b.N; i++ {
				run(int64(i))
			}
			b.StopTimer()
			const epochs = 5
			var total int64
			for epoch := int64(0); epoch < epochs; epoch++ {
				total += run(epoch).TotalCost(1)
			}
			b.ReportMetric(float64(total)/epochs, "totalcost@a1")
		})
	}
}

// BenchmarkAblationRemap (A4): scratch repartitioning with and without the
// maximal-matching part remap. Reports the migration volume each incurs.
func BenchmarkAblationRemap(b *testing.B) {
	g, err := datasets.Generate("auto", benchScale, 11)
	if err != nil {
		b.Fatal(err)
	}
	h := hyperbal.GraphToHypergraph(g)
	old, err := hgp.Partition(h, hgp.Options{K: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		remap bool
	}{{"with-remap", true}, {"without-remap", false}} {
		b.Run(tc.name, func(b *testing.B) {
			var mig int64
			for i := 0; i < b.N; i++ {
				fresh, err := hgp.Partition(h, hgp.Options{K: 8, Seed: int64(i + 2)})
				if err != nil {
					b.Fatal(err)
				}
				if tc.remap {
					fresh = hyperbal.RemapParts(h, old, fresh)
				}
				mig = hyperbal.MigrationVolume(h, old, fresh)
			}
			b.ReportMetric(float64(mig), "migration")
		})
	}
}

// ---- Scalability (the paper's closing claim) ----

// BenchmarkParallelScalability runs the parallel partitioner at increasing
// rank counts on a fixed problem.
func BenchmarkParallelScalability(b *testing.B) {
	g, err := datasets.Generate("auto", benchScale, 13)
	if err != nil {
		b.Fatal(err)
	}
	h := hyperbal.GraphToHypergraph(g)
	for _, ranks := range []int{1, 2, 4, 8} {
		b.Run(rankName(ranks), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				err := hyperbal.RunWorld(ranks, func(c *hyperbal.Comm) error {
					_, err := hyperbal.ParallelPartitionHypergraph(c, h, hyperbal.PHGOptions{
						Serial: hyperbal.HGPOptions{K: 8, Seed: int64(i)},
					})
					return err
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func rankName(r int) string {
	return string(rune('0'+r)) + "ranks"
}

// BenchmarkAblationLocalIPM (A7): global candidate-round IPM vs the
// block-local IPM the paper's conclusion proposes as a speedup ("using
// local IPM instead of global IPM"). Reports wall time (ns/op) and the
// substrate traffic and the cut per partitioning.
func BenchmarkAblationLocalIPM(b *testing.B) {
	g, err := datasets.Generate("auto", benchScale, 19)
	if err != nil {
		b.Fatal(err)
	}
	h := hyperbal.GraphToHypergraph(g)
	for _, tc := range []struct {
		name  string
		local bool
	}{{"global-ipm", false}, {"local-ipm", true}} {
		b.Run(tc.name, func(b *testing.B) {
			var msgs, bytes, cut int64
			for i := 0; i < b.N; i++ {
				stats, err := hyperbal.RunWorldStats(8, func(c *hyperbal.Comm) error {
					p, err := hyperbal.ParallelPartitionHypergraph(c, h, hyperbal.PHGOptions{
						Serial:   hyperbal.HGPOptions{K: 8, Seed: int64(i)},
						LocalIPM: tc.local,
					})
					if err == nil && c.Rank() == 0 {
						cut = partition.CutSize(h, p)
					}
					return err
				})
				if err != nil {
					b.Fatal(err)
				}
				msgs = stats.Messages.Load()
				bytes = stats.Bytes.Load()
			}
			b.ReportMetric(float64(msgs), "msgs")
			b.ReportMetric(float64(bytes), "bytes")
			b.ReportMetric(float64(cut), "cut")
		})
	}
}
