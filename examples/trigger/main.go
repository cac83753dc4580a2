// Trigger: threshold-driven rebalancing with a Session. A long-running
// simulation drifts slowly; instead of repartitioning every epoch, the
// session only rebalances when the measured imbalance crosses a
// threshold — the "periodically re-balance" workflow of the paper's
// introduction, with the decision automated.
package main

import (
	"fmt"
	"log"

	"hyperbal"
)

const (
	k     = 6
	alpha = 200
	steps = 12 // drift steps (potential rebalance points)
)

func main() {
	base, err := hyperbal.GenerateDataset("cage14", 2500, 3)
	if err != nil {
		log.Fatal(err)
	}
	prob := hyperbal.Problem{G: base, H: hyperbal.GraphToHypergraph(base)}

	bal, err := hyperbal.NewBalancer(hyperbal.BalancerConfig{
		K: k, Alpha: alpha, Seed: 9, Method: hyperbal.HypergraphRepart, Imbalance: 0.05,
	})
	if err != nil {
		log.Fatal(err)
	}
	sess, first, err := hyperbal.NewSession(bal, prob)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("static partition: comm %d, imbalance threshold %.2f\n\n",
		first.CommVolume, sess.Threshold)
	fmt.Printf("%5s %10s %12s %s\n", "step", "imbalance", "action", "result")

	// Drift: one region's weights creep up a little every step.
	weights := make([]int64, prob.H.NumVertices())
	for v := range weights {
		weights[v] = 1
	}
	rebalances := 0
	for step := 1; step <= steps; step++ {
		for v := 0; v < len(weights)/6; v++ {
			weights[v]++ // hot region grows
		}
		drifted := rebuildWithWeights(prob.H, weights)
		cur := hyperbal.Problem{H: drifted}

		w := hyperbal.PartWeights(drifted, sess.Current())
		imb := hyperbal.Imbalance(w)
		should, err := sess.ShouldRebalance(cur)
		if err != nil {
			log.Fatal(err)
		}
		if !should {
			fmt.Printf("%5d %9.3f  %12s\n", step, imb, "skip")
			continue
		}
		res, err := sess.Rebalance(cur)
		if err != nil {
			log.Fatal(err)
		}
		rebalances++
		nw := hyperbal.PartWeights(drifted, res.Partition)
		fmt.Printf("%5d %9.3f  %12s comm=%d mig=%d imbalance %.3f -> %.3f\n",
			step, imb, "REBALANCE", res.CommVolume, res.MigrationVolume,
			imb, hyperbal.Imbalance(nw))
	}
	fmt.Printf("\n%d rebalances over %d steps; session total cost(α=%d) = %d\n",
		rebalances, steps, alpha, sess.TotalCost())
}

// rebuildWithWeights clones the hypergraph structure with new weights.
func rebuildWithWeights(h *hyperbal.Hypergraph, weights []int64) *hyperbal.Hypergraph {
	b := hyperbal.NewHypergraphBuilder(h.NumVertices())
	for v := 0; v < h.NumVertices(); v++ {
		b.SetWeight(v, weights[v])
		b.SetSize(v, h.Size(v))
	}
	for n := 0; n < h.NumNets(); n++ {
		pins := h.Pins(n)
		ip := make([]int, len(pins))
		for i, p := range pins {
			ip[i] = int(p)
		}
		b.AddNet(h.Cost(n), ip...)
	}
	return b.Build()
}
