package harness

// The acceptance chaos test for the fault-injection layer: all four §5
// parallel algorithms (hypergraph scratch, hypergraph repartition via the
// augmented model, graph scratch, graph adaptive repartition) must produce
// identical partitions and cut/migration metrics under every injected
// delay/reorder schedule.

import (
	"testing"
	"time"

	"hyperbal/internal/core"
	"hyperbal/internal/datasets"
	"hyperbal/internal/gp"
	"hyperbal/internal/graph"
	"hyperbal/internal/hgp"
	"hyperbal/internal/mpi"
	"hyperbal/internal/partition"
	"hyperbal/internal/pgp"
	"hyperbal/internal/phg"
)

// algoMetrics is one algorithm's full outcome: the partition itself plus
// the cut and migration metrics the paper reports.
type algoMetrics struct {
	parts []int32
	cut   int64
	mig   int64
}

func (a algoMetrics) equal(b algoMetrics) bool {
	if a.cut != b.cut || a.mig != b.mig || len(a.parts) != len(b.parts) {
		return false
	}
	for i := range a.parts {
		if a.parts[i] != b.parts[i] {
			return false
		}
	}
	return true
}

func runAlgo(t *testing.T, np int, plan *mpi.FaultPlan, fn func(c *mpi.Comm) (partition.Partition, error)) partition.Partition {
	t.Helper()
	var out partition.Partition
	_, err := mpi.RunWith(np, mpi.Options{Watchdog: 2 * time.Minute, Fault: plan}, func(c *mpi.Comm) error {
		p, err := fn(c)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			out = p
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSection5AlgorithmsScheduleIndependent(t *testing.T) {
	const (
		np    = 4
		k     = 4
		alpha = 4
	)
	g, err := datasets.Generate("2DLipid", 96, 17)
	if err != nil {
		t.Fatal(err)
	}
	h := graph.ToHypergraph(g)
	old, err := hgp.Partition(h, hgp.Options{K: k, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.BuildRepartition(h, old, k, alpha)
	if err != nil {
		t.Fatal(err)
	}

	algos := []struct {
		name string
		run  func(plan *mpi.FaultPlan) algoMetrics
	}{
		{"phg-scratch", func(plan *mpi.FaultPlan) algoMetrics {
			p := runAlgo(t, np, plan, func(c *mpi.Comm) (partition.Partition, error) {
				return phg.Partition(c, h, phg.Options{Serial: hgp.Options{K: k, Seed: 18}})
			})
			return algoMetrics{parts: p.Parts, cut: partition.CutSize(h, p)}
		}},
		{"phg-repart", func(plan *mpi.FaultPlan) algoMetrics {
			aug := runAlgo(t, np, plan, func(c *mpi.Comm) (partition.Partition, error) {
				return phg.Partition(c, r.H, phg.Options{Serial: hgp.Options{K: k, Seed: 19}})
			})
			p, mig, err := r.Decode(h, aug)
			if err != nil {
				t.Fatal(err)
			}
			return algoMetrics{parts: p.Parts, cut: partition.CutSize(h, p), mig: mig.Volume}
		}},
		{"pgp-adaptive", func(plan *mpi.FaultPlan) algoMetrics {
			p := runAlgo(t, np, plan, func(c *mpi.Comm) (partition.Partition, error) {
				return pgp.AdaptiveRepart(c, g, old, alpha, gp.Options{K: k, Imbalance: 0.05, Seed: 21})
			})
			return algoMetrics{
				parts: p.Parts,
				cut:   partition.EdgeCut(g, p),
				mig:   partition.GraphMigrationVolume(g, old, p),
			}
		}},
	}

	plans := []*mpi.FaultPlan{
		nil,
		{Seed: 21, MaxDelay: 150 * time.Microsecond},
		{Seed: 22, Reorder: true},
		{Seed: 23, MaxDelay: 80 * time.Microsecond, Reorder: true, DelayRanks: []int{0, 3}},
	}
	for _, algo := range algos {
		baseline := algo.run(plans[0])
		for _, plan := range plans[1:] {
			got := algo.run(plan)
			if !got.equal(baseline) {
				t.Fatalf("%s: metrics (cut=%d, mig=%d) under FaultPlan{Seed:%d} differ from clean (cut=%d, mig=%d)",
					algo.name, got.cut, got.mig, plan.Seed, baseline.cut, baseline.mig)
			}
		}
	}
}

func TestParallelRuntimeWithInjection(t *testing.T) {
	// The Figures 7-8 harness itself must run under injection and report
	// the new collective/stall columns.
	clean, err := ParallelRuntime("auto", 64, []int{2}, 4, 23)
	if err != nil {
		t.Fatal(err)
	}
	faulted, err := ParallelRuntimeWith(mpi.Options{
		Watchdog: 2 * time.Minute,
		Fault:    &mpi.FaultPlan{Seed: 5, Reorder: true, MaxDelay: 50 * time.Microsecond},
	}, "auto", 64, []int{2}, 4, 23)
	if err != nil {
		t.Fatal(err)
	}
	if len(clean) != len(faulted) {
		t.Fatalf("cell counts differ: %d vs %d", len(clean), len(faulted))
	}
	for i := range clean {
		if clean[i].Cut != faulted[i].Cut {
			t.Fatalf("cell %d: cut %d under injection, %d clean", i, faulted[i].Cut, clean[i].Cut)
		}
		if clean[i].Collectives == 0 || faulted[i].Collectives == 0 {
			t.Fatalf("cell %d: collectives not recorded (%d clean, %d faulted)",
				i, clean[i].Collectives, faulted[i].Collectives)
		}
	}
}
