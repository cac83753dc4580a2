package pgp

// Chaos tests: parallel graph partitioning and adaptive repartitioning
// must be schedule independent — identical partitions and migration
// metrics under any injected delay/reorder schedule — and injected rank
// crashes must degrade into clean errors, never hangs.

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"hyperbal/internal/gp"
	"hyperbal/internal/mpi"
	"hyperbal/internal/partition"
)

func chaosPlans() []*mpi.FaultPlan {
	return []*mpi.FaultPlan{
		nil,
		{Seed: 11, MaxDelay: 150 * time.Microsecond},
		{Seed: 12, Reorder: true},
		{Seed: 13, MaxDelay: 80 * time.Microsecond, Reorder: true, DelayRanks: []int{1, 3}},
	}
}

func TestPartitionScheduleIndependent(t *testing.T) {
	g := grid(16, 16)
	var baseline partition.Partition
	var baseCut int64
	for i, plan := range chaosPlans() {
		p := runParallelFault(t, 4, plan, func(c *mpi.Comm) (partition.Partition, error) {
			return Partition(c, g, gp.Options{K: 4, Imbalance: 0.05, Seed: 1})
		})
		cut := partition.EdgeCut(g, p)
		if i == 0 {
			baseline, baseCut = p, cut
			continue
		}
		if cut != baseCut {
			t.Fatalf("cut %d under FaultPlan{Seed:%d} differs from clean cut %d", cut, plan.Seed, baseCut)
		}
		for v := range baseline.Parts {
			if p.Parts[v] != baseline.Parts[v] {
				t.Fatalf("partition differs at vertex %d under FaultPlan{Seed:%d}", v, plan.Seed)
			}
		}
	}
}

func TestAdaptiveRepartScheduleIndependent(t *testing.T) {
	g := grid(16, 16)
	old, err := gp.Partition(g, gp.Options{K: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var baseline partition.Partition
	var baseMig int64
	for i, plan := range chaosPlans() {
		p := runParallelFault(t, 4, plan, func(c *mpi.Comm) (partition.Partition, error) {
			return AdaptiveRepart(c, g, old, 10, gp.Options{K: 4, Seed: 5})
		})
		mig := partition.GraphMigrationVolume(g, old, p)
		if i == 0 {
			baseline, baseMig = p, mig
			continue
		}
		if mig != baseMig {
			t.Fatalf("migration volume %d under FaultPlan{Seed:%d} differs from clean %d", mig, plan.Seed, baseMig)
		}
		for v := range baseline.Parts {
			if p.Parts[v] != baseline.Parts[v] {
				t.Fatalf("repartition differs at vertex %d under FaultPlan{Seed:%d}", v, plan.Seed)
			}
		}
	}
}

func TestPartitionCrashFailsCleanly(t *testing.T) {
	g := grid(16, 16)
	start := time.Now()
	_, err := mpi.RunWith(4, mpi.Options{
		Watchdog: 2 * time.Second,
		Fault:    &mpi.FaultPlan{Crash: map[int]int{2: 3}},
	}, func(c *mpi.Comm) error {
		_, err := Partition(c, g, gp.Options{K: 4, Seed: 1})
		return err
	})
	if err == nil {
		t.Fatal("expected a crash fault to surface as an error")
	}
	var crash *mpi.CrashError
	if !errors.As(err, &crash) {
		t.Fatalf("expected CrashError, got: %v", err)
	}
	if crash.Rank != 2 {
		t.Fatalf("crash = %+v, want rank 2", crash)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("crash took %v to surface (hang-like behavior)", elapsed)
	}
}

// pgp's candidate rounds ship []matchBid (int32+int32+int64 = 16 bytes)
// and refinement ships []moveProposal (same layout); verify both are
// accounted at packed size in the traffic stats.
func TestStructPayloadTrafficAccounting(t *testing.T) {
	stats, err := mpi.RunWith(2, mpi.Options{Watchdog: 30 * time.Second}, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 1, []matchBid{{Cand: 1, Match: 2, Score: 3}, {}})
			c.Send(1, 2, []moveProposal{{V: 1, To: 2, Gain: 3}, {}, {}})
		} else {
			if got := c.Recv(0, 1).([]matchBid); len(got) != 2 {
				return fmt.Errorf("got %d bids", len(got))
			}
			if got := c.Recv(0, 2).([]moveProposal); len(got) != 3 {
				return fmt.Errorf("got %d proposals", len(got))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := stats.Bytes.Load(); got != 2*16+3*16 {
		t.Fatalf("struct payloads accounted as %d bytes, want 80", got)
	}
}
