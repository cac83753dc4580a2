package core

import (
	"sync"
	"testing"
)

// TestSessionConcurrentRebalance is a regression test for the Session
// concurrency contract: concurrent Rebalance / ShouldRebalance / accessor
// calls must be serialized by the internal mutex (run under -race).
// Concurrent callers may interleave in any order, but bookkeeping must
// stay consistent: every epoch advances by 1, and the running total is
// the initial result's cost plus every returned result's, each once.
func TestSessionConcurrentRebalance(t *testing.T) {
	p := mesh(12, 12)
	bal, err := NewBalancer(Config{K: 4, Alpha: 10, Seed: 3, Method: HypergraphRepart})
	if err != nil {
		t.Fatal(err)
	}
	s, first, err := NewSession(bal, p)
	if err != nil {
		t.Fatal(err)
	}

	const callers, rounds = 8, 4
	var (
		wg      sync.WaitGroup
		totalMu sync.Mutex
	)
	total := first.TotalCost(10)
	errs := make(chan error, callers*rounds)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if _, err := s.ShouldRebalance(p); err != nil {
					errs <- err
					return
				}
				res, err := s.Rebalance(p)
				if err != nil {
					errs <- err
					return
				}
				totalMu.Lock()
				total += res.TotalCost(10)
				totalMu.Unlock()
				_ = s.Current()
				_ = s.Epoch()
				_ = s.TotalCost()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	wantEpoch := int64(callers * rounds)
	if s.Epoch() != wantEpoch {
		t.Fatalf("epoch = %d, want %d (lost update under concurrency)", s.Epoch(), wantEpoch)
	}
	if got := s.TotalCost(); got != total {
		t.Fatalf("total cost = %d, want %d (the initial result plus every returned one)", got, total)
	}
}
