package core

import (
	"fmt"
	"sync"

	"hyperbal/internal/partition"
)

// Account is the t_tot account of an epoch sequence (Section 1): the
// load-balance operations after the initial partition, the last result
// (its partition is the current distribution) and the running α·comm + mig
// over every result, the initial one included.
type Account struct {
	Epoch int64
	Last  Result
	Total int64
}

// StartAccount opens the account of a sequence at its initial partition.
func StartAccount(first Result, alpha int64) Account {
	return Account{Last: first, Total: first.TotalCost(alpha)}
}

// Install records one load-balance operation: res becomes the current
// distribution and joins the running total.
func (a *Account) Install(res Result, alpha int64) {
	a.Epoch++
	a.Last = res
	a.Total += res.TotalCost(alpha)
}

// Session manages the epoch lifecycle of an adaptive application: it owns
// the current distribution, decides when rebalancing is worthwhile (the
// "even if the original problem is well balanced ... the computation may
// become unbalanced over time" motivation of Section 1), and keeps the
// Account of the run for the t_tot accounting.
//
// # Concurrency contract
//
// Every Session method is safe for concurrent use: an internal mutex
// serializes them, so two concurrent Rebalance calls execute one after the
// other with consistent epoch numbering. The mutex does NOT make
// concurrent lifecycles meaningful — a caller that interleaves
// ShouldRebalance and Rebalance from different goroutines gets serialized
// but arbitrary ordering; coordinate epochs above the Session if ordering
// matters. The exported Threshold field is NOT guarded: mutate it only
// while no method call is in flight.
type Session struct {
	mu   sync.Mutex
	bal  *Balancer
	acct Account // Last holds the session's own copy of the partition

	// Threshold is the imbalance above which ShouldRebalance fires
	// (default: 2x the balancer's epsilon). Set it before sharing the
	// session across goroutines.
	Threshold float64
}

// NewSession computes the epoch-1 static partition of the problem and
// returns the running session.
func NewSession(bal *Balancer, p Problem) (*Session, Result, error) {
	res, err := bal.Partition(p)
	if err != nil {
		return nil, Result{}, err
	}
	s := &Session{bal: bal, Threshold: 2 * bal.Config().Imbalance}
	s.acct = StartAccount(res, bal.Config().Alpha)
	s.acct.Last.Partition = res.Partition.Clone() // a caller's edit of res cannot reach the session
	return s, res, nil
}

// Current returns the session's current distribution. The returned
// partition is a snapshot reference: it is replaced (not mutated) by
// Rebalance, so holding it across a rebalance is safe but stale.
func (s *Session) Current() partition.Partition {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.acct.Last.Partition
}

// Epoch returns the number of completed load-balance operations after the
// initial partition.
func (s *Session) Epoch() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.acct.Epoch
}

// ShouldRebalance reports whether the current distribution has drifted out
// of balance on the (possibly weight-updated) problem. It requires an
// unchanged vertex set; structural changes always warrant Rebalance with
// an inherited partition.
func (s *Session) ShouldRebalance(p Problem) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p.H.NumVertices() != len(s.acct.Last.Partition.Parts) {
		return true, nil // structure changed: rebalance unconditionally
	}
	w := partition.Weights(p.H, s.acct.Last.Partition)
	return partition.Imbalance(w) > s.Threshold, nil
}

// Rebalance repartitions the problem against the session's current
// distribution (unchanged vertex set) and installs the result.
func (s *Session) Rebalance(p Problem) (Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p.H.NumVertices() != len(s.acct.Last.Partition.Parts) {
		return Result{}, fmt.Errorf("core: vertex set changed (%d -> %d); use RebalanceInherited with the epoch's inherited partition",
			len(s.acct.Last.Partition.Parts), p.H.NumVertices())
	}
	return s.rebalance(p, s.acct.Last.Partition)
}

// RebalanceInherited repartitions a structurally changed problem given the
// inherited assignment over the new vertex set (e.g. from a dynamics
// generator) and installs the result.
func (s *Session) RebalanceInherited(p Problem, inherited partition.Partition) (Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(inherited.Parts) != p.H.NumVertices() {
		return Result{}, fmt.Errorf("core: inherited partition covers %d vertices, problem has %d",
			len(inherited.Parts), p.H.NumVertices())
	}
	return s.rebalance(p, inherited)
}

// rebalance runs with s.mu held.
func (s *Session) rebalance(p Problem, old partition.Partition) (Result, error) {
	res, err := s.bal.Repartition(p, old, s.acct.Epoch+1)
	if err != nil {
		return Result{}, err
	}
	s.acct.Install(res, s.bal.Config().Alpha)
	s.acct.Last.Partition = res.Partition.Clone()
	return res, nil
}

// TotalCost returns the running α·comm + mig of the session under its
// balancer's α, the initial partition included: the objective the paper
// minimizes, accumulated over the whole run.
func (s *Session) TotalCost() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.acct.Total
}
