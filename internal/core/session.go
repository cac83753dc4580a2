package core

import (
	"fmt"
	"sync"

	"hyperbal/internal/partition"
)

// Session manages the epoch lifecycle of an adaptive application: it owns
// the current distribution, decides when rebalancing is worthwhile (the
// "even if the original problem is well balanced ... the computation may
// become unbalanced over time" motivation of Section 1), and accumulates
// per-epoch results for the t_tot accounting.
//
// # Concurrency contract
//
// Every Session method is safe for concurrent use: an internal mutex
// serializes them, so two concurrent Rebalance calls execute one after the
// other with consistent epoch numbering (this is what the balancerd
// session store relies on in addition to its own per-session queueing).
// The mutex does NOT make concurrent lifecycles meaningful — a caller that
// interleaves ShouldRebalance and Rebalance from different goroutines gets
// serialized but arbitrary ordering; coordinate epochs above the Session
// if ordering matters. The exported Threshold and History fields are NOT
// guarded: mutate Threshold and read History only while no method call is
// in flight, or use the HistoryLen/LastResult accessors.
type Session struct {
	mu    sync.Mutex
	bal   *Balancer
	cur   partition.Partition
	epoch int64

	// Threshold is the imbalance above which ShouldRebalance fires
	// (default: 2x the balancer's epsilon). Set it before sharing the
	// session across goroutines.
	Threshold float64

	// History records every load-balance operation of the session. Safe to
	// read only while no method call is in flight (see the concurrency
	// contract above).
	History []Result
}

// NewSession computes the epoch-1 static partition of the problem and
// returns the running session.
func NewSession(bal *Balancer, p Problem) (*Session, Result, error) {
	res, err := bal.Partition(p)
	if err != nil {
		return nil, Result{}, err
	}
	return NewSessionWith(bal, res), res, nil
}

// NewSessionWith returns a running session seeded with a previously
// computed epoch-1 result — the cache-hit path of a serving layer that
// already holds the static partition for this problem and configuration.
// The result must come from a Balancer with the same configuration.
func NewSessionWith(bal *Balancer, res Result) *Session {
	s := &Session{
		bal:       bal,
		cur:       res.Partition.Clone(),
		Threshold: 2 * bal.Config().Imbalance,
	}
	s.History = append(s.History, res)
	return s
}

// NewSessionAt returns a running session restored at a given epoch — the
// handoff path of a distributed serving tier adopting a session serialized
// by another replica. res must be the session's last load-balance result
// (its partition becomes the current distribution) and epoch the number of
// completed operations; the next Rebalance then runs with exactly the
// inputs the originating replica would have used, so post-handoff results
// stay byte-identical to an uninterrupted run. History starts over at res.
func NewSessionAt(bal *Balancer, res Result, epoch int64) *Session {
	s := NewSessionWith(bal, res)
	s.epoch = epoch
	return s
}

// Current returns the session's current distribution. The returned
// partition is a snapshot reference: it is replaced (not mutated) by
// Rebalance, so holding it across a rebalance is safe but stale.
func (s *Session) Current() partition.Partition {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur
}

// Epoch returns the number of completed load-balance operations after the
// initial partition.
func (s *Session) Epoch() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// HistoryLen returns the number of recorded load-balance operations
// (including the initial partition).
func (s *Session) HistoryLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.History)
}

// LastResult returns the most recent load-balance result.
func (s *Session) LastResult() Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.History[len(s.History)-1]
}

// ShouldRebalance reports whether the current distribution has drifted out
// of balance on the (possibly weight-updated) problem. It requires an
// unchanged vertex set; structural changes always warrant Rebalance with
// an inherited partition.
func (s *Session) ShouldRebalance(p Problem) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p.H.NumVertices() != len(s.cur.Parts) {
		return true, nil // structure changed: rebalance unconditionally
	}
	w := partition.Weights(p.H, s.cur)
	return partition.Imbalance(w) > s.Threshold, nil
}

// Rebalance repartitions the problem against the session's current
// distribution (unchanged vertex set) and installs the result.
func (s *Session) Rebalance(p Problem) (Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p.H.NumVertices() != len(s.cur.Parts) {
		return Result{}, fmt.Errorf("core: vertex set changed (%d -> %d); use RebalanceInherited with the epoch's inherited partition",
			len(s.cur.Parts), p.H.NumVertices())
	}
	return s.rebalance(p, s.cur)
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

// RebalanceWarmInherited is RebalanceInherited with a warm-started
// partitioner: the epoch's solve is seeded from the inherited assignment
// and, when dirty is non-nil (e.g. from hypergraph.Delta.DirtyVertices),
// restricted to the dirty region. Methods without warm support fall back
// to the cold path; see Balancer.RepartitionWarm.
func (s *Session) RebalanceWarmInherited(p Problem, inherited partition.Partition, dirty []bool) (Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(inherited.Parts) != p.H.NumVertices() {
		return Result{}, fmt.Errorf("core: inherited partition covers %d vertices, problem has %d",
			len(inherited.Parts), p.H.NumVertices())
	}
	s.epoch++
	res, err := s.bal.RepartitionWarm(p, inherited, s.epoch, dirty)
	if err != nil {
		s.epoch--
		return Result{}, err
	}
	s.install(res)
	return res, nil
}

// Adopt installs a previously computed rebalance result as the next epoch
// without running the partitioner — the cache-hit path of a serving layer.
// The result must be exactly what Rebalance would have produced for the
// session's next epoch (same problem fingerprint, configuration, epoch
// seed and previous distribution); the caller is responsible for that
// equivalence, typically via a fingerprint-keyed cache.
func (s *Session) Adopt(res Result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.epoch++
	s.install(res)
}

// rebalance runs with s.mu held.
func (s *Session) rebalance(p Problem, old partition.Partition) (Result, error) {
	s.epoch++
	res, err := s.bal.Repartition(p, old, s.epoch)
	if err != nil {
		s.epoch--
		return Result{}, err
	}
	s.install(res)
	return res, nil
}

// install records a completed epoch result (s.mu held, epoch already
// advanced).
func (s *Session) install(res Result) {
	s.cur = res.Partition.Clone()
	s.History = append(s.History, res)
}

// TotalCost sums α·comm + mig over the session's history (the objective
// the paper minimizes, accumulated over the whole run).
func (s *Session) TotalCost(alpha int64) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var t int64
	for _, r := range s.History {
		t += r.TotalCost(alpha)
	}
	return t
}
