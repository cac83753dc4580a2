package server

import (
	"context"
	"sync"

	"hyperbal/internal/core"
)

// flightGroup coalesces concurrent cold solves that share a cache key. The
// key is the partition-cache key — content fingerprint × effective config ×
// epoch × inherited distribution (× warm digest) — which pins every input
// of the partitioner except Config.Parallelism, excluded by the
// parallelism-invariance property. So any two requests with equal keys
// would compute byte-identical results, and the follower can adopt the
// leader's result as if it had run the solve itself.
//
// Deadlock-freedom: callers hold an admission worker slot while waiting on
// a flight, but the flight's leader also holds its own slot and never
// waits on another flight, so every wait is on a computation that is
// actively running.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flight
}

type flight struct {
	done chan struct{}
	res  core.Result
	err  error
}

func newFlightGroup() *flightGroup { return &flightGroup{m: make(map[string]*flight)} }

// solveOrigin says how a result was obtained.
type solveOrigin int

const (
	originLeader solveOrigin = iota // this caller ran fn
	originShared                    // adopted a concurrent leader's result
	originCached                    // served from the partition cache
)

// solveShared returns the result for key, consulting the partition cache
// first, then coalescing concurrent misses: one caller (the leader) runs
// fn — which must also publish to the cache on success — and every
// concurrent caller with the same key waits and shares the byte-identical
// result. Followers receive a cloned partition so no two sessions alias
// part storage.
//
// Two liveness properties of the follower wait:
//
//   - It selects on ctx, so a caller whose request is canceled (client gone,
//     deadline hit) unblocks immediately instead of being pinned to the
//     leader's wall clock.
//   - A leader error does not fan out to every follower: transient failures
//     (fault-injected delays, resource blips) would turn one failed solve
//     into a 5xx volley. Instead the followers loop — one of them wins the
//     flight map and retries the solve as the new leader, the rest follow
//     the new flight. Each round retires the caller that ran fn (it returns
//     its own result or error), so the retry cascade is bounded by the
//     concurrent caller count.
func (s *Server) solveShared(ctx context.Context, key string, fn func() (core.Result, error)) (core.Result, solveOrigin, error) {
	for {
		if err := ctx.Err(); err != nil {
			return core.Result{}, originShared, err
		}
		if res, ok := s.cache.get(key); ok {
			return res, originCached, nil
		}
		g := s.flights
		g.mu.Lock()
		if f, ok := g.m[key]; ok {
			g.mu.Unlock()
			obsSingleflightShared.Inc()
			select {
			case <-ctx.Done():
				return core.Result{}, originShared, ctx.Err()
			case <-f.done:
			}
			if f.err != nil {
				continue // race to become the new leader and retry the solve
			}
			res := f.res
			res.Partition = res.Partition.Clone()
			return res, originShared, nil
		}
		f := &flight{done: make(chan struct{})}
		g.m[key] = f
		g.mu.Unlock()

		obsSingleflightLeaders.Inc()
		f.res, f.err = fn()

		// fn published to the cache before this point, so a caller arriving
		// after the delete below misses the flight but hits the cache.
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		close(f.done)
		return f.res, originLeader, f.err
	}
}
