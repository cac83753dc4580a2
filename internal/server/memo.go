package server

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"

	"hyperbal/internal/core"
	"hyperbal/internal/partition"
)

// resultMemo is the one place a served load-balance result lives between
// its solve and its install: one entry per cache key, either pending (its
// leader is solving) or done (a kept result). The key covers everything
// that determines the result — the hypergraph content fingerprint, the
// effective configuration, the epoch number (it seeds the partitioner), the
// previous distribution and, for warm delta epochs, the delta's digest —
// so every caller with an equal key would compute the byte-identical
// result. Config.Parallelism is deliberately excluded: results are
// identical for every parallelism value.
//
// A done entry is a hit; a pending entry makes the caller wait for its
// leader; a missing entry makes the caller the leader. Done entries are
// bounded by an LRU of max entries; max <= 0 keeps none, but concurrent
// solves of one key still coalesce onto one leader.
//
// Deadlock-freedom: callers hold an admission worker slot while waiting on
// a pending entry, but its leader also holds its own slot and never waits
// on another entry, so every wait is on a computation that is actively
// running.
type resultMemo struct {
	mu  sync.Mutex
	max int
	m   map[string]*memoEntry
	ll  *list.List // done entries, front = most recently used
}

// memoEntry is pending until done is closed. A done entry keeps the whole
// result, provenance (Warm, RepartTime) included, so a hit reports what
// the leader's solve reported.
type memoEntry struct {
	key  string
	done chan struct{}
	res  core.Result
	err  error
	el   *list.Element // set once the entry is done and kept
}

func newResultMemo(max int) *resultMemo {
	return &resultMemo{max: max, m: make(map[string]*memoEntry), ll: list.New()}
}

// cacheKey derives the memo key for partitioning `fp` at `epoch` under cfg
// given the previous distribution (zero-value partition for the epoch-0
// static partitioning). warm is "" for the cold path — a cold-applied
// delta epoch produces the exact result a full submission of the same
// hypergraph would, so the two share entries — and "warm:"+delta.Digest()
// for warm-started delta epochs, whose result additionally depends on the
// delta's dirty region.
func cacheKey(cfg core.Config, epoch int64, fp string, old partition.Partition, warm string) string {
	h := sha256.New()
	fmt.Fprintf(h, "k=%d a=%d eps=%g seed=%d m=%d epoch=%d oldk=%d fp=%s warm=%s;",
		cfg.K, cfg.Alpha, cfg.Imbalance, cfg.Seed, cfg.Method,
		epoch, old.K, fp, warm)
	var buf [4]byte
	for _, p := range old.Parts {
		binary.LittleEndian.PutUint32(buf[:], uint32(p))
		h.Write(buf[:])
	}
	return string(h.Sum(nil))
}

// do returns the result for key and whether it came from a done entry or
// a concurrent leader rather than from this caller's own solve. solve must
// be a side-effect-free function of the key: the leader's result is handed
// to every caller that shares the key, and every caller but the leader
// receives its own partition copy, so no two sessions alias part storage.
//
// Two liveness properties of the wait on a pending entry:
//
//   - It selects on ctx, so a caller whose request is canceled (client gone,
//     deadline hit) unblocks immediately instead of being pinned to the
//     leader's wall clock.
//   - A leader error does not fan out to every waiter: transient failures
//     (fault-injected delays, resource blips) would turn one failed solve
//     into a 5xx volley. The leader drops its entry before it wakes the
//     waiters, so the first of them to look finds the key missing and
//     retries the solve as the new leader while the rest wait on it, or
//     hit its kept result. Each round retires
//     the caller that ran solve (it returns its own result or error), so
//     the retry cascade is bounded by the concurrent caller count.
func (c *resultMemo) do(ctx context.Context, key string, solve func() (core.Result, error)) (res core.Result, cached bool, err error) {
	for {
		if err := ctx.Err(); err != nil {
			return core.Result{}, true, err
		}
		c.mu.Lock()
		e, ok := c.m[key]
		if ok && e.el != nil {
			c.ll.MoveToFront(e.el)
			c.mu.Unlock()
			obsCacheHits.Inc()
			res = e.res
			res.Partition = res.Partition.Clone()
			return res, true, nil
		}
		if c.max > 0 {
			obsCacheMisses.Inc()
		}
		if ok {
			c.mu.Unlock()
			obsSingleflightShared.Inc()
			select {
			case <-ctx.Done():
				return core.Result{}, true, ctx.Err()
			case <-e.done:
			}
			if e.err != nil {
				continue // race to become the new leader and retry the solve
			}
			res = e.res
			res.Partition = res.Partition.Clone()
			return res, true, nil
		}
		e = &memoEntry{key: key, done: make(chan struct{})}
		c.m[key] = e
		c.mu.Unlock()

		obsSingleflightLeaders.Inc()
		res, err = solve()
		c.finish(e, res, err)
		return res, false, err
	}
}

// finish settles a leader's entry and wakes its waiters: a failed entry is
// dropped, a solved one is kept (with its own partition copy, evicting the
// least recently used done entry past the bound) or, with no bound,
// dropped once its waiters have their result.
func (c *resultMemo) finish(e *memoEntry, res core.Result, err error) {
	c.mu.Lock()
	e.res, e.err = res, err
	switch {
	case err != nil || c.max <= 0:
		delete(c.m, e.key)
	default:
		e.res.Partition = res.Partition.Clone()
		e.el = c.ll.PushFront(e)
		for c.ll.Len() > c.max {
			delete(c.m, c.ll.Remove(c.ll.Back()).(*memoEntry).key)
		}
		obsCacheEntries.Set(int64(c.ll.Len()))
	}
	c.mu.Unlock()
	close(e.done)
}
