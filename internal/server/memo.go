package server

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"strconv"
	"sync"

	"hyperbal/internal/core"
	"hyperbal/internal/partition"
)

// resultMemo is the one place a served load-balance result lives between
// its solve and its install: one entry per cache key, either pending (its
// leader is solving) or done (a kept result). The key covers everything
// that determines the result — the content id of the hypergraph's frame,
// the effective configuration, the epoch number (it seeds the
// partitioner), the previous distribution and, for warm delta epochs, the
// delta's digest — so every caller with an equal key would compute the
// byte-identical result. Config.Parallelism is deliberately excluded:
// results are identical for every parallelism value.
//
// A key is asked before anything is built: the id hashes the bytes a
// client sent, and only a leader builds and validates the hypergraph
// (failing, its entry is dropped). So a kept entry proves its key sound —
// identical bytes, with the same inherited distribution, were built and
// solved — and a hit needs no hypergraph at all.
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

// memoEntry is pending until done is closed.
type memoEntry struct {
	key  string
	done chan struct{}
	val  solved
	err  error
	el   *list.Element // set once the entry is done and kept
}

// solved is what a done entry keeps: the whole result, provenance (Warm,
// RepartTime) included, so a hit reports what the leader's solve
// reported, and the migration summary from the inherited distribution to
// the result (nil for a create). Both are functions of the key, so a hit
// installs them as they are and builds nothing.
type solved struct {
	res core.Result
	mig *MigrationSummary
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
//
// The hashed stream is the header
// "k=%d a=%d eps=%g seed=%d m=%d epoch=%d oldk=%d fp=%s warm=%s;" and then
// each old part as 4 little-endian bytes, appended into one chunk and
// hashed a chunk per Write.
func cacheKey(cfg core.Config, epoch int64, fp string, old partition.Partition, warm string) string {
	var chunk [1024]byte
	b := append(chunk[:0], "k="...)
	b = strconv.AppendInt(b, int64(cfg.K), 10)
	b = strconv.AppendInt(append(b, " a="...), cfg.Alpha, 10)
	b = strconv.AppendFloat(append(b, " eps="...), cfg.Imbalance, 'g', -1, 64)
	b = strconv.AppendInt(append(b, " seed="...), cfg.Seed, 10)
	b = strconv.AppendInt(append(b, " m="...), int64(cfg.Method), 10)
	b = strconv.AppendInt(append(b, " epoch="...), epoch, 10)
	b = strconv.AppendInt(append(b, " oldk="...), int64(old.K), 10)
	b = append(append(b, " fp="...), fp...)
	b = append(append(b, " warm="...), warm...)
	b = append(b, ';')
	h := sha256.New()
	for _, p := range old.Parts {
		if len(b)+4 > len(chunk) {
			h.Write(b)
			b = chunk[:0]
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(p))
	}
	h.Write(b)
	var sum [sha256.Size]byte
	return string(h.Sum(sum[:0]))
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
func (c *resultMemo) do(ctx context.Context, key string, solve func() (solved, error)) (val solved, cached bool, err error) {
	for {
		if err := ctx.Err(); err != nil {
			return solved{}, true, err
		}
		c.mu.Lock()
		e, ok := c.m[key]
		if ok && e.el != nil {
			c.ll.MoveToFront(e.el)
			c.mu.Unlock()
			obsCacheHits.Inc()
			val = e.val
			val.res.Partition = val.res.Partition.Clone()
			return val, true, nil
		}
		if c.max > 0 {
			obsCacheMisses.Inc()
		}
		if ok {
			c.mu.Unlock()
			obsSingleflightShared.Inc()
			select {
			case <-ctx.Done():
				return solved{}, true, ctx.Err()
			case <-e.done:
			}
			if e.err != nil {
				continue // race to become the new leader and retry the solve
			}
			val = e.val
			val.res.Partition = val.res.Partition.Clone()
			return val, true, nil
		}
		e = &memoEntry{key: key, done: make(chan struct{})}
		c.m[key] = e
		c.mu.Unlock()

		obsSingleflightLeaders.Inc()
		val, err = solve()
		c.finish(e, val, err)
		return val, false, err
	}
}

// finish settles a leader's entry and wakes its waiters: a failed entry is
// dropped, a solved one is kept (with its own partition copy, evicting the
// least recently used done entry past the bound) or, with no bound,
// dropped once its waiters have their result.
func (c *resultMemo) finish(e *memoEntry, val solved, err error) {
	c.mu.Lock()
	e.val, e.err = val, err
	switch {
	case err != nil || c.max <= 0:
		delete(c.m, e.key)
	default:
		e.val.res.Partition = val.res.Partition.Clone()
		e.el = c.ll.PushFront(e)
		for c.ll.Len() > c.max {
			delete(c.m, c.ll.Remove(c.ll.Back()).(*memoEntry).key)
		}
		obsCacheEntries.Set(int64(c.ll.Len()))
	}
	c.mu.Unlock()
	close(e.done)
}
