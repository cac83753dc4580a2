package server

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"

	"hyperbal/internal/core"
	"hyperbal/internal/partition"
)

// partitionCache is the fingerprint-keyed repartition-result cache: the
// key covers everything that determines a load-balance result — the
// hypergraph content fingerprint, the effective configuration, the epoch
// number (it seeds the partitioner) and the previous distribution — so a
// hit is exactly the result the partitioner would recompute, and identical
// epoch submissions (retries, or N sessions running the same workload)
// are served without re-partitioning. Config.Parallelism is deliberately
// excluded: results are identical for every parallelism value.
type partitionCache struct {
	mu  sync.Mutex
	max int
	ll  *list.List // front = most recently used
	m   map[string]*list.Element
}

type cacheEntry struct {
	key   string
	parts []int32
	k     int
	comm  int64
	mig   int64
	moved int
}

func newPartitionCache(max int) *partitionCache {
	if max <= 0 {
		return nil
	}
	return &partitionCache{max: max, ll: list.New(), m: make(map[string]*list.Element)}
}

// cacheKey derives the cache key for partitioning `fp` at `epoch` under
// cfg given the previous distribution (zero-value partition for the
// epoch-0 static partitioning). warm is "" for the cold path — a
// cold-applied delta epoch produces the exact result a full submission of
// the same hypergraph would, so the two share cache entries — and
// "warm:"+delta.Digest() for warm-started delta epochs, whose result
// additionally depends on the delta's dirty region.
func cacheKey(cfg core.Config, epoch int64, fp string, old partition.Partition, warm string) string {
	h := sha256.New()
	fmt.Fprintf(h, "k=%d a=%d eps=%g seed=%d m=%d mc=%d ct=%d is=%d rp=%d epoch=%d oldk=%d fp=%s warm=%s;",
		cfg.K, cfg.Alpha, cfg.Imbalance, cfg.Seed, cfg.Method,
		cfg.MaxClique, cfg.CoarsenTo, cfg.InitialStarts, cfg.RefinePasses,
		epoch, old.K, fp, warm)
	var buf [4]byte
	for _, p := range old.Parts {
		binary.LittleEndian.PutUint32(buf[:], uint32(p))
		h.Write(buf[:])
	}
	return string(h.Sum(nil))
}

// get returns the cached result (with a freshly cloned partition) and
// whether it was present.
func (c *partitionCache) get(key string) (core.Result, bool) {
	if c == nil {
		return core.Result{}, false
	}
	c.mu.Lock()
	el, ok := c.m[key]
	if !ok {
		c.mu.Unlock()
		obsCacheMisses.Inc()
		return core.Result{}, false
	}
	c.ll.MoveToFront(el)
	e := el.Value.(*cacheEntry)
	res := core.Result{
		Partition:       partition.Partition{Parts: append([]int32(nil), e.parts...), K: e.k},
		CommVolume:      e.comm,
		MigrationVolume: e.mig,
		Moved:           e.moved,
	}
	c.mu.Unlock()
	obsCacheHits.Inc()
	return res, true
}

// put stores a result, evicting the least recently used entry past the
// capacity bound.
func (c *partitionCache) put(key string, res core.Result) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// The gauge is refreshed on every exit path — including the
	// existing-key early return — so it can never go stale relative to the
	// real entry count (it used to be set only on the insert path).
	defer func() { obsCacheEntries.Set(int64(c.ll.Len())) }()
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		return
	}
	e := &cacheEntry{
		key:   key,
		parts: append([]int32(nil), res.Partition.Parts...),
		k:     res.Partition.K,
		comm:  res.CommVolume,
		mig:   res.MigrationVolume,
		moved: res.Moved,
	}
	c.m[key] = c.ll.PushFront(e)
	for c.ll.Len() > c.max {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.m, last.Value.(*cacheEntry).key)
	}
}
