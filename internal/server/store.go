package server

import (
	"crypto/rand"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"

	"hyperbal/internal/core"
	"hyperbal/internal/hypergraph"
)

// session is one served epoch sequence: the balancer that solves it, the
// state each epoch's solve reads and the install advances (the t_tot
// account, base hypergraph, migration summary), the per-session mutex that
// serializes epoch submissions (so two concurrent submissions for the same
// session execute in some order, never interleaved), and the TTL
// bookkeeping.
type session struct {
	id  string
	bal *core.Balancer

	mu sync.Mutex // serializes epoch work on this session and guards the fields below
	// Account's Epoch is the number of the last solve (the next runs at
	// Epoch+1, the number its cache key carries) and Last.Partition the
	// current distribution.
	core.Account
	lastMig *MigrationSummary
	// base is the last accepted epoch hypergraph with its content id — the
	// base the next delta submission applies against, never hashed again.
	// A full epoch that hit the memo keeps it as its frame's bytes, built
	// (once) only when a delta or a handoff adoption needs it.
	base hypergraph.Frame

	lastAccess atomic.Int64 // unix nanos, for TTL eviction

	// busy counts handlers currently working on this session. The TTL
	// janitor never evicts a busy session: lastAccess alone is touched at
	// lookup time, so a cold solve longer than the TTL used to get its
	// session deleted while the handler still held it — the next request
	// 404'd and the result was orphaned. Incremented under the store's read
	// lock (sweep holds the write lock, so it never observes a torn state).
	busy atomic.Int32
}

// install records one solved epoch, whatever its origin (leader, shared or
// cached): res goes into the account, h becomes the base of the next
// delta, mig the latest migration summary. Called with mu held.
func (s *session) install(res core.Result, h hypergraph.Frame, mig *MigrationSummary) {
	s.Install(res, s.bal.Config().Alpha)
	s.base = h
	s.lastMig = mig
}

func (s *session) touch() { s.lastAccess.Store(time.Now().UnixNano()) }

// store is the concurrent session store: RWMutex-guarded id map plus a
// TTL janitor that evicts sessions idle longer than ttl.
type store struct {
	mu  sync.RWMutex
	m   map[string]*session
	ttl time.Duration

	stop     chan struct{}
	stopOnce sync.Once
}

func newStore(ttl time.Duration) *store {
	st := &store{m: make(map[string]*session), ttl: ttl, stop: make(chan struct{})}
	if ttl > 0 {
		interval := ttl / 4
		if interval < 10*time.Millisecond {
			interval = 10 * time.Millisecond
		}
		go st.janitor(interval)
	}
	return st
}

func (st *store) janitor(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-st.stop:
			return
		case now := <-t.C:
			st.sweep(now)
		}
	}
}

// sweep evicts sessions whose last access is older than ttl, skipping any
// session a handler currently holds (busy refcount > 0) — the handler
// touches the session when it releases, so a long solve just restarts the
// idle clock instead of orphaning its result.
func (st *store) sweep(now time.Time) {
	cutoff := now.Add(-st.ttl).UnixNano()
	st.mu.Lock()
	for id, s := range st.m {
		if s.busy.Load() > 0 {
			continue
		}
		if s.lastAccess.Load() < cutoff {
			delete(st.m, id)
		}
	}
	st.mu.Unlock()
}

func (st *store) add(s *session) {
	s.touch()
	st.mu.Lock()
	st.m[s.id] = s
	st.mu.Unlock()
}

// addIfAbsent inserts s unless a session with the same id already exists;
// check and insert happen under one write lock, so two concurrent creates
// pre-assigned the same id cannot both pass a lookup and silently
// overwrite each other.
func (st *store) addIfAbsent(s *session) bool {
	s.touch()
	st.mu.Lock()
	if _, ok := st.m[s.id]; ok {
		st.mu.Unlock()
		return false
	}
	st.m[s.id] = s
	st.mu.Unlock()
	return true
}

func (st *store) get(id string) *session {
	st.mu.RLock()
	s := st.m[id]
	st.mu.RUnlock()
	if s != nil {
		s.touch()
	}
	return s
}

// acquire is get plus a busy hold: the returned release must be called
// exactly once when the handler is done with the session. While held, the
// TTL janitor will not evict the session regardless of how long the
// handler's solve takes; release touches the session so the idle clock
// restarts at completion time, not at lookup time.
func (st *store) acquire(id string) (*session, func()) {
	st.mu.RLock()
	s := st.m[id]
	if s != nil {
		s.busy.Add(1)
	}
	st.mu.RUnlock()
	if s == nil {
		return nil, nil
	}
	s.touch()
	return s, func() {
		s.touch()
		s.busy.Add(-1)
	}
}

// snapshot returns every live session (for drain-time handoff).
func (st *store) snapshot() []*session {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make([]*session, 0, len(st.m))
	for _, s := range st.m {
		out = append(out, s)
	}
	return out
}

// holds reports whether s is the session the store keeps under its id.
func (st *store) holds(s *session) bool {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.m[s.id] == s
}

// remove drops s, and reports false when the store no longer held it.
func (st *store) remove(s *session) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.m[s.id] != s {
		return false
	}
	delete(st.m, s.id)
	return true
}

func (st *store) len() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.m)
}

// close stops the janitor. Sessions remain readable.
func (st *store) close() { st.stopOnce.Do(func() { close(st.stop) }) }

// newSessionID returns a 128-bit random session id.
func newSessionID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("server: crypto/rand unavailable: " + err.Error())
	}
	return "s-" + hex.EncodeToString(b[:])
}
