package server

// Regression tests for the serving-tier liveness bugs fixed alongside the
// distributed serving tier. Each test encodes the pre-fix failure mode:
//
//   - the TTL janitor evicting a session while a handler still held it,
//   - singleflight followers ignoring their request context and adopting a
//     leader's transient error,
//   - the admission gauges being derived from the racy channel length
//     instead of locked bookkeeping,
//   - partitionCache.put leaving the entries gauge stale on the
//     existing-key early return.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hyperbal/internal/core"
	"hyperbal/internal/hypergraph"
	"hyperbal/internal/partition"
)

func testResult(parts ...int32) core.Result {
	return core.Result{Partition: partition.Partition{Parts: parts, K: 2}, CommVolume: 7}
}

func testHypergraph(t *testing.T) *hypergraph.Hypergraph {
	t.Helper()
	b := hypergraph.NewBuilder(4)
	b.AddNet(2, 0, 1, 2)
	b.AddNet(1, 1, 3)
	b.AddNet(3, 0, 3)
	return b.Build()
}

// TestSweepSkipsBusySessions: a session held by a handler (busy refcount
// > 0) must survive TTL sweeps regardless of how stale its lastAccess is.
// Pre-fix, sweep only consulted lastAccess, so a cold solve longer than
// the TTL got its session evicted mid-epoch and the handler's result was
// orphaned.
func TestSweepSkipsBusySessions(t *testing.T) {
	st := newStore(0) // no janitor; sweeps are driven by hand
	st.ttl = 10 * time.Millisecond
	defer st.close()

	st.add(&session{id: "s-idle"})
	entry, release := st.acquire("s-idle")
	if entry == nil {
		t.Fatal("acquire failed on a live session")
	}
	// Simulate a solve that outlives the TTL: make the session look long
	// idle while the handler still holds it.
	entry.lastAccess.Store(time.Now().Add(-time.Hour).UnixNano())
	st.sweep(time.Now())
	if st.get("s-idle") == nil {
		t.Fatal("sweep evicted a session a handler still holds")
	}

	release()
	// release touches the session, so the idle clock restarts at handler
	// completion; only once it genuinely idles past the TTL may it go.
	st.sweep(time.Now())
	if st.get("s-idle") == nil {
		t.Fatal("sweep evicted a freshly released session")
	}
	st.get("s-idle").lastAccess.Store(time.Now().Add(-time.Hour).UnixNano())
	st.sweep(time.Now())
	if st.get("s-idle") != nil {
		t.Fatal("idle session survived the sweep after release")
	}
}

// TestAddIfAbsentAdmitsExactlyOne: concurrent creates racing the same
// pre-assigned session id must admit exactly one session. Pre-fix the
// handler used a get-then-add pair, so two creates could both pass the
// duplicate check and the second add silently overwrote the first session.
func TestAddIfAbsentAdmitsExactlyOne(t *testing.T) {
	st := newStore(0)
	defer st.close()

	const contenders = 16
	entries := make([]*session, contenders)
	admitted := make([]bool, contenders)
	var wg sync.WaitGroup
	var start sync.WaitGroup
	start.Add(1)
	for i := 0; i < contenders; i++ {
		entries[i] = &session{id: "s-contended"}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start.Wait()
			admitted[i] = st.addIfAbsent(entries[i])
		}(i)
	}
	start.Done()
	wg.Wait()

	winners := 0
	winner := -1
	for i, ok := range admitted {
		if ok {
			winners++
			winner = i
		}
	}
	if winners != 1 {
		t.Fatalf("%d of %d concurrent addIfAbsent calls admitted, want exactly 1", winners, contenders)
	}
	if got := st.get("s-contended"); got != entries[winner] {
		t.Fatal("the stored session is not the admitted winner's entry")
	}
}

// waitForFlight blocks until key has an in-flight solve registered.
func waitForFlight(t *testing.T, s *Server, key string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		s.flights.mu.Lock()
		_, ok := s.flights.m[key]
		s.flights.mu.Unlock()
		if ok {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("leader flight never registered")
}

// TestSolveSharedFollowerCancel: a follower whose request context is
// canceled must unblock immediately instead of being pinned to the
// leader's wall clock. Pre-fix the follower waited on the flight's done
// channel unconditionally.
func TestSolveSharedFollowerCancel(t *testing.T) {
	s := New(Config{SessionTTL: -1})
	defer s.Close()
	const key = "cancel-test-key"

	block := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		_, _, _ = s.solveShared(context.Background(), key, func() (core.Result, error) {
			<-block
			res := testResult(0, 1)
			s.cache.put(key, res)
			return res, nil
		})
	}()
	waitForFlight(t, s, key)

	ctx, cancel := context.WithCancel(context.Background())
	followerErr := make(chan error, 1)
	go func() {
		_, _, err := s.solveShared(ctx, key, func() (core.Result, error) {
			t.Error("canceled follower must not run the solve")
			return core.Result{}, nil
		})
		followerErr <- err
	}()
	time.Sleep(5 * time.Millisecond) // let the follower reach the wait
	cancel()
	select {
	case err := <-followerErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("follower returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("canceled follower stayed blocked on the leader's flight")
	}
	close(block) // release the leader
	<-leaderDone
}

// TestSolveSharedLeaderErrorRetry: a leader's transient error must not fan
// out to every follower as a 5xx volley — one follower re-races the flight
// map and retries the solve; the rest share its result. Pre-fix every
// follower adopted the leader's error.
func TestSolveSharedLeaderErrorRetry(t *testing.T) {
	s := New(Config{SessionTTL: -1})
	defer s.Close()
	const key = "retry-test-key"

	block := make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := s.solveShared(context.Background(), key, func() (core.Result, error) {
			<-block
			return core.Result{}, errors.New("transient solve failure")
		})
		leaderErr <- err
	}()
	waitForFlight(t, s, key)

	var retrySolves atomic.Int32
	var wg sync.WaitGroup
	followerErrs := make([]error, 2)
	followerParts := make([][]int32, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, _, err := s.solveShared(context.Background(), key, func() (core.Result, error) {
				retrySolves.Add(1)
				r := testResult(1, 0)
				s.cache.put(key, r)
				return r, nil
			})
			followerErrs[i], followerParts[i] = err, res.Partition.Parts
		}(i)
	}
	time.Sleep(5 * time.Millisecond) // let both followers reach the wait
	close(block)

	if err := <-leaderErr; err == nil {
		t.Fatal("the caller that ran the failing solve must see its error")
	}
	wg.Wait()
	for i := 0; i < 2; i++ {
		if followerErrs[i] != nil {
			t.Fatalf("follower %d adopted the leader's transient error: %v", i, followerErrs[i])
		}
		if len(followerParts[i]) != 2 {
			t.Fatalf("follower %d got no result", i)
		}
	}
	if n := retrySolves.Load(); n < 1 || n > 2 {
		t.Fatalf("retry solves = %d, want 1 (new leader) or 2 (cache race)", n)
	}
}

// TestAdmissionGaugesFromBookkeeping: the in-flight gauge must be derived
// from locked bookkeeping, not from len(slots) — a slot mid-transition on
// the channel (here emulated by draining a token) must not change what the
// gauges report. Pre-fix, gaugesLocked sampled len(a.slots) and the
// post-release snapshot raced queued wake-ups into impossible depths.
func TestAdmissionGaugesFromBookkeeping(t *testing.T) {
	a := newAdmission(2, 4)
	release, err := a.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := obsInFlight.Load(); got != 1 {
		t.Fatalf("inflight gauge = %d after one acquire, want 1", got)
	}

	// Emulate another goroutine mid slot-transition: the channel length
	// changes, the bookkeeping does not. The gauges must follow the books.
	<-a.slots
	a.mu.Lock()
	a.gaugesLocked()
	a.mu.Unlock()
	if got := obsInFlight.Load(); got != 1 {
		t.Fatalf("inflight gauge = %d, want 1 (gauge must not track channel length)", got)
	}
	if got := obsQueueDepth.Load(); got != 0 {
		t.Fatalf("queue gauge = %d, want 0", got)
	}
	a.slots <- struct{}{}

	release()
	if obsInFlight.Load() != 0 || obsQueueDepth.Load() != 0 {
		t.Fatalf("gauges (%d,%d) after full release, want (0,0)",
			obsInFlight.Load(), obsQueueDepth.Load())
	}
}

// TestCacheGaugeRefreshedOnDuplicatePut: put must refresh the entries
// gauge on every path, including the existing-key early return — the gauge
// is process-global, so a duplicate put on one cache must restore its view
// after another cache moved the gauge. Pre-fix the early return skipped
// the refresh and the gauge kept the other cache's count.
func TestCacheGaugeRefreshedOnDuplicatePut(t *testing.T) {
	res := testResult(0, 1)
	c1 := newPartitionCache(8)
	c1.put("a", res)
	c1.put("b", res)
	c2 := newPartitionCache(8)
	c2.put("x", res) // gauge now reflects c2 (1 entry)

	c1.put("a", res) // duplicate: early return, but the gauge must refresh
	if got := obsCacheEntries.Load(); got != int64(c1.len()) {
		t.Fatalf("entries gauge = %d after duplicate put, want %d", got, c1.len())
	}
}

// TestHandoffCodecRoundTrip: the drain-handoff frame must reproduce the
// session state exactly — config, epoch, last result, migration summary,
// and a hypergraph whose recomputed fingerprint matches the recorded one.
func TestHandoffCodecRoundTrip(t *testing.T) {
	h := testHypergraph(t)
	bal, err := core.NewBalancer(core.Config{K: 2, Alpha: 25, Seed: 3, Method: core.HypergraphRepart})
	if err != nil {
		t.Fatal(err)
	}
	cfg := bal.Config()
	st := handoffState{
		ID:     "s-0123456789abcdef0123456789abcdef",
		Config: WireConfigFrom(cfg),
		Epoch:  4,
		Last: WireResult{
			Epoch: 4, K: 2, Parts: []int32{0, 1, 1, 0},
			CommVolume: 9, MigrationVolume: 3, Moved: 2, RepartMs: 1.5,
			Rebalanced: true, Warm: true,
		},
		Mig:  &MigrationSummary{Moves: 2, TotalVolume: 3, MaxOutbound: 2, MaxInbound: 1, Volume: [][]int64{{0, 2}, {1, 0}}},
		Base: hypergraph.Frame{H: h, FP: h.Fingerprint()},
	}
	var got handoffState
	if err := decodeMsg(appendMsg(nil, st), &got); err != nil {
		t.Fatal(err)
	}
	if got.ID != st.ID || got.Epoch != st.Epoch || got.Base.FP != st.Base.FP {
		t.Fatalf("identity fields corrupted: %+v", got)
	}
	if got.Config != st.Config {
		t.Fatalf("config mismatch: %+v vs %+v", got.Config, st.Config)
	}
	if !int32SliceEqual(got.Last.Parts, st.Last.Parts) || got.Last.CommVolume != st.Last.CommVolume ||
		got.Last.Warm != st.Last.Warm || got.Last.Moved != st.Last.Moved {
		t.Fatalf("last result mismatch: %+v vs %+v", got.Last, st.Last)
	}
	if got.Mig == nil || got.Mig.Moves != 2 || len(got.Mig.Volume) != 2 {
		t.Fatalf("migration summary mismatch: %+v", got.Mig)
	}
	if got.Base.H.Fingerprint() != h.Fingerprint() {
		t.Fatal("hypergraph fingerprint changed across the handoff codec")
	}
}

// TestPostHandoffDeliversLargeFrames: a handoff frame embeds the full base
// hypergraph, so it routinely exceeds the 32KB chunks net/http copies
// request bodies in. The whole frame must arrive. Pre-fix the request body
// reader returned io.EOF alongside the first chunk, so any frame past one
// copy buffer was silently truncated, the receiver's decode failed, every
// ring candidate rejected the handoff, and the session died with the
// draining replica.
func TestPostHandoffDeliversLargeFrames(t *testing.T) {
	s := New(Config{SessionTTL: -1})
	defer s.Close()

	frame := make([]byte, 200<<10)
	for i := range frame {
		frame[i] = byte(i * 31)
	}

	var got []byte
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Errorf("reading handoff body: %v", err)
		}
		got = body
		w.WriteHeader(http.StatusNoContent)
	}))
	defer ts.Close()

	if !s.postHandoff(context.Background(), ts.URL, frame) {
		t.Fatal("postHandoff reported failure against an accepting peer")
	}
	if len(got) != len(frame) {
		t.Fatalf("peer received %d of %d frame bytes — handoff body truncated", len(got), len(frame))
	}
	if !bytes.Equal(got, frame) {
		t.Fatal("peer received corrupted frame bytes")
	}
}

// TestCacheResultCodecRoundTrip covers the peer-cache wire frame.
func TestCacheResultCodecRoundTrip(t *testing.T) {
	want := core.Result{
		Partition:       partition.Partition{Parts: []int32{1, 0, 1}, K: 2},
		CommVolume:      11,
		MigrationVolume: 4,
		Moved:           3,
		RepartTime:      1700 * time.Microsecond,
		Warm:            true,
	}
	var m cacheResult
	if err := decodeMsg(appendMsg(nil, cacheResult{want}), &m); err != nil {
		t.Fatal(err)
	}
	got := m.Result
	if !int32SliceEqual(got.Partition.Parts, want.Partition.Parts) ||
		got.Partition.K != want.Partition.K ||
		got.CommVolume != want.CommVolume ||
		got.MigrationVolume != want.MigrationVolume ||
		got.Moved != want.Moved {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, want)
	}
	// Warm-start provenance must survive adoption: a peer-adopted entry is
	// republished into the local cache, so dropping these fields misreports
	// warm=false / repart_ms=0 for every later hit on the adopted entry.
	if got.RepartTime != want.RepartTime || got.Warm != want.Warm {
		t.Fatalf("provenance lost in round trip: warm=%v repart=%s, want warm=%v repart=%s",
			got.Warm, got.RepartTime, want.Warm, want.RepartTime)
	}
}

func int32SliceEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
