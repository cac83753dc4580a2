package server_test

// Differential and adversarial tests for the binary wire protocol: every
// endpoint must serve the partitions an in-process core.Session computes,
// invalid hypergraphs and malformed frames must be rejected with clean
// 400s, and concurrent identical cold solves must collapse to one leader
// through the singleflight group.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"hyperbal"
	"hyperbal/internal/core"
	"hyperbal/internal/hypergraph"
	"hyperbal/internal/mpi"
	"hyperbal/internal/obs"
	"hyperbal/internal/server"
)

// TestWireDifferential drives one session lifecycle — create, full epoch,
// inherited epoch, warm delta epoch, info, partition, close — through the
// client and requires every served partition to be byte-identical to an
// in-process core.Session taking the same steps (the warm delta epoch
// through Balancer.RepartitionWarm at the session's next epoch).
func TestWireDifferential(t *testing.T) {
	_, _, client := newTestServer(t, server.Config{})
	ctx := context.Background()
	cfg := core.Config{K: 4, Alpha: 100, Seed: 11}
	bal, err := core.NewBalancer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	check := func(step string, err, refErr error, served, ref []int32) {
		t.Helper()
		if err != nil || refErr != nil {
			t.Fatalf("%s: served %v, in-process %v", step, err, refErr)
		}
		if !bytes.Equal(int32le(served), int32le(ref)) {
			t.Fatalf("%s: served partition differs from the in-process session", step)
		}
	}

	h1 := codecTestHypergraph(1)
	sess, res, err := client.CreateSession(ctx, cfg, h1)
	ref, want, refErr := core.NewSession(bal, core.Problem{H: h1})
	check("create", err, refErr, res.Partition.Parts, want.Partition.Parts)

	h2 := codecTestHypergraph(2)
	res, err = sess.SubmitEpoch(ctx, h2)
	want, refErr = ref.Rebalance(core.Problem{H: h2})
	check("epoch", err, refErr, res.Partition.Parts, want.Partition.Parts)

	h3 := codecTestHypergraph(3)
	res, err = sess.SubmitEpochInherited(ctx, h3, res.Partition)
	want, refErr = ref.RebalanceInherited(core.Problem{H: h3}, want.Partition)
	check("inherited", err, refErr, res.Partition.Parts, want.Partition.Parts)

	// The client's delta base is h3, the last accepted epoch.
	h4 := codecTestHypergraph(4)
	res, err = sess.SubmitEpochDelta(ctx, h4, true)
	d, ok := hypergraph.ComputeDelta(h3, h4)
	if !ok {
		t.Fatal("h3 -> h4 not delta-able")
	}
	want, refErr = bal.RepartitionWarm(core.Problem{H: h4}, ref.Current(), ref.Epoch()+1, d.DirtyVertices(h3, h4))
	check("warm delta", err, refErr, res.Partition.Parts, want.Partition.Parts)
	if res.Warm != want.Warm {
		t.Fatalf("warm delta: served warm=%v, in-process %v", res.Warm, want.Warm)
	}

	// Re-attach through the info endpoint, then fetch the partition.
	sess2, err := client.Session(ctx, sess.ID)
	if err != nil {
		t.Fatalf("info: %v", err)
	}
	if sess2.Epoch() != ref.Epoch()+1 || sess.Epoch() != ref.Epoch()+1 {
		t.Fatalf("info: epoch %d (client view %d), in-process %d", sess2.Epoch(), sess.Epoch(), ref.Epoch()+1)
	}
	part, _, err := sess.Partition(ctx)
	check("partition", err, nil, part.Parts, want.Partition.Parts)
	if err := sess.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestBinaryRejectsInvalidHypergraph: a create whose hypergraph names a
// pin out of range is a 400 whose error body carries the failure
// the hypergraph frame's validation reported.
func TestBinaryRejectsInvalidHypergraph(t *testing.T) {
	_, ts, _ := newTestServer(t, server.Config{})
	resp, err := http.Post(ts.URL+"/v1/sessions", server.ContentTypeBinary, bytes.NewReader(badPinCreateBody()))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("got HTTP %d (%s), want 400", resp.StatusCode, data)
	}
	if !strings.Contains(string(data), "pin 7 out of range") {
		t.Fatalf("error body %q does not name the validation failure", data)
	}
}

// badPinCreateBody is a binary create request whose one net names pin 7 of
// a 3-vertex hypergraph: the valid one-pin variant, encoded, with the pin
// patched (the frame ends on that net's pin, its cost and the three empty
// per-vertex sections; 14 is 7 zigzagged).
func badPinCreateBody() []byte {
	tiny := hypergraph.NewBuilder(3)
	tiny.AddNet(1, 0)
	body := server.AppendCreateRequestBinary(nil,
		server.WireConfigFrom(core.Config{K: 2, Alpha: 10}), tiny.Build())
	body[len(body)-6] = 14
	return body
}

// TestMalformedBinaryFrames posts adversarial binary bodies at the create
// endpoint: truncations, corrupt magic, wrong version/message type, and
// element-count bombs must all come back as clean 400s (JSON error body),
// never 5xx, never a hang.
func TestMalformedBinaryFrames(t *testing.T) {
	_, ts, _ := newTestServer(t, server.Config{})
	valid := server.AppendCreateRequestBinary(nil,
		server.WireConfigFrom(core.Config{K: 2, Alpha: 10}), codecTestHypergraph(1))

	post := func(name string, body []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/sessions", server.ContentTypeBinary, bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: got HTTP %d, want 400", name, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Fatalf("%s: error body Content-Type %q, want JSON", name, ct)
		}
	}

	for i := 0; i < len(valid); i += 7 {
		post("truncated", valid[:i])
	}
	post("empty", nil)

	magic := append([]byte(nil), valid...)
	magic[0] = 'X'
	post("bad-magic", magic)

	ver := append([]byte(nil), valid...)
	ver[3] = 0xEE
	post("bad-version", ver)

	// Version 1 laid messages out by hand, version 2's configuration
	// carried four more fields, version 3 had the only-if-unbalanced flag
	// and a handoff without the cost account, and version 4 wrote the
	// hypergraph and delta frames by hand; their frames are refused, never
	// mis-decoded as version 5.
	for v := byte(1); v <= 4; v++ {
		old := append([]byte(nil), valid...)
		old[3] = v
		post(fmt.Sprintf("version-%d", v), old)
	}

	typ := append([]byte(nil), valid...)
	typ[4] = 0x7F
	post("bad-msg-type", typ)

	trailing := append(append([]byte(nil), valid...), 0xAA)
	post("trailing-bytes", trailing)

	// Length prefix claiming ~2^28 pins in a tiny frame: the decoder must
	// bound counts by the remaining frame bytes instead of allocating.
	bomb := append([]byte(nil), valid[:16]...)
	bomb = append(bomb, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F)
	post("count-bomb", bomb)
}

// TestSingleflightCollapse fires identical create requests concurrently
// at a server whose solver is artificially slowed: exactly the concurrent
// duplicates must coalesce onto one leader (obs counters prove it), and
// every response must carry the byte-identical partition. A server that
// keeps no results (CacheEntries < 0) must coalesce all the same.
func TestSingleflightCollapse(t *testing.T) {
	for _, entries := range []int{0, -1} {
		t.Run(fmt.Sprintf("cache-entries=%d", entries), func(t *testing.T) {
			testSingleflightCollapse(t, entries)
		})
	}
}

func testSingleflightCollapse(t *testing.T, cacheEntries int) {
	const concurrency = 6
	_, ts, _ := newTestServer(t, server.Config{
		Workers:      concurrency + 2,
		CacheEntries: cacheEntries,
		Fault:        &mpi.FaultPlan{Seed: 9, MaxDelay: 150 * time.Millisecond},
	})
	h := codecTestHypergraph(1)
	sfLeaders := obs.Default().Counter("server_singleflight_leaders_total")
	sfShared := obs.Default().Counter("server_singleflight_shared_total")

	// The fault delay is pseudorandom per job, so one volley could in
	// principle finish its leader before any follower arrives (cache hits
	// or fresh leaders all round, shared == 0). Distinct seeds give each
	// attempt a fresh cache key; one collapsing volley proves the property.
	for attempt := 0; attempt < 5; attempt++ {
		cfg := core.Config{K: 4, Alpha: 100, Seed: int64(5 + attempt)}
		leadersBefore, sharedBefore := sfLeaders.Load(), sfShared.Load()
		var (
			gate     = make(chan struct{})
			wg       sync.WaitGroup
			mu       sync.Mutex
			parts    [][]int32
			uncached int
		)
		for i := 0; i < concurrency; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				client := hyperbal.NewClient(ts.URL, hyperbal.ClientOptions{MaxRetries: 1, Backoff: time.Millisecond})
				<-gate
				_, res, err := client.CreateSession(context.Background(), cfg, h)
				if err != nil {
					t.Errorf("create: %v", err)
					return
				}
				mu.Lock()
				parts = append(parts, res.Partition.Parts)
				if !res.Cached {
					uncached++
				}
				mu.Unlock()
			}()
		}
		close(gate)
		wg.Wait()
		if t.Failed() {
			return
		}

		leaders := sfLeaders.Load() - leadersBefore
		shared := sfShared.Load() - sharedBefore
		if leaders < 1 {
			t.Fatalf("no singleflight leader recorded (leaders=%d)", leaders)
		}
		if uncached != int(leaders) {
			t.Fatalf("%d uncached responses but %d leaders", uncached, leaders)
		}
		for i := 1; i < len(parts); i++ {
			if !bytes.Equal(int32le(parts[0]), int32le(parts[i])) {
				t.Fatalf("response %d partition differs from leader's", i)
			}
		}
		if shared >= 1 {
			t.Logf("volley %d: %d leaders, %d shared, %d cached", attempt, leaders, shared, int64(len(parts))-leaders-shared)
			return
		}
	}
	t.Fatal("no volley produced a shared singleflight result in 5 attempts")
}

// codecTestHypergraph builds a small deterministic hypergraph; variant
// perturbs weights so successive epochs actually drift.
func codecTestHypergraph(variant int64) *hypergraph.Hypergraph {
	b := hypergraph.NewBuilder(64)
	for v := 0; v < 64; v++ {
		b.SetWeight(v, 1+(int64(v)*variant)%7)
	}
	for n := 0; n < 96; n++ {
		a := n % 64
		c := (n*7 + 13) % 64
		d := (n*13 + 29) % 64
		b.AddNet(1+int64(n%3), a, c, d)
	}
	return b.Build()
}

func int32le(xs []int32) []byte {
	out := make([]byte, 0, 4*len(xs))
	for _, x := range xs {
		out = append(out, byte(x), byte(x>>8), byte(x>>16), byte(x>>24))
	}
	return out
}
