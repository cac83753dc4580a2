package server_test

// End-to-end tests for the PATCH delta-epoch endpoint. The acceptance
// criterion mirrors the full-epoch suite: a cold-applied delta epoch must
// be byte-identical to the same workload driven through full submissions
// (and hence to an in-process core.Session), fingerprint mismatches must
// hard-fall back to full resync, and concurrent delta/full submissions to
// one session must serialize (run under -race).

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"hyperbal"
	"hyperbal/internal/core"
	"hyperbal/internal/datasets"
	"hyperbal/internal/dynamics"
	"hyperbal/internal/graph"
	"hyperbal/internal/hypergraph"
	"hyperbal/internal/server"
)

// runRemoteDelta mirrors runRemote but ships every epoch as a delta
// against the previous one. For the weights dynamic the vertex set is
// unchanged (SubmitEpochDelta); for the structure dynamic the vertex map
// is the generator's (SubmitEpochDeltaMapped).
func runRemoteDelta(t *testing.T, client *hyperbal.Client, cfg core.Config, dsName string, n int, seed int64, epochs int, dynamic string, warm bool) (epochTrace, []bool) {
	t.Helper()
	ctx := context.Background()
	g, err := datasets.Generate(dsName, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	h := graph.ToHypergraph(g)
	sess, first, err := client.CreateSession(ctx, cfg, h)
	if err != nil {
		t.Fatal(err)
	}
	tr := epochTrace{parts: [][]int32{first.Partition.Parts}, cached: []bool{first.Cached}}
	warms := []bool{first.Warm}
	gen := newGen(t, dynamic, g, first.Partition, cfg.K, seed)
	for e := 1; e <= epochs; e++ {
		prob, old := gen.Next()
		var res hyperbal.RemoteResult
		if st, ok := gen.(*dynamics.Structural); ok {
			res, err = sess.SubmitEpochDeltaMapped(ctx, prob.H, st.VertexMap(), old, warm)
		} else {
			res, err = sess.SubmitEpochDelta(ctx, prob.H, warm)
		}
		if err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		if res.Epoch != int64(e) {
			t.Fatalf("epoch %d: server reports epoch %d", e, res.Epoch)
		}
		tr.parts = append(tr.parts, res.Partition.Parts)
		tr.cached = append(tr.cached, res.Cached)
		warms = append(warms, res.Warm)
		if err := gen.Observe(res.Partition); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Close(ctx); err != nil {
		t.Fatal(err)
	}
	return tr, warms
}

// TestDeltaEpochEquivalence: a cold delta epoch must produce exactly the
// partition a full submission of the same hypergraph would — for both
// drift modes — because the server reconstructs the identical hypergraph
// before partitioning.
func TestDeltaEpochEquivalence(t *testing.T) {
	_, _, client := newTestServer(t, server.Config{})
	for _, dynamic := range []string{"weights", "structure"} {
		t.Run(dynamic, func(t *testing.T) {
			cfg := core.Config{K: 4, Alpha: 50, Seed: 13, Method: core.HypergraphRepart}
			const n, epochs = 300, 3
			remote, warms := runRemoteDelta(t, client, cfg, "xyce680s", n, 13, epochs, dynamic, false)
			local := runLocal(t, cfg, "xyce680s", n, 13, epochs, dynamic)
			if len(remote.parts) != len(local.parts) {
				t.Fatalf("epoch count mismatch: %d vs %d", len(remote.parts), len(local.parts))
			}
			for e := range remote.parts {
				if !int32Equal(remote.parts[e], local.parts[e]) {
					t.Errorf("epoch %d: delta-served partition differs from in-process result", e)
				}
				if warms[e] {
					t.Errorf("epoch %d: cold delta reported warm", e)
				}
			}
		})
	}
}

// TestDeltaColdSharesCacheWithFull: a cold delta epoch reconstructs the
// same hypergraph a full submission ships, so the two must share cache
// entries — replaying a full-submission workload as deltas hits the cache.
func TestDeltaColdSharesCacheWithFull(t *testing.T) {
	_, _, client := newTestServer(t, server.Config{})
	cfg := core.Config{K: 4, Alpha: 50, Seed: 17, Method: core.HypergraphRepart}
	full := runRemote(t, client, cfg, "auto", 300, 17, 2, "weights")
	replay, _ := runRemoteDelta(t, client, cfg, "auto", 300, 17, 2, "weights", false)
	for e := range replay.cached {
		if !replay.cached[e] {
			t.Errorf("delta replay epoch %d not served from the full-submission cache entry", e)
		}
		if !int32Equal(replay.parts[e], full.parts[e]) {
			t.Errorf("delta replay epoch %d: partition differs from full submission", e)
		}
	}
}

// TestDeltaEpochWarm: warm delta epochs must report Warm, stay feasible,
// and an identical replay must be served from the warm-keyed cache slot
// byte-identically.
func TestDeltaEpochWarm(t *testing.T) {
	_, _, client := newTestServer(t, server.Config{})
	cfg := core.Config{K: 4, Alpha: 50, Seed: 19, Method: core.HypergraphRepart}
	const n, epochs = 300, 3
	first, warms := runRemoteDelta(t, client, cfg, "xyce680s", n, 19, epochs, "weights", true)
	for e := 1; e <= epochs; e++ {
		if !warms[e] {
			t.Errorf("epoch %d: warm delta not reported warm", e)
		}
		for v, p := range first.parts[e] {
			if p < 0 || int(p) >= cfg.K {
				t.Fatalf("epoch %d: vertex %d assigned to part %d out of range", e, v, p)
			}
		}
	}
	replay, _ := runRemoteDelta(t, client, cfg, "xyce680s", n, 19, epochs, "weights", true)
	for e := 1; e <= epochs; e++ {
		if !replay.cached[e] {
			t.Errorf("warm replay epoch %d not cached", e)
		}
		if !int32Equal(replay.parts[e], first.parts[e]) {
			t.Errorf("warm replay epoch %d: partition differs", e)
		}
	}
}

// TestCacheHitKeepsProvenance: a cache hit must report what the leader's
// solve reported. Two sessions with identical content run the same warm
// PATCH epochs on one server; every response of the second is a cache hit
// carrying the first's warm flag and repartition time, as a singleflight
// follower sharing the leader's result would.
func TestCacheHitKeepsProvenance(t *testing.T) {
	_, _, client := newTestServer(t, server.Config{})
	ctx := context.Background()
	cfg := core.Config{K: 4, Alpha: 50, Seed: 37, Method: core.HypergraphRepart}
	g, err := datasets.Generate("xyce680s", 300, 37)
	if err != nil {
		t.Fatal(err)
	}
	h := graph.ToHypergraph(g)
	run := func() []hyperbal.RemoteResult {
		sess, first, err := client.CreateSession(ctx, cfg, h)
		if err != nil {
			t.Fatal(err)
		}
		out := []hyperbal.RemoteResult{first}
		for e := int64(1); e <= 3; e++ {
			res, err := sess.SubmitEpochDelta(ctx, reweighted(h, e), true)
			if err != nil {
				t.Fatalf("epoch %d: %v", e, err)
			}
			out = append(out, res)
		}
		return out
	}
	leader, hit := run(), run()
	for e := range leader {
		l, c := leader[e], hit[e]
		if l.Cached || !c.Cached {
			t.Fatalf("epoch %d: cached %v then %v, want a solve then a hit", e, l.Cached, c.Cached)
		}
		if e > 0 && !l.Warm {
			t.Errorf("epoch %d: warm delta not reported warm", e)
		}
		if c.Warm != l.Warm || c.RepartMs != l.RepartMs {
			t.Errorf("epoch %d: cache hit reports warm=%v repart_ms=%g, the solve reported warm=%v repart_ms=%g",
				e, c.Warm, c.RepartMs, l.Warm, l.RepartMs)
		}
	}
}

// patchDelta submits d as a raw delta epoch tagged with epoch (0:
// untagged), without client-side retries or fallbacks.
func patchDelta(t *testing.T, baseURL, id string, d *hypergraph.Delta, epoch int64) (int, server.SessionResponse, server.ErrorResponse) {
	t.Helper()
	body := server.AppendDeltaRequestBinary(nil, d, nil, epoch, false)
	return rawSubmit(t, http.MethodPatch, baseURL+"/v1/sessions/"+id+"/epochs", body)
}

// TestDeltaFingerprintMismatch: a delta against the wrong base must be
// rejected with 409 fingerprint_mismatch carrying the session's actual
// base, without consuming the epoch; a correctly-based delta then lands.
func TestDeltaFingerprintMismatch(t *testing.T) {
	_, ts, _ := newTestServer(t, server.Config{})
	g, err := datasets.Generate("xyce680s", 200, 23)
	if err != nil {
		t.Fatal(err)
	}
	h0 := graph.ToHypergraph(g)
	id := createRawH(t, ts, server.WireConfig{K: 4, Alpha: 50, Seed: 23}, h0)

	// Drift the weights to get a real successor hypergraph.
	h1 := reweighted(h0, 3)
	d, ok := hypergraph.ComputeDelta(h0, h1)
	if !ok {
		t.Fatal("weight drift not delta-able")
	}

	// Stale base: the delta's fingerprint gate must fire.
	stale := *d
	stale.Base = "hbfp1:0000000000000000000000000000000000000000000000000000000000000000"
	status, _, fail := patchDelta(t, ts.URL, id, &stale, 1)
	if status != http.StatusConflict || fail.Code != "fingerprint_mismatch" {
		t.Fatalf("stale delta: status %d code %q, want 409 fingerprint_mismatch", status, fail.Code)
	}
	if fail.Base != h0.Fingerprint() {
		t.Errorf("mismatch response base %q, want the session base %q", fail.Base, h0.Fingerprint())
	}
	if fail.Epoch != 0 {
		t.Errorf("mismatch consumed the epoch: session at %d, want 0", fail.Epoch)
	}

	// The correctly-based delta still lands and reconstructs h1 exactly.
	status, okResp, fail := patchDelta(t, ts.URL, id, d, 1)
	if status != http.StatusOK {
		t.Fatalf("valid delta: status %d code %q", status, fail.Code)
	}
	if okResp.Result.Epoch != 1 || !okResp.Result.Rebalanced {
		t.Errorf("valid delta: epoch %d rebalanced %v, want 1 true", okResp.Result.Epoch, okResp.Result.Rebalanced)
	}
}

// TestDeltaClientFallback: when another writer advances the session, the
// client's next delta sees an epoch conflict and reconciles; the one
// after that sees a base fingerprint mismatch (its base tracking is now
// stale) and must transparently fall back to a full submission.
func TestDeltaClientFallback(t *testing.T) {
	_, ts, client := newTestServer(t, server.Config{})
	ctx := context.Background()
	g, err := datasets.Generate("xyce680s", 200, 29)
	if err != nil {
		t.Fatal(err)
	}
	h0 := graph.ToHypergraph(g)
	cfg := core.Config{K: 4, Alpha: 50, Seed: 29, Method: core.HypergraphRepart}
	sess, _, err := client.CreateSession(ctx, cfg, h0)
	if err != nil {
		t.Fatal(err)
	}

	// Out-of-band writer advances the session with a full epoch.
	h1 := reweighted(h0, 7)
	status, _, fail := postEpoch(t, ts.URL, sess.ID, h1, 0)
	if status != http.StatusOK {
		t.Fatalf("out-of-band epoch: status %d code %q", status, fail.Code)
	}

	// The client's delta (tagged epoch 1) conflicts and reconciles against
	// the server's epoch-1 result.
	h2 := reweighted(h0, 11)
	res, err := sess.SubmitEpochDelta(ctx, h2, false)
	if err != nil {
		t.Fatalf("delta after out-of-band epoch: %v", err)
	}
	if res.Epoch != 1 {
		t.Fatalf("reconciled epoch %d, want 1", res.Epoch)
	}

	// Now the client's base tracking (h2) disagrees with the server's
	// base (h1) at an aligned epoch: the delta draws 409
	// fingerprint_mismatch and the client must land it as a full epoch.
	h3 := reweighted(h0, 13)
	res, err = sess.SubmitEpochDelta(ctx, h3, false)
	if err != nil {
		t.Fatalf("delta with stale base: %v", err)
	}
	if res.Epoch != 2 || !res.Rebalanced {
		t.Fatalf("fallback result: epoch %d rebalanced %v, want 2 true", res.Epoch, res.Rebalanced)
	}

	// The fallback resynced the base: the next delta goes through as a
	// delta again (server holds h3 now).
	h4 := reweighted(h0, 17)
	res, err = sess.SubmitEpochDelta(ctx, h4, false)
	if err != nil {
		t.Fatalf("delta after resync: %v", err)
	}
	if res.Epoch != 3 {
		t.Fatalf("post-resync epoch %d, want 3", res.Epoch)
	}
}

// TestConcurrentDeltaEpochs: interleaved delta and full submissions from
// many goroutines against one session must serialize — every valid
// submission lands exactly once, stale-based deltas draw 409
// fingerprint_mismatch without consuming an epoch (run under -race).
func TestConcurrentDeltaEpochs(t *testing.T) {
	_, ts, client := newTestServer(t, server.Config{})
	g, err := datasets.Generate("xyce680s", 200, 31)
	if err != nil {
		t.Fatal(err)
	}
	h := graph.ToHypergraph(g)
	id := createRawH(t, ts, server.WireConfig{K: 4, Alpha: 50, Seed: 31}, h)

	// Every submission carries the same hypergraph, so the session base
	// fingerprint is invariant and an identity delta is valid under any
	// interleaving; a delta against a foreign base never is.
	identity, ok := hypergraph.ComputeDelta(h, h)
	if !ok {
		t.Fatal("identity transition not delta-able")
	}
	stale := *identity
	stale.Base = "hbfp1:1111111111111111111111111111111111111111111111111111111111111111"

	const callers, rounds = 4, 3
	var mu sync.Mutex
	landed, mismatches := 0, 0
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				var status int
				var fail server.ErrorResponse
				switch (c + r) % 3 {
				case 0: // full epoch, untagged
					status, _, fail = postEpoch(t, ts.URL, id, h, 0)
				case 1: // identity delta, untagged
					status, _, fail = patchDelta(t, ts.URL, id, identity, 0)
				default: // stale-based delta: must 409 without advancing
					status, _, fail = patchDelta(t, ts.URL, id, &stale, 0)
				}
				mu.Lock()
				switch status {
				case http.StatusOK:
					landed++
				case http.StatusConflict:
					mismatches++
					if fail.Code != "fingerprint_mismatch" {
						t.Errorf("409 with code %q, want fingerprint_mismatch", fail.Code)
					}
				default:
					t.Errorf("unexpected status %d code %q", status, fail.Code)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	wantLanded := 0
	wantMismatch := 0
	for c := 0; c < callers; c++ {
		for r := 0; r < rounds; r++ {
			if (c+r)%3 == 2 {
				wantMismatch++
			} else {
				wantLanded++
			}
		}
	}
	if landed != wantLanded || mismatches != wantMismatch {
		t.Errorf("landed=%d mismatches=%d, want %d/%d", landed, mismatches, wantLanded, wantMismatch)
	}
	sess, err := client.Session(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if got := sess.Epoch(); got != int64(wantLanded) {
		t.Errorf("session epoch = %d, want %d", got, wantLanded)
	}
}

// createRawH creates a session over h with one raw binary create and
// returns its id.
func createRawH(t *testing.T, ts *httptest.Server, cfg server.WireConfig, h *hypergraph.Hypergraph) string {
	t.Helper()
	body := server.AppendCreateRequestBinary(nil, cfg, h)
	status, sr, fail := rawSubmit(t, http.MethodPost, ts.URL+"/v1/sessions", body)
	if status != http.StatusCreated {
		t.Fatalf("create: status %d code %q", status, fail.Code)
	}
	return sr.SessionID
}

// reweighted returns a copy of h with every vertex weight and size
// perturbed deterministically by salt (vertex set and nets unchanged).
func reweighted(h *hypergraph.Hypergraph, salt int64) *hypergraph.Hypergraph {
	b := hypergraph.NewBuilder(h.NumVertices())
	for v := 0; v < h.NumVertices(); v++ {
		b.SetWeight(v, h.Weight(v)+(int64(v)*salt)%5+1)
		b.SetSize(v, h.Size(v)+(int64(v)+salt)%3)
		if f := h.Fixed(v); f != hypergraph.Free {
			b.Fix(v, int(f))
		}
	}
	for n := 0; n < h.NumNets(); n++ {
		b.AddNetInt32(h.Cost(n), h.Pins(n))
	}
	return b.Build()
}
