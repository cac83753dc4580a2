package server_test

// End-to-end tests for the balancerd serving tier, driven through the
// public client façade against an httptest listener. The acceptance
// criterion is byte-identical equivalence: a partition obtained through
// the service must equal the one computed by an in-process core.Session
// with the same seed and config.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"hyperbal"
	"hyperbal/internal/core"
	"hyperbal/internal/datasets"
	"hyperbal/internal/dynamics"
	"hyperbal/internal/graph"
	"hyperbal/internal/hypergraph"
	"hyperbal/internal/mpi"
	"hyperbal/internal/partition"
	"hyperbal/internal/server"
)

func newTestServer(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server, *hyperbal.Client) {
	t.Helper()
	srv := server.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	client := hyperbal.NewClient(ts.URL, hyperbal.ClientOptions{MaxRetries: 2, Backoff: 5 * time.Millisecond})
	return srv, ts, client
}

// epochTrace is one session's partition history: parts per epoch plus
// whether each response came from the server's cache.
type epochTrace struct {
	parts  [][]int32
	cached []bool
}

// runRemote drives one full session through the service.
func runRemote(t *testing.T, client *hyperbal.Client, cfg core.Config, dsName string, n int, seed int64, epochs int, dynamic string) epochTrace {
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
	gen := newGen(t, dynamic, g, first.Partition, cfg.K, seed)
	for e := 1; e <= epochs; e++ {
		prob, old := gen.Next()
		res, err := sess.SubmitEpochInherited(ctx, prob.H, old)
		if err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		if res.Epoch != int64(e) {
			t.Fatalf("epoch %d: server reports epoch %d", e, res.Epoch)
		}
		tr.parts = append(tr.parts, res.Partition.Parts)
		tr.cached = append(tr.cached, res.Cached)
		if err := gen.Observe(res.Partition); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Close(ctx); err != nil {
		t.Fatal(err)
	}
	return tr
}

// runLocal mirrors runRemote with an in-process core.Session.
func runLocal(t *testing.T, cfg core.Config, dsName string, n int, seed int64, epochs int, dynamic string) epochTrace {
	t.Helper()
	g, err := datasets.Generate(dsName, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	h := graph.ToHypergraph(g)
	bal, err := core.NewBalancer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess, first, err := core.NewSession(bal, core.Problem{H: h})
	if err != nil {
		t.Fatal(err)
	}
	tr := epochTrace{parts: [][]int32{first.Partition.Parts}}
	gen := newGen(t, dynamic, g, first.Partition, cfg.K, seed)
	for e := 1; e <= epochs; e++ {
		prob, old := gen.Next()
		res, err := sess.RebalanceInherited(prob, old)
		if err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		tr.parts = append(tr.parts, res.Partition.Parts)
		if err := gen.Observe(res.Partition); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

func newGen(t *testing.T, dynamic string, g *graph.Graph, init partition.Partition, k int, seed int64) dynamics.Generator {
	t.Helper()
	var gen dynamics.Generator
	var err error
	switch dynamic {
	case "structure":
		gen, err = dynamics.NewStructural(g, init, k, 0.25, 0.5, seed*3+1)
	case "weights":
		gen, err = dynamics.NewRefinement(g, init, k, 0.1, 1.5, 7.5, seed*3+2)
	default:
		t.Fatalf("unknown dynamic %q", dynamic)
	}
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

// TestE2EEquivalence: the service must be a transparent remoting of
// core.Session — byte-identical partitions per epoch, same seed schedule,
// for both hypergraph methods and both drift modes.
func TestE2EEquivalence(t *testing.T) {
	cases := []struct {
		method  core.Method
		dynamic string
	}{
		{core.HypergraphRepart, "weights"},
		{core.HypergraphRepart, "structure"},
		{core.HypergraphScratch, "weights"},
		{core.HypergraphScratch, "structure"},
	}
	_, _, client := newTestServer(t, server.Config{})
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s_%s", tc.method, tc.dynamic), func(t *testing.T) {
			cfg := core.Config{K: 4, Alpha: 50, Seed: 11, Method: tc.method}
			const n, epochs = 300, 3
			remote := runRemote(t, client, cfg, "xyce680s", n, 11, epochs, tc.dynamic)
			local := runLocal(t, cfg, "xyce680s", n, 11, epochs, tc.dynamic)
			if len(remote.parts) != len(local.parts) {
				t.Fatalf("epoch count mismatch: %d vs %d", len(remote.parts), len(local.parts))
			}
			for e := range remote.parts {
				if !int32Equal(remote.parts[e], local.parts[e]) {
					t.Errorf("epoch %d: served partition differs from in-process result", e)
				}
			}
		})
	}
}

// TestCacheHit: an identical workload replayed on the same server must be
// answered from the partition cache, byte-identical, without recomputing.
func TestCacheHit(t *testing.T) {
	_, _, client := newTestServer(t, server.Config{})
	cfg := core.Config{K: 4, Alpha: 50, Seed: 5, Method: core.HypergraphRepart}
	first := runRemote(t, client, cfg, "auto", 300, 5, 2, "weights")
	for e, c := range first.cached {
		if c {
			t.Fatalf("cold run epoch %d unexpectedly cached", e)
		}
	}
	replay := runRemote(t, client, cfg, "auto", 300, 5, 2, "weights")
	for e, c := range replay.cached {
		if !c {
			t.Errorf("replay epoch %d not served from cache", e)
		}
		if !int32Equal(replay.parts[e], first.parts[e]) {
			t.Errorf("replay epoch %d: cached partition differs", e)
		}
	}
}

// TestCacheDisabled: CacheEntries < 0 must compute every epoch.
func TestCacheDisabled(t *testing.T) {
	_, _, client := newTestServer(t, server.Config{CacheEntries: -1})
	cfg := core.Config{K: 4, Alpha: 50, Seed: 5, Method: core.HypergraphRepart}
	a := runRemote(t, client, cfg, "auto", 200, 5, 1, "weights")
	b := runRemote(t, client, cfg, "auto", 200, 5, 1, "weights")
	for e := range b.cached {
		if b.cached[e] {
			t.Errorf("epoch %d cached with the cache disabled", e)
		}
		if !int32Equal(a.parts[e], b.parts[e]) {
			t.Errorf("epoch %d: determinism lost without cache", e)
		}
	}
}

// rawSubmit sends one binary request frame without client-side retries
// or fallbacks and decodes the answer: the binary SessionResponse on
// success, the JSON error body otherwise. Callers run it on their own
// goroutines, so it reports a failure with t.Error and status 0.
func rawSubmit(t *testing.T, method, url string, body []byte) (status int, ok server.SessionResponse, fail server.ErrorResponse) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Error(err)
		return 0, ok, fail
	}
	req.Header.Set("Content-Type", server.ContentTypeBinary)
	req.Header.Set("Accept", server.ContentTypeBinary)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Error(err)
		return 0, ok, fail
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		// An undecodable error body leaves fail empty; callers check its code.
		_ = json.NewDecoder(resp.Body).Decode(&fail)
		return resp.StatusCode, ok, fail
	}
	data, err := io.ReadAll(resp.Body)
	if err == nil {
		ok, err = server.DecodeSessionResponseBinary(data)
	}
	if err != nil {
		t.Error(err)
		return 0, ok, fail
	}
	return resp.StatusCode, ok, fail
}

// postEpoch submits h as a raw full epoch tagged with epoch (0: untagged).
func postEpoch(t *testing.T, baseURL, id string, h *hypergraph.Hypergraph, epoch int64) (int, server.SessionResponse, server.ErrorResponse) {
	t.Helper()
	body := server.AppendEpochRequestBinary(nil, h, nil, epoch, false)
	return rawSubmit(t, http.MethodPost, baseURL+"/v1/sessions/"+id+"/epochs", body)
}

// createRaw creates a session over an xyce680s analogue and returns its id
// and the hypergraph (resubmitted by the callers as an identical epoch).
func createRaw(t *testing.T, ts *httptest.Server, cfg server.WireConfig, seed int64, n int) (string, *hypergraph.Hypergraph) {
	t.Helper()
	g, err := datasets.Generate("xyce680s", n, seed)
	if err != nil {
		t.Fatal(err)
	}
	h := graph.ToHypergraph(g)
	return createRawH(t, ts, cfg, h), h
}

// TestAdmissionBackpressure: with one worker, no queue, and injected job
// delay, a concurrent burst must see both successes and 429 "busy"
// rejections — and every rejection must leave session state untouched.
func TestAdmissionBackpressure(t *testing.T) {
	_, ts, _ := newTestServer(t, server.Config{
		Workers:    1,
		QueueDepth: -1, // no queue beyond the single worker
		Fault:      &mpi.FaultPlan{Seed: 1, MaxDelay: 80 * time.Millisecond},
	})
	id, h := createRaw(t, ts, server.WireConfig{K: 4, Alpha: 50, Seed: 2}, 2, 200)

	const burst = 8
	var mu sync.Mutex
	counts := map[int]int{}
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, _, fail := postEpoch(t, ts.URL, id, h, 0)
			mu.Lock()
			counts[status]++
			mu.Unlock()
			if status == http.StatusTooManyRequests && fail.Code != "busy" {
				t.Errorf("429 with code %q, want busy", fail.Code)
			}
		}()
	}
	wg.Wait()
	if counts[http.StatusOK] == 0 {
		t.Errorf("burst saw no successes: %v", counts)
	}
	if counts[http.StatusTooManyRequests] == 0 {
		t.Errorf("burst saw no 429 backpressure: %v", counts)
	}
	if counts[http.StatusOK]+counts[http.StatusTooManyRequests] != burst {
		t.Errorf("unexpected statuses in burst: %v", counts)
	}
}

// TestDrain: during drain, in-flight epochs complete with 200, new
// submissions get 503 "draining", healthz flips to 503, and Drain returns
// once the in-flight work is done.
func TestDrain(t *testing.T) {
	srv, ts, _ := newTestServer(t, server.Config{
		Workers: 2,
		Fault:   &mpi.FaultPlan{Seed: 3, MaxDelay: 120 * time.Millisecond},
	})
	id, h := createRaw(t, ts, server.WireConfig{K: 4, Alpha: 50, Seed: 3}, 3, 200)

	inflight := make(chan int, 1)
	go func() {
		status, _, _ := postEpoch(t, ts.URL, id, h, 0)
		inflight <- status
	}()
	time.Sleep(30 * time.Millisecond) // let the epoch get admitted

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drained <- srv.Drain(ctx)
	}()
	for !srv.Draining() {
		time.Sleep(time.Millisecond)
	}

	status, _, fail := postEpoch(t, ts.URL, id, h, 0)
	if status != http.StatusServiceUnavailable || fail.Code != "draining" {
		t.Errorf("submission during drain: status %d code %q, want 503 draining", status, fail.Code)
	}
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("healthz during drain: status %d, want 503", resp.StatusCode)
		}
	}

	if status := <-inflight; status != http.StatusOK {
		t.Errorf("in-flight epoch during drain: status %d, want 200", status)
	}
	if err := <-drained; err != nil {
		t.Errorf("drain: %v", err)
	}
}

// TestEpochConflict: a tagged submission for the wrong epoch must be
// rejected with 409 and the session's actual epoch, without advancing it.
func TestEpochConflict(t *testing.T) {
	_, ts, _ := newTestServer(t, server.Config{})
	id, h := createRaw(t, ts, server.WireConfig{K: 4, Alpha: 50, Seed: 4}, 4, 200)

	status, _, fail := postEpoch(t, ts.URL, id, h, 5)
	if status != http.StatusConflict || fail.Code != "epoch_conflict" {
		t.Fatalf("status %d code %q, want 409 epoch_conflict", status, fail.Code)
	}
	if fail.Epoch != 0 {
		t.Errorf("conflict reports session epoch %d, want 0", fail.Epoch)
	}
	// The correctly-tagged submission still lands.
	status, ok, _ := postEpoch(t, ts.URL, id, h, 1)
	if status != http.StatusOK || ok.Result.Epoch != 1 {
		t.Fatalf("tagged submission: status %d epoch %d, want 200 epoch 1", status, ok.Result.Epoch)
	}
}

// TestConcurrentEpochs: untagged concurrent submissions to one session are
// serialized per session; every one must land and the epoch counter must
// advance exactly once per submission (run under -race).
func TestConcurrentEpochs(t *testing.T) {
	_, ts, client := newTestServer(t, server.Config{})
	id, h := createRaw(t, ts, server.WireConfig{K: 4, Alpha: 50, Seed: 6}, 6, 200)

	const callers, rounds = 4, 3
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if status, _, fail := postEpoch(t, ts.URL, id, h, 0); status != http.StatusOK {
					t.Errorf("concurrent epoch: status %d code %q", status, fail.Code)
				}
			}
		}()
	}
	wg.Wait()

	sess, err := client.Session(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if got := sess.Epoch(); got != callers*rounds {
		t.Errorf("session epoch = %d, want %d", got, callers*rounds)
	}
}

// TestTTLEviction: sessions idle past the TTL are evicted and answer 404.
func TestTTLEviction(t *testing.T) {
	srv, ts, _ := newTestServer(t, server.Config{SessionTTL: 40 * time.Millisecond})
	id, _ := createRaw(t, ts, server.WireConfig{K: 4, Alpha: 50, Seed: 7}, 7, 200)

	deadline := time.Now().Add(2 * time.Second)
	for srv.Sessions() > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := srv.Sessions(); n != 0 {
		t.Fatalf("session not evicted after TTL: %d live", n)
	}
	resp, err := http.Get(ts.URL + "/v1/sessions/" + id)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("evicted session answered %d, want 404", resp.StatusCode)
	}
}

// TestPartitionEndpoint: the partition view must match the submit response
// and carry a migration summary after a drifted epoch.
func TestPartitionEndpoint(t *testing.T) {
	_, _, client := newTestServer(t, server.Config{})
	ctx := context.Background()
	g, err := datasets.Generate("xyce680s", 240, 9)
	if err != nil {
		t.Fatal(err)
	}
	h := graph.ToHypergraph(g)
	cfg := core.Config{K: 4, Alpha: 50, Seed: 9, Method: core.HypergraphRepart}
	sess, first, err := client.CreateSession(ctx, cfg, h)
	if err != nil {
		t.Fatal(err)
	}
	gen := newGen(t, "weights", g, first.Partition, cfg.K, 9)
	prob, old := gen.Next()
	res, err := sess.SubmitEpochInherited(ctx, prob.H, old)
	if err != nil {
		t.Fatal(err)
	}
	parts, mig, err := sess.Partition(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !int32Equal(parts.Parts, res.Partition.Parts) {
		t.Error("partition endpoint differs from the epoch response")
	}
	if mig == nil {
		t.Fatal("no migration summary after a drifted epoch")
	}
	if res.Moved > 0 && mig.Moves == 0 {
		t.Errorf("result moved %d vertices but migration summary has no moves", res.Moved)
	}
}

// TestBadRequests: malformed inputs map to 4xx answers with stable codes,
// checked over every route that carries a body (create, POST epochs, PATCH
// epochs) and a Content-Type axis. Binary bodies reach the named
// validation; the same bytes labelled application/json, or not labelled at
// all, are refused with 415 before they are read. Only an unknown session
// outranks the media type, because the session is resolved first. No row
// creates a session or advances the one it targets.
func TestBadRequests(t *testing.T) {
	srv, ts, _ := newTestServer(t, server.Config{})
	contentTypes := []struct{ name, value string }{
		{"binary", server.ContentTypeBinary},
		{"json", "application/json"},
		{"absent", ""},
	}
	send := func(t *testing.T, method, path, contentType string, body []byte) (int, server.ErrorResponse) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var fail server.ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&fail)
		return resp.StatusCode, fail
	}
	expect := func(t *testing.T, status int, fail server.ErrorResponse, wantStatus int, wantCode string) {
		t.Helper()
		if status != wantStatus || fail.Code != wantCode {
			t.Fatalf("status %d code %q (%s), want %d %s", status, fail.Code, fail.Error, wantStatus, wantCode)
		}
	}

	creates := []struct {
		name string
		body []byte
	}{
		{"unknown method", server.AppendCreateRequestBinary(nil,
			server.WireConfig{K: 4, Method: "nonsense"}, hypergraph.NewBuilder(1).Build())},
		{"pin out of range", badPinCreateBody()},
	}
	for _, ct := range contentTypes {
		for _, tc := range creates {
			t.Run("create "+ct.name+" "+tc.name, func(t *testing.T) {
				status, fail := send(t, http.MethodPost, "/v1/sessions", ct.value, tc.body)
				if ct.value == server.ContentTypeBinary {
					expect(t, status, fail, http.StatusBadRequest, "bad_request")
				} else {
					expect(t, status, fail, http.StatusUnsupportedMediaType, "unsupported_media_type")
				}
			})
		}
	}

	// Every epoch row resubmits the session's own hypergraph (the vertex
	// set is unchanged, the identity delta is valid), so only the named
	// mistake can be what the server rejects.
	const k = 4
	h := codecTestHypergraph(1)
	id := createRawH(t, ts, server.WireConfig{K: k, Alpha: 50, Seed: 8}, h)
	identity, ok := hypergraph.ComputeDelta(h, h)
	if !ok {
		t.Fatal("identity transition not delta-able")
	}
	n := h.NumVertices()
	outOfRange := make([]int32, n)
	outOfRange[n-1] = k

	cases := []struct {
		name      string
		session   string
		inherited []int32
		epoch     int64
		status    int
		code      string
	}{
		{"stale epoch", id, nil, 5, http.StatusConflict, "epoch_conflict"},
		{"inherited out of range", id, outOfRange, 0, http.StatusBadRequest, "bad_request"},
		{"inherited wrong length", id, make([]int32, 3), 0, http.StatusBadRequest, "bad_request"},
		{"unknown session", "s-missing", nil, 0, http.StatusNotFound, "not_found"},
	}
	for _, route := range []string{http.MethodPost, http.MethodPatch} {
		for _, ct := range contentTypes {
			for _, tc := range cases {
				t.Run(route+" "+ct.name+" "+tc.name, func(t *testing.T) {
					body := server.AppendEpochRequestBinary(nil, h, tc.inherited, tc.epoch, false)
					if route == http.MethodPatch {
						body = server.AppendDeltaRequestBinary(nil, identity, tc.inherited, tc.epoch, false)
					}
					status, fail := send(t, route, "/v1/sessions/"+tc.session+"/epochs", ct.value, body)
					if ct.value != server.ContentTypeBinary && tc.session == id {
						expect(t, status, fail, http.StatusUnsupportedMediaType, "unsupported_media_type")
						return
					}
					expect(t, status, fail, tc.status, tc.code)
					// The conflict carries the authoritative epoch: the
					// session has accepted nothing yet.
					if tc.code == "epoch_conflict" && fail.Epoch != 0 {
						t.Errorf("conflict reports session epoch %d, want 0", fail.Epoch)
					}
				})
			}
		}
	}
	// GETs without the binary Accept still answer JSON: curl's view of
	// info and partition.
	getJSON := func(path string, v any) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != "application/json" {
			t.Fatalf("GET %s: status %d Content-Type %q, want 200 JSON", path, resp.StatusCode, ct)
		}
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	var info server.SessionInfo
	getJSON("/v1/sessions/"+id, &info)
	if info.Epoch != 0 {
		t.Errorf("rejected submissions advanced the session to epoch %d", info.Epoch)
	}
	var part server.PartitionResponse
	getJSON("/v1/sessions/"+id+"/partition", &part)
	if len(part.Parts) != n {
		t.Errorf("partition covers %d vertices, want %d", len(part.Parts), n)
	}
	if got := srv.Sessions(); got != 1 {
		t.Errorf("%d live sessions, want only the one created for the epoch rows", got)
	}
}

func int32Equal(a, b []int32) bool {
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
