package server_test

// End-to-end tests for the distributed serving tier: a gateway sharding
// sessions across replicas, and drain-time session handoff between them.
// The acceptance bar mirrors the single-replica e2e suite: partitions
// served by an N-replica deployment must be byte-identical to the
// single-process core.Session run.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"hyperbal"
	"hyperbal/internal/core"
	"hyperbal/internal/datasets"
	"hyperbal/internal/dynamics"
	"hyperbal/internal/graph"
	"hyperbal/internal/obs"
	"hyperbal/internal/server"
)

// replicaSet is an in-process N-replica deployment plus its gateway.
type replicaSet struct {
	servers []*server.Server
	listen  []*httptest.Server
	urls    []string
	gw      *server.Gateway
	gwURL   string
	client  *hyperbal.Client
}

func newReplicaSet(t *testing.T, n int, cfg server.Config) *replicaSet {
	t.Helper()
	cfgs := make([]server.Config, n)
	for i := range cfgs {
		cfgs[i] = cfg
	}
	return newReplicaSetOf(t, cfgs)
}

// newReplicaSetOf is newReplicaSet with one config per replica.
func newReplicaSetOf(t *testing.T, cfgs []server.Config) *replicaSet {
	t.Helper()
	rs := &replicaSet{}
	for _, cfg := range cfgs {
		srv := server.New(cfg)
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() { ts.Close(); srv.Close() })
		rs.servers = append(rs.servers, srv)
		rs.listen = append(rs.listen, ts)
		rs.urls = append(rs.urls, ts.URL)
	}
	for i, srv := range rs.servers {
		srv.SetPeering(rs.urls[i], rs.urls)
	}
	gw, err := server.NewGateway(server.GatewayConfig{
		Replicas:       rs.urls,
		HealthInterval: -1, // liveness is learned from transport errors
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	gts := httptest.NewServer(gw.Handler())
	t.Cleanup(func() { gts.Close(); gw.Close() })
	rs.gw, rs.gwURL = gw, gts.URL
	rs.client = hyperbal.NewClient(gts.URL, hyperbal.ClientOptions{MaxRetries: 3, Backoff: 5 * time.Millisecond})
	return rs
}

func (rs *replicaSet) totalSessions() int {
	n := 0
	for _, s := range rs.servers {
		n += s.Sessions()
	}
	return n
}

// genHypergraph builds a deterministic small test hypergraph.
func genHypergraph(t *testing.T, n int, seed int64) *hyperbal.Hypergraph {
	t.Helper()
	g, err := datasets.Generate("auto", n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return graph.ToHypergraph(g)
}

func counterValue(name string) int64 { return obs.Default().Counter(name).Load() }

// TestDistributedByteIdentity: three replicas behind a gateway must serve
// partitions byte-identical to the in-process core.Session run, for the
// Zoltan-repart method under both drift modes.
func TestDistributedByteIdentity(t *testing.T) {
	rs := newReplicaSet(t, 3, server.Config{SessionTTL: -1})
	for _, dynamic := range []string{"weights", "structure"} {
		t.Run(dynamic, func(t *testing.T) {
			cfg := core.Config{K: 4, Alpha: 50, Seed: 17, Method: core.HypergraphRepart}
			const n, epochs = 300, 3
			remote := runRemote(t, rs.client, cfg, "xyce680s", n, 17, epochs, dynamic)
			local := runLocal(t, cfg, "xyce680s", n, 17, epochs, dynamic)
			if len(remote.parts) != len(local.parts) {
				t.Fatalf("epoch count mismatch: %d vs %d", len(remote.parts), len(local.parts))
			}
			for e := range remote.parts {
				if !int32Equal(remote.parts[e], local.parts[e]) {
					t.Errorf("epoch %d: gateway-served partition differs from in-process result", e)
				}
			}
		})
	}
}

// TestDistributedSessionSharding: many sessions created through the
// gateway must actually spread across the replicas (the point of the
// tier), and every one must stay reachable.
func TestDistributedSessionSharding(t *testing.T) {
	rs := newReplicaSet(t, 3, server.Config{SessionTTL: -1})
	ctx := context.Background()
	h := genHypergraph(t, 120, 21)
	cfg := hyperbal.BalancerConfig{K: 2, Alpha: 50, Seed: 9, Method: core.HypergraphRepart}
	const sessions = 12
	var handles []*hyperbal.RemoteSession
	for i := 0; i < sessions; i++ {
		sess, _, err := rs.client.CreateSession(ctx, cfg, h)
		if err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
		handles = append(handles, sess)
	}
	if got := rs.totalSessions(); got != sessions {
		t.Fatalf("replicas hold %d sessions, created %d", got, sessions)
	}
	populated := 0
	for i, srv := range rs.servers {
		n := srv.Sessions()
		t.Logf("replica %d holds %d sessions", i, n)
		if n > 0 {
			populated++
		}
	}
	if populated < 2 {
		t.Fatalf("only %d replicas hold sessions — sharding is not spreading", populated)
	}
	for i, sess := range handles {
		if _, _, err := sess.Partition(ctx); err != nil {
			t.Fatalf("session %d unreachable through gateway: %v", i, err)
		}
	}
}

// TestDrainHandoffLosesNoSessions: draining a replica must move every one
// of its sessions to a peer, keep them serving through the gateway, and
// preserve their state byte-for-byte (the continued epochs must match an
// uninterrupted local run).
func TestDrainHandoffLosesNoSessions(t *testing.T) {
	rs := newReplicaSet(t, 3, server.Config{SessionTTL: -1})
	cfg := core.Config{K: 4, Alpha: 50, Seed: 23, Method: core.HypergraphRepart}
	const n, preEpochs, postEpochs = 300, 2, 2

	sentBefore := counterValue("server_handoff_sessions_total")
	local := runLocal(t, cfg, "xyce680s", n, 23, preEpochs+postEpochs, "weights")
	remote := runRemoteWithDrain(t, rs, cfg, "xyce680s", n, 23, preEpochs, postEpochs, "weights")

	if len(remote.parts) != len(local.parts) {
		t.Fatalf("epoch count mismatch: %d vs %d", len(remote.parts), len(local.parts))
	}
	for e := range local.parts {
		if !int32Equal(remote.parts[e], local.parts[e]) {
			t.Errorf("epoch %d: partition diverged across the drain handoff", e)
		}
	}
	if got := counterValue("server_handoff_sessions_total"); got <= sentBefore {
		t.Error("no session was handed off — the drain path did not exercise handoff")
	}
}

// TestDrainHandoffKeepsSessionInfo: GET /v1/sessions/{id} on the replica
// that adopted a drained session must report what an uninterrupted run of
// the same epochs reports — the epoch, the last result and the running
// cost account of every epoch, not only of those since the handoff.
func TestDrainHandoffKeepsSessionInfo(t *testing.T) {
	ctx := context.Background()
	cfg := core.Config{K: 4, Alpha: 50, Seed: 31, Method: core.HypergraphRepart}
	h := genHypergraph(t, 300, 31)
	// run creates a session through client and submits a full epoch and a
	// warm delta epoch, then calls between before one more delta epoch.
	run := func(client *hyperbal.Client, between func()) string {
		t.Helper()
		sess, _, err := client.CreateSession(ctx, cfg, h)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.SubmitEpoch(ctx, reweighted(h, 1)); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.SubmitEpochDelta(ctx, reweighted(h, 2), true); err != nil {
			t.Fatal(err)
		}
		between()
		if _, err := sess.SubmitEpochDelta(ctx, reweighted(h, 3), true); err != nil {
			t.Fatal(err)
		}
		return sess.ID
	}

	_, ts, client := newTestServer(t, server.Config{SessionTTL: -1})
	want := sessionInfo(t, ts.URL, run(client, func() {}))

	rs := newReplicaSet(t, 3, server.Config{SessionTTL: -1})
	id := run(rs.client, func() {
		for _, srv := range rs.servers {
			if srv.Sessions() == 0 {
				continue
			}
			dctx, cancel := context.WithTimeout(ctx, 10*time.Second)
			defer cancel()
			if err := srv.Drain(dctx); err != nil || srv.Sessions() != 0 {
				t.Fatalf("drain: %v, %d sessions left", err, srv.Sessions())
			}
			return
		}
		t.Fatal("no replica holds the session")
	})
	got := sessionInfo(t, rs.gwURL, id)

	if got.Epoch != want.Epoch || got.TotalCost != want.TotalCost {
		t.Errorf("after the handoff: epoch %d total_cost %d, uninterrupted: epoch %d total_cost %d",
			got.Epoch, got.TotalCost, want.Epoch, want.TotalCost)
	}
	g, w := got.Last, want.Last
	if !int32Equal(g.Parts, w.Parts) || g.CommVolume != w.CommVolume || g.MigrationVolume != w.MigrationVolume ||
		g.Moved != w.Moved || g.Warm != w.Warm {
		t.Errorf("after the handoff the last result is %+v, uninterrupted %+v", g, w)
	}
}

// sessionInfo reads GET /v1/sessions/{id} as JSON.
func sessionInfo(t *testing.T, baseURL, id string) server.SessionInfo {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/sessions/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info server.SessionInfo
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("session info: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info
}

// runRemoteWithDrain mirrors runRemote, but drains the replica holding the
// session after preEpochs epochs, then continues for postEpochs more.
func runRemoteWithDrain(t *testing.T, rs *replicaSet, cfg core.Config, dsName string, n int, seed int64, preEpochs, postEpochs int, dynamic string) epochTrace {
	t.Helper()
	return runTierWithDrain(t, rs, cfg, dsName, n, []int64{seed}, preEpochs, postEpochs, dynamic).traces[0]
}

// tierPass is what runTierWithDrain saw: one trace per session, the wall
// time of every epoch submitted before and after the drain, and how many
// sessions the drained replica held.
type tierPass struct {
	traces    []epochTrace
	pre, post []time.Duration
	drained   int
}

// runTierWithDrain drives one session per dataset seed through rs's
// gateway in lockstep: preEpochs epochs each, then a drain of the replica
// holding the most sessions, then postEpochs more. Every epoch must report
// the next epoch number, and the drain must keep every session.
func runTierWithDrain(t *testing.T, rs *replicaSet, cfg core.Config, dsName string, n int, seeds []int64, preEpochs, postEpochs int, dynamic string) tierPass {
	t.Helper()
	ctx := context.Background()
	type live struct {
		sess *hyperbal.RemoteSession
		gen  dynamics.Generator
	}
	var pass tierPass
	var ls []live
	for _, seed := range seeds {
		g, err := datasets.Generate(dsName, n, seed)
		if err != nil {
			t.Fatal(err)
		}
		sess, first, err := rs.client.CreateSession(ctx, cfg, graph.ToHypergraph(g))
		if err != nil {
			t.Fatal(err)
		}
		pass.traces = append(pass.traces, epochTrace{parts: [][]int32{first.Partition.Parts}})
		ls = append(ls, live{sess, newGen(t, dynamic, g, first.Partition, cfg.K, seed)})
	}
	submit := func(e int, lat *[]time.Duration) {
		for i, l := range ls {
			prob, old := l.gen.Next()
			start := time.Now()
			res, err := l.sess.SubmitEpochInherited(ctx, prob.H, old)
			if err != nil {
				t.Fatalf("session %d epoch %d: %v", i, e, err)
			}
			*lat = append(*lat, time.Since(start))
			if res.Epoch != int64(e) {
				t.Fatalf("session %d epoch %d: server reports epoch %d", i, e, res.Epoch)
			}
			pass.traces[i].parts = append(pass.traces[i].parts, res.Partition.Parts)
			if err := l.gen.Observe(res.Partition); err != nil {
				t.Fatal(err)
			}
		}
	}
	for e := 1; e <= preEpochs; e++ {
		submit(e, &pass.pre)
	}

	// Drain the busiest replica: it must hand every session to a ring
	// successor, and the gateway must find them there.
	before := rs.totalSessions()
	victim := 0
	for i, srv := range rs.servers {
		if srv.Sessions() > rs.servers[victim].Sessions() {
			victim = i
		}
	}
	srv := rs.servers[victim]
	pass.drained = srv.Sessions()
	if pass.drained == 0 {
		t.Fatal("no replica held a session")
	}
	dctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	err := srv.Drain(dctx)
	cancel()
	if err != nil {
		t.Fatalf("drain replica %d: %v", victim, err)
	}
	if srv.Sessions() != 0 {
		t.Fatalf("replica %d still holds %d sessions after drain", victim, srv.Sessions())
	}
	if got := rs.totalSessions(); got != before {
		t.Fatalf("sessions lost in handoff: %d before drain, %d after", before, got)
	}

	for e := preEpochs + 1; e <= preEpochs+postEpochs; e++ {
		submit(e, &pass.post)
	}
	for _, l := range ls {
		if err := l.sess.Close(ctx); err != nil {
			t.Fatal(err)
		}
	}
	return pass
}

// TestReplicaTierDrainMeasured: a pass of sessions over three replicas
// behind the gateway, with the busiest replica drained halfway, once with
// a distinct dataset seed per session and once with one shared seed. The
// handoff must keep every session at its epoch and byte-identical to an
// in-process run. Every request for a handed-off session after the drain
// (postEpochs epochs and the close) pays one gateway retarget: the 404 at
// the drained replica, whose listener stays up. The log records what the
// drain cost (sessions handed off, retargets, epoch latency before and
// after).
func TestReplicaTierDrainMeasured(t *testing.T) {
	const sessions, n, preEpochs, postEpochs = 12, 300, 2, 2
	for _, tc := range []struct {
		name   string
		shared bool
	}{{"distinct-seeds", false}, {"shared-seed", true}} {
		t.Run(tc.name, func(t *testing.T) {
			rs := newReplicaSet(t, 3, server.Config{SessionTTL: -1})
			cfg := core.Config{K: 4, Alpha: 50, Seed: 29, Method: core.HypergraphRepart}
			seeds := make([]int64, sessions)
			for i := range seeds {
				seeds[i] = 60
				if !tc.shared {
					seeds[i] += int64(i)
				}
			}
			counters := []string{"server_handoff_sessions_total", "gateway_retargets_total"}
			before := make([]int64, len(counters))
			for i, name := range counters {
				before[i] = counterValue(name)
			}
			pass := runTierWithDrain(t, rs, cfg, "xyce680s", n, seeds, preEpochs, postEpochs, "weights")
			delta := make([]int64, len(counters))
			for i, name := range counters {
				delta[i] = counterValue(name) - before[i]
			}

			local := map[int64]epochTrace{}
			for i, seed := range seeds {
				want, ok := local[seed]
				if !ok {
					want = runLocal(t, cfg, "xyce680s", n, seed, preEpochs+postEpochs, "weights")
					local[seed] = want
				}
				for e := range want.parts {
					if !int32Equal(pass.traces[i].parts[e], want.parts[e]) {
						t.Errorf("session %d epoch %d: partition differs from the in-process run", i, e)
					}
				}
			}
			if delta[0] != int64(pass.drained) {
				t.Errorf("%d sessions handed off, the drained replica held %d", delta[0], pass.drained)
			}
			if want := int64(pass.drained * (postEpochs + 1)); delta[1] != want {
				t.Errorf("gateway_retargets_total +%d, want %d (one per post-drain request of a handed-off session)", delta[1], want)
			}
			t.Logf("%d sessions x %d epochs: handed off %d, gateway_retargets_total +%d; epoch p90 %s before the drain, %s after",
				sessions, preEpochs+postEpochs, delta[0], delta[1], p90(pass.pre), p90(pass.post))
		})
	}
}

// p90 returns the 90th-percentile (nearest-rank) duration of ds.
func p90(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[(len(s)*9+9)/10-1]
}

// TestGatewayWalkFindsHandedOffSessions: the ring walk alone finds a
// handed-off session. One of three replicas drains with its listener
// still up; every request for one of its sessions (info, full epoch, delta
// epoch, partition, delete) must answer through the gateway at the cost of
// one retarget, the 404 at the drained replica. With that listener closed,
// the same requests take the transport-error path at one retarget each as
// well: the first marks the replica down, the rest skip it.
func TestGatewayWalkFindsHandedOffSessions(t *testing.T) {
	rs := newReplicaSet(t, 3, server.Config{SessionTTL: -1})
	ctx := context.Background()
	h := genHypergraph(t, 120, 41)
	cfg := hyperbal.BalancerConfig{K: 2, Alpha: 50, Seed: 7, Method: core.HypergraphRepart}
	var all []*hyperbal.RemoteSession
	for i := 0; i < 12; i++ {
		sess, _, err := rs.client.CreateSession(ctx, cfg, h)
		if err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
		all = append(all, sess)
	}
	victim := 0
	for i, srv := range rs.servers {
		if srv.Sessions() > rs.servers[victim].Sessions() {
			victim = i
		}
	}
	var held []*hyperbal.RemoteSession
	for _, sess := range all {
		resp, err := http.Get(rs.urls[victim] + "/v1/sessions/" + sess.ID)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			held = append(held, sess)
		}
	}
	if len(held) < 2 {
		t.Fatalf("the busiest replica holds %d sessions, want at least 2", len(held))
	}
	dctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := rs.servers[victim].Drain(dctx); err != nil || rs.servers[victim].Sessions() != 0 {
		t.Fatalf("drain: %v, %d sessions left", err, rs.servers[victim].Sessions())
	}

	// exercise sends every session route once per session and returns the
	// number of requests sent.
	exercise := func(sessions []*hyperbal.RemoteSession) int64 {
		t.Helper()
		for _, sess := range sessions {
			if _, err := rs.client.Session(ctx, sess.ID); err != nil {
				t.Fatalf("info: %v", err)
			}
			if res, err := sess.SubmitEpoch(ctx, reweighted(h, 1)); err != nil || res.Epoch != 1 {
				t.Fatalf("full epoch: epoch %d, %v", res.Epoch, err)
			}
			if res, err := sess.SubmitEpochDelta(ctx, reweighted(h, 2), true); err != nil || res.Epoch != 2 {
				t.Fatalf("delta epoch: epoch %d, %v", res.Epoch, err)
			}
			if _, _, err := sess.Partition(ctx); err != nil {
				t.Fatalf("partition: %v", err)
			}
			if err := sess.Close(ctx); err != nil {
				t.Fatalf("delete: %v", err)
			}
		}
		return int64(5 * len(sessions))
	}
	half := len(held) / 2
	for _, phase := range []struct {
		name     string
		sessions []*hyperbal.RemoteSession
		before   func()
	}{
		{"listener up", held[:half], func() {}},
		{"listener closed", held[half:], func() {
			rs.listen[victim].CloseClientConnections()
			rs.listen[victim].Close()
		}},
	} {
		phase.before()
		retargets, retries, fallbacks := counterValue("gateway_retargets_total"),
			counterValue("client_retries_total"), counterValue("client_delta_fallbacks_total")
		requests := exercise(phase.sessions)
		if got := counterValue("gateway_retargets_total") - retargets; got != requests {
			t.Errorf("%s: gateway_retargets_total +%d for %d requests, want one each", phase.name, got, requests)
		}
		if got := counterValue("client_retries_total") - retries; got != 0 {
			t.Errorf("%s: the client retried %d times; the walk alone must find the sessions", phase.name, got)
		}
		if got := counterValue("client_delta_fallbacks_total") - fallbacks; got != 0 {
			t.Errorf("%s: %d delta epochs fell back to full ones; the handoff kept the base", phase.name, got)
		}
	}
	if got, want := rs.totalSessions(), len(all)-len(held); got != want {
		t.Errorf("replicas hold %d sessions after the deletes, want %d", got, want)
	}
}

// TestDeleteDuringDrainIsNeverUndone: a DELETE that races a drain's
// handoff is never undone by it. The successor holds its /internal/handoff
// open while a DELETE reaches the draining replica: the DELETE must answer
// 503 draining (retryable), not a 204 that the handoff then reverses by
// adopting the session at the successor, where the retry deletes it.
func TestDeleteDuringDrainIsNeverUndone(t *testing.T) {
	ctx := context.Background()
	srcSrv, dstSrv := server.New(server.Config{SessionTTL: -1}), server.New(server.Config{SessionTTL: -1})
	entered, release := make(chan struct{}), make(chan struct{})
	var enter sync.Once
	src := httptest.NewServer(srcSrv.Handler())
	dst := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/internal/handoff" {
			enter.Do(func() { close(entered) })
			select {
			case <-release:
			case <-time.After(5 * time.Second):
			}
		}
		dstSrv.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(func() { src.Close(); dst.Close(); srcSrv.Close(); dstSrv.Close() })
	releaseHandoff := sync.OnceFunc(func() { close(release) })
	t.Cleanup(releaseHandoff)
	urls := []string{src.URL, dst.URL}
	srcSrv.SetPeering(src.URL, urls)
	dstSrv.SetPeering(dst.URL, urls)

	direct := hyperbal.NewClient(src.URL, hyperbal.ClientOptions{MaxRetries: 1, Backoff: 5 * time.Millisecond})
	cfg := hyperbal.BalancerConfig{K: 2, Alpha: 50, Seed: 5, Method: core.HypergraphRepart}
	sess, _, err := direct.CreateSession(ctx, cfg, genHypergraph(t, 100, 5))
	if err != nil {
		t.Fatal(err)
	}
	drained := make(chan error, 1)
	go func() {
		dctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		drained <- srcSrv.Drain(dctx)
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the drain sent no handoff to the successor")
	}

	status, code := deleteSession(t, src.URL, sess.ID)
	releaseHandoff()
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	if status == http.StatusNoContent && dstSrv.Sessions() != 0 {
		t.Fatal("a DELETE answered 204 during the drain, and the successor adopted the session afterwards")
	}
	if status != http.StatusServiceUnavailable || code != "draining" {
		t.Fatalf("DELETE during the handoff: status %d code %q, want 503 draining", status, code)
	}
	if dstSrv.Sessions() != 1 {
		t.Fatalf("the successor holds %d sessions after the handoff, want 1", dstSrv.Sessions())
	}
	if status, _ := deleteSession(t, dst.URL, sess.ID); status != http.StatusNoContent || dstSrv.Sessions() != 0 {
		t.Fatalf("retried DELETE at the successor: status %d, %d sessions left", status, dstSrv.Sessions())
	}
}

// deleteSession sends DELETE /v1/sessions/{id} and returns the status and
// error code.
func deleteSession(t *testing.T, baseURL, id string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, baseURL+"/v1/sessions/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var fail server.ErrorResponse
	_ = json.NewDecoder(resp.Body).Decode(&fail)
	return resp.StatusCode, fail.Code
}

// TestGatewayReplicaDeathFailover: when a replica dies without draining,
// creates must keep succeeding (routed to survivors) and requests for its
// sessions must answer a clean 404 — not hang, not a 5xx loop.
func TestGatewayReplicaDeathFailover(t *testing.T) {
	rs := newReplicaSet(t, 3, server.Config{SessionTTL: -1})
	ctx := context.Background()
	h := genHypergraph(t, 100, 51)
	cfg := hyperbal.BalancerConfig{K: 2, Alpha: 50, Seed: 3, Method: core.HypergraphRepart}

	var handles []*hyperbal.RemoteSession
	for i := 0; i < 9; i++ {
		sess, _, err := rs.client.CreateSession(ctx, cfg, h)
		if err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
		handles = append(handles, sess)
	}

	// Kill the replica holding the most sessions, without drain.
	victim, most := -1, -1
	for i, srv := range rs.servers {
		if n := srv.Sessions(); n > most {
			victim, most = i, n
		}
	}
	rs.listen[victim].CloseClientConnections()
	rs.listen[victim].Close()
	t.Logf("killed replica %d holding %d sessions", victim, most)

	// Creates must keep landing on survivors.
	for i := 0; i < 4; i++ {
		if _, _, err := rs.client.CreateSession(ctx, cfg, h); err != nil {
			t.Fatalf("create after replica death: %v", err)
		}
	}
	// Sessions on the dead replica died with it (no drain): expect 404.
	lost, served := 0, 0
	for _, sess := range handles {
		_, _, err := sess.Partition(ctx)
		if err == nil {
			served++
			continue
		}
		var apiErr *hyperbal.APIError
		if errors.As(err, &apiErr) && apiErr.Status == http.StatusNotFound {
			lost++
			continue
		}
		t.Fatalf("session fetch after replica death: %v (want success or 404)", err)
	}
	if lost != most {
		t.Errorf("lost %d sessions, the dead replica held %d", lost, most)
	}
	if served != len(handles)-most {
		t.Errorf("%d sessions served, want %d", served, len(handles)-most)
	}
}

// postCreates sends n binary creates straight to the gateway (no client
// retries) from three goroutines at once and returns their status codes,
// 0 for a transport error.
func postCreates(t *testing.T, rs *replicaSet, n int) []int {
	t.Helper()
	body := server.AppendCreateRequestBinary(nil, server.WireConfig{K: 2, Alpha: 10}, genHypergraph(t, 60, 5))
	codes := make([]int, n)
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < n; i += 3 {
				resp, err := http.Post(rs.gwURL+"/v1/sessions", server.ContentTypeBinary, bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					continue
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				codes[i] = resp.StatusCode
			}
		}()
	}
	wg.Wait()
	return codes
}

// TestGatewayCreateSkipsDrainingReplica: a replica that is draining with
// its listener still open answers /healthz 503, and the gateway must mint
// no id onto it. When the gateway balanced by its own placement counts, a
// draining replica never gained one (it answers every create 503), so it
// drew most creates.
func TestGatewayCreateSkipsDrainingReplica(t *testing.T) {
	rs := newReplicaSet(t, 3, server.Config{SessionTTL: -1})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := rs.servers[0].Drain(ctx); err != nil {
		t.Fatal(err)
	}
	rs.gw.PollHealth(ctx)
	// Polls race the creates: each one re-reads the session counts.
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		for i := 0; i < 5; i++ {
			rs.gw.PollHealth(ctx)
		}
	}()
	codes := postCreates(t, rs, 30)
	<-polled
	refused := 0
	for _, code := range codes {
		if code != http.StatusCreated {
			refused++
		}
	}
	if refused > 0 {
		t.Errorf("%d of 30 creates were not answered 201", refused)
	}
	if n := rs.servers[0].Sessions(); n != 0 {
		t.Errorf("the draining replica holds %d sessions", n)
	}
	if got := rs.totalSessions(); got != 30-refused {
		t.Errorf("replicas hold %d sessions, %d creates succeeded", got, 30-refused)
	}
}

// TestGatewayBalancesLiveSessions: the gateway balances the sessions the
// replicas hold, not the ones it once routed. Replica 0 evicts its first
// wave by TTL; the second wave must refill it, leaving the live counts
// within 10 % of their mean. The gateway's /healthz reports no
// per-session state.
func TestGatewayBalancesLiveSessions(t *testing.T) {
	const ttl = 500 * time.Millisecond
	rs := newReplicaSetOf(t, []server.Config{{SessionTTL: ttl}, {SessionTTL: -1}, {SessionTTL: -1}})
	ctx := context.Background()
	wave := func() {
		t.Helper()
		for i, code := range postCreates(t, rs, 30) {
			if code != http.StatusCreated {
				t.Fatalf("create %d: status %d", i, code)
			}
		}
	}
	wave()
	for deadline := time.Now().Add(2 * time.Second); rs.servers[0].Sessions() > 0; time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("replica 0 still holds %d sessions past its TTL", rs.servers[0].Sessions())
		}
	}
	rs.gw.PollHealth(ctx)
	start := time.Now()
	wave()
	if d := time.Since(start); d >= ttl {
		t.Fatalf("the second wave took %s, past replica 0's TTL: its live count is not the wave's", d)
	}

	counts := make([]int, len(rs.servers))
	hi, total := 0, 0
	for i, srv := range rs.servers {
		counts[i] = srv.Sessions()
		hi, total = max(hi, counts[i]), total+counts[i]
	}
	if mean := float64(total) / float64(len(counts)); float64(hi) > 1.1*mean {
		t.Errorf("live sessions per replica %v: max / mean %.2f, want <= 1.1", counts, float64(hi)/mean)
	}

	resp, err := http.Get(rs.gwURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if _, ok := health["placed"]; ok {
		t.Errorf("gateway /healthz reports per-session state: %v", health)
	}
}
