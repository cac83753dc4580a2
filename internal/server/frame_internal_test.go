package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"hyperbal/internal/core"
	"hyperbal/internal/datasets"
	"hyperbal/internal/graph"
	"hyperbal/internal/hypergraph"
	"hyperbal/internal/partition"
	"hyperbal/internal/wire"
)

// serveBinary sends one binary request straight to s's handler.
func serveBinary(s *Server, method, path string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", ContentTypeBinary)
	req.Header.Set("Accept", ContentTypeBinary)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// answer decodes a create or epoch response, failing unless its status is
// want.
func answer(t *testing.T, stage string, rec *httptest.ResponseRecorder, want int) SessionResponse {
	t.Helper()
	if rec.Code != want {
		t.Fatalf("%s: status %d (%s), want %d", stage, rec.Code, rec.Body.String(), want)
	}
	var resp SessionResponse
	if err := DecodeResponseBinary(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("%s: %v", stage, err)
	}
	return resp
}

// rawFrame returns a Frame holding frame's bytes as a decoded one does, so
// it goes back on the wire exactly as spelled.
func rawFrame(t *testing.T, frame []byte) hypergraph.Frame {
	t.Helper()
	var f hypergraph.Frame
	if err := wire.Varint.Decode(append(binary.AppendUvarint(nil, uint64(len(frame))), frame...), &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// frameLayout is the hypergraph frame's declared layout
// (hypergraph.frameWire), so a test can spell a frame another way.
type frameLayout struct {
	NumVertices int
	NetStart    []int32
	Pins        []int32
	Costs       []int64
	Weights     []int64
	Sizes       []int64
	Fixed       []int32
}

// nonCanonicalFrame spells h as no AppendBinary would: weights and sizes
// written out even where they are all 1, an all-Free fixed vector, and
// net 0's first pin repeated. The frame builds to h.
func nonCanonicalFrame(t *testing.T, h *hypergraph.Hypergraph) []byte {
	t.Helper()
	n := h.NumVertices()
	l := frameLayout{NumVertices: n, NetStart: []int32{0}, Weights: make([]int64, n), Sizes: make([]int64, n), Fixed: make([]int32, n)}
	for v := 0; v < n; v++ {
		l.Weights[v], l.Sizes[v], l.Fixed[v] = h.Weight(v), h.Size(v), hypergraph.Free
	}
	for e := 0; e < h.NumNets(); e++ {
		l.Pins = append(l.Pins, h.Pins(e)...)
		if e == 0 {
			l.Pins = append(l.Pins, h.Pins(e)[0])
		}
		l.NetStart = append(l.NetStart, int32(len(l.Pins)))
		l.Costs = append(l.Costs, h.Cost(e))
	}
	frame, err := wire.Varint.Append(nil, l)
	if err != nil {
		t.Fatal(err)
	}
	f := rawFrame(t, frame)
	built, err := f.Build()
	switch {
	case err != nil:
		t.Fatal(err)
	case bytes.Equal(frame, h.AppendBinary(nil)) || f.FP == h.Fingerprint():
		t.Fatal("the test frame is the canonical one")
	case built.Fingerprint() != h.Fingerprint():
		t.Fatal("the test frame does not build to the hypergraph it spells")
	}
	return frame
}

// laneHypergraphs returns a serving-size input and two weight drifts of
// it on the same vertex set.
func laneHypergraphs(t *testing.T, n int) (h0, h1, h2 *hypergraph.Hypergraph) {
	t.Helper()
	g, err := datasets.Generate("xyce680s", n, 1)
	if err != nil {
		t.Fatal(err)
	}
	h0 = graph.ToHypergraph(g)
	return h0, weightDrift(h0, 1), weightDrift(h0, 2)
}

// weightDrift rebuilds h with every vertex weight raised by a salted
// 0..2.
func weightDrift(h *hypergraph.Hypergraph, salt int64) *hypergraph.Hypergraph {
	b := hypergraph.NewBuilder(h.NumVertices())
	for v := 0; v < h.NumVertices(); v++ {
		b.SetWeight(v, h.Weight(v)+(int64(v)*7+salt)%3)
	}
	for e := 0; e < h.NumNets(); e++ {
		b.AddNetInt32(h.Cost(e), h.Pins(e))
	}
	return b.Build()
}

func sameParts(t *testing.T, stage string, got []int32, want partition.Partition) {
	t.Helper()
	if !slices.Equal(got, want.Parts) {
		t.Fatalf("%s: served partition differs from the in-process session's", stage)
	}
}

// TestLazyBaseMatchesOracle: a full epoch that hits the memo keeps its
// hypergraph as the frame's bytes, unbuilt. What needs it later builds it
// then — a warm PATCH, a cold PATCH, a drain handoff — and each answers
// byte-identically to an in-process core.Session taking the same steps.
// A base frame that does not build answers a PATCH with the 409 that
// asks for a full epoch, and a handoff of it is refused at adoption: the
// draining replica keeps the session.
func TestLazyBaseMatchesOracle(t *testing.T) {
	a, b := New(Config{SessionTTL: -1}), New(Config{SessionTTL: -1})
	defer a.Close()
	defer b.Close()
	tsA, tsB := httptest.NewServer(a.Handler()), httptest.NewServer(b.Handler())
	defer tsA.Close()
	defer tsB.Close()
	a.SetPeering(tsA.URL, []string{tsA.URL, tsB.URL})

	h0, h1, h2 := laneHypergraphs(t, 300)
	cfg := core.Config{K: 4, Alpha: 10, Seed: 3}
	bal, err := core.NewBalancer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := core.NewSession(bal, core.Problem{H: h0})
	if err != nil {
		t.Fatal(err)
	}
	ref1, err := ref.Rebalance(core.Problem{H: h1})
	if err != nil {
		t.Fatal(err)
	}
	d, ok := hypergraph.ComputeDelta(h1, h2)
	if !ok {
		t.Fatal("h1 -> h2 not delta-able")
	}
	// The next epoch two ways: cold, as ref goes on, and warm from ref's
	// state after epoch 1.
	warm, err := bal.RepartitionWarm(core.Problem{H: h2}, ref.Current(), ref.Epoch()+1, d.DirtyVertices(h1, h2))
	if err != nil {
		t.Fatal(err)
	}
	cold, err := ref.Rebalance(core.Problem{H: h2})
	if err != nil {
		t.Fatal(err)
	}

	create := AppendCreateRequestBinary(nil, WireConfigFrom(cfg), h0)
	epoch1 := AppendEpochRequestBinary(nil, h1, nil, 1)
	// primed runs create and epoch 1 once, so the memo holds both.
	// hitSession then builds a session whose epoch 1 is a memo hit.
	primed := answer(t, "prime create", serveBinary(a, http.MethodPost, "/v1/sessions", create), http.StatusCreated)
	answer(t, "prime epoch", serveBinary(a, http.MethodPost, "/v1/sessions/"+primed.SessionID+"/epochs", epoch1), http.StatusOK)
	hitSession := func(stage string) string {
		t.Helper()
		id := answer(t, stage+" create", serveBinary(a, http.MethodPost, "/v1/sessions", create), http.StatusCreated).SessionID
		res := answer(t, stage+" epoch", serveBinary(a, http.MethodPost, "/v1/sessions/"+id+"/epochs", epoch1), http.StatusOK).Result
		if !res.Cached {
			t.Fatalf("%s: epoch 1 missed the memo", stage)
		}
		sameParts(t, stage+" epoch", res.Parts, ref1.Partition)
		entry := a.store.get(id)
		if entry.base.H != nil || entry.base.FP != h1.Fingerprint() {
			t.Fatalf("%s: a memo hit built its base (built %v, id %s)", stage, entry.base.H != nil, entry.base.FP)
		}
		return id
	}

	for _, warmStart := range []bool{false, true} {
		stage, want := "cold PATCH", cold
		if warmStart {
			stage, want = "warm PATCH", warm
		}
		id := hitSession(stage)
		res := answer(t, stage, serveBinary(a, http.MethodPatch, "/v1/sessions/"+id+"/epochs",
			AppendDeltaRequestBinary(nil, d, nil, 2, warmStart)), http.StatusOK).Result
		sameParts(t, stage, res.Parts, want.Partition)
		if res.Warm != want.Warm {
			t.Fatalf("%s: served warm=%v, in-process %v", stage, res.Warm, want.Warm)
		}
	}

	id := hitSession("handoff")
	self, r := a.peerTopology()
	if !a.handoffSession(context.Background(), a.store.get(id), self, r) {
		t.Fatal("handoff of an unbuilt base failed")
	}
	res := answer(t, "PATCH after handoff", serveBinary(b, http.MethodPatch, "/v1/sessions/"+id+"/epochs",
		AppendDeltaRequestBinary(nil, d, nil, 2, false)), http.StatusOK).Result
	sameParts(t, "PATCH after handoff", res.Parts, cold.Partition)

	// A base whose bytes do not build (a pin out of range) is a lost base:
	// a PATCH naming it gets the 409 that sends the client back to a full
	// epoch, and a handoff is refused by every candidate, so the session
	// stays where it is.
	id = hitSession("corrupt base")
	bad, err := wire.Varint.Append(nil, frameLayout{NumVertices: 2, NetStart: []int32{0, 1}, Pins: []int32{5}, Costs: []int64{1}})
	if err != nil {
		t.Fatal(err)
	}
	entry := a.store.get(id)
	entry.mu.Lock()
	entry.base = rawFrame(t, bad)
	entry.mu.Unlock()
	onBad := *d
	onBad.Base = entry.base.FP
	rec := serveBinary(a, http.MethodPatch, "/v1/sessions/"+id+"/epochs", AppendDeltaRequestBinary(nil, &onBad, nil, 2, false))
	if rec.Code != http.StatusConflict || !bytes.Contains(rec.Body.Bytes(), []byte("fingerprint_mismatch")) {
		t.Fatalf("PATCH against a base that does not build: %d %s, want 409 fingerprint_mismatch", rec.Code, rec.Body.String())
	}
	if a.handoffSession(context.Background(), entry, self, r) {
		t.Fatal("a base that does not build was adopted")
	}
	if a.store.get(id) == nil || b.store.get(id) != nil {
		t.Fatal("the draining replica lost the session it could not hand off")
	}
}

// TestNonCanonicalFrameNeverAnswersWrong: a client may spell a hypergraph
// in bytes no AppendBinary writes. Its id is then not the hypergraph's
// fingerprint, so it shares no memo entry with the canonical spelling,
// but it is answered with the canonical frame's partition; a PATCH that
// names the canonical fingerprint as its base gets the 409 that sends a
// client back to a full epoch, and one that names the server's base gets
// the in-process session's result.
func TestNonCanonicalFrameNeverAnswersWrong(t *testing.T) {
	s := New(Config{SessionTTL: -1})
	defer s.Close()
	h0, h1, _ := laneHypergraphs(t, 200)
	cfg := core.Config{K: 4, Alpha: 10, Seed: 5}
	bal, err := core.NewBalancer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, first, err := core.NewSession(bal, core.Problem{H: h0})
	if err != nil {
		t.Fatal(err)
	}

	canon := answer(t, "canonical create", serveBinary(s, http.MethodPost, "/v1/sessions",
		AppendCreateRequestBinary(nil, WireConfigFrom(cfg), h0)), http.StatusCreated)
	sameParts(t, "canonical create", canon.Result.Parts, first.Partition)
	body := appendMsg(nil, createRequest{WireConfigFrom(cfg), rawFrame(t, nonCanonicalFrame(t, h0))})
	resp := answer(t, "non-canonical create", serveBinary(s, http.MethodPost, "/v1/sessions", body), http.StatusCreated)
	if resp.Result.Cached {
		t.Fatal("a non-canonical frame hit the canonical frame's memo entry")
	}
	sameParts(t, "non-canonical create", resp.Result.Parts, first.Partition)
	path := "/v1/sessions/" + resp.SessionID + "/epochs"

	d, ok := hypergraph.ComputeDelta(h0, h1) // names h0.Fingerprint() as its base
	if !ok {
		t.Fatal("h0 -> h1 not delta-able")
	}
	rec := serveBinary(s, http.MethodPatch, path, AppendDeltaRequestBinary(nil, d, nil, 1, false))
	want, err := ref.Rebalance(core.Problem{H: h1})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusConflict || !bytes.Contains(rec.Body.Bytes(), []byte("fingerprint_mismatch")) {
		// Not the 409: then it must be the right answer.
		sameParts(t, "PATCH against the canonical base", answer(t, "PATCH", rec, http.StatusOK).Result.Parts, want.Partition)
		return
	}
	d.Base = s.store.get(resp.SessionID).base.FP
	res := answer(t, "PATCH against the server's base", serveBinary(s, http.MethodPatch, path,
		AppendDeltaRequestBinary(nil, d, nil, 1, false)), http.StatusOK).Result
	sameParts(t, "PATCH against the server's base", res.Parts, want.Partition)
}

func seq(lo, hi int) []int {
	var xs []int
	for i := lo; i < hi; i++ {
		xs = append(xs, i)
	}
	return xs
}

// TestCacheKeyStreamUnchanged: cacheKey hashes the bytes it always hashed
// (the fmt header, then each old part as 4 little-endian bytes, one Write
// each), so kept keys do not move — across chunk boundaries included.
func TestCacheKeyStreamUnchanged(t *testing.T) {
	ref := func(cfg core.Config, epoch int64, fp string, old partition.Partition, warm string) string {
		h := sha256.New()
		fmt.Fprintf(h, "k=%d a=%d eps=%g seed=%d m=%d epoch=%d oldk=%d fp=%s warm=%s;",
			cfg.K, cfg.Alpha, cfg.Imbalance, cfg.Seed, cfg.Method, epoch, old.K, fp, warm)
		var buf [4]byte
		for _, p := range old.Parts {
			binary.LittleEndian.PutUint32(buf[:], uint32(p))
			h.Write(buf[:])
		}
		return string(h.Sum(nil))
	}
	for _, eps := range []float64{0.05, 0.1, 1e-7, 3, 0.3333333333333333} {
		for _, n := range append([]int{0, 1, 1200}, seq(200, 260)...) {
			cfg := core.Config{K: 7, Alpha: -100, Imbalance: eps, Seed: -3, Method: core.HypergraphRepart}
			old := partition.Partition{Parts: make([]int32, n), K: 7}
			for i := range old.Parts {
				old.Parts[i] = int32(i*5) % 7
			}
			fp := hypergraph.NewBuilder(n).Build().Fingerprint()
			for _, warm := range []string{"", "warm:hbdd2:0123"} {
				if got, want := cacheKey(cfg, int64(n)-1, fp, old, warm), ref(cfg, int64(n)-1, fp, old, warm); got != want {
					t.Fatalf("eps %g, %d parts, warm %q: key moved", eps, n, warm)
				}
			}
		}
	}
}
