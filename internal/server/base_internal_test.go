package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"hyperbal/internal/hypergraph"
)

// TestSessionBaseFingerprintIsCurrent: a delta epoch checks its base
// against the session's stored fingerprint and never re-hashes the stored
// hypergraph, so every path that installs a base must store that
// hypergraph's own fingerprint — create, POST epoch, cold and warm PATCH
// deltas (a structural one included), and adoption by handoff.
func TestSessionBaseFingerprintIsCurrent(t *testing.T) {
	a, b := New(Config{SessionTTL: -1}), New(Config{SessionTTL: -1})
	defer a.Close()
	defer b.Close()
	tsA, tsB := httptest.NewServer(a.Handler()), httptest.NewServer(b.Handler())
	defer tsA.Close()
	defer tsB.Close()

	// check asserts that s holds id with base fingerprint want, and that
	// want is the stored hypergraph's own fingerprint.
	check := func(stage string, s *Server, id string, want *hypergraph.Hypergraph) {
		t.Helper()
		entry := s.store.get(id)
		if entry == nil {
			t.Fatalf("%s: session %s not found", stage, id)
		}
		entry.mu.Lock()
		base := entry.base
		entry.mu.Unlock()
		if base.H == nil || base.FP != base.H.Fingerprint() {
			t.Fatalf("%s: stored base fingerprint %q is not the stored hypergraph's", stage, base.FP)
		}
		if base.FP != want.Fingerprint() {
			t.Fatalf("%s: stored base %s, want the submitted hypergraph's %s", stage, base.FP, want.Fingerprint())
		}
	}
	submit := func(stage, method, id string, body []byte) {
		t.Helper()
		req, err := http.NewRequest(method, tsA.URL+"/v1/sessions/"+id+"/epochs", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", ContentTypeBinary)
		resp, err := tsA.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", stage, resp.StatusCode)
		}
	}
	// drift rebuilds h with changed weights and, when grow is set, one
	// new vertex joined to vertex 0 by a new net.
	drift := func(h *hypergraph.Hypergraph, salt int64, grow bool) *hypergraph.Hypergraph {
		n := h.NumVertices()
		nv := n
		if grow {
			nv++
		}
		nb := hypergraph.NewBuilder(nv)
		for v := 0; v < n; v++ {
			nb.SetWeight(v, h.Weight(v)+(int64(v)+salt)%3)
		}
		for e := 0; e < h.NumNets(); e++ {
			nb.AddNetInt32(h.Cost(e), h.Pins(e))
		}
		if grow {
			nb.AddNet(2, 0, n)
		}
		return nb.Build()
	}

	id := newSessionID()
	h0 := testHypergraph(t)
	resp := postCreate(t, tsA.Client(), tsA.URL, id, binCreateBody(t))
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d", resp.StatusCode)
	}
	check("create", a, id, h0)

	h1 := drift(h0, 1, false)
	submit("POST epoch", http.MethodPost, id, AppendEpochRequestBinary(nil, h1, nil, 1))
	check("POST epoch", a, id, h1)

	h2 := drift(h1, 2, false)
	d, ok := hypergraph.ComputeDelta(h1, h2)
	if !ok {
		t.Fatal("weight drift not delta-able")
	}
	submit("cold PATCH", http.MethodPatch, id, AppendDeltaRequestBinary(nil, d, nil, 2, false))
	check("cold PATCH", a, id, h2)

	h3 := drift(h2, 3, true)
	vmap := []int32{0, 1, 2, 3, -1}
	if d, ok = hypergraph.ComputeDeltaMapped(h2, h3, vmap); !ok || d.VertexMap == nil {
		t.Fatalf("growth not delta-able as a structural delta (ok %v)", ok)
	}
	submit("warm structural PATCH", http.MethodPatch, id, AppendDeltaRequestBinary(nil, d, nil, 3, true))
	check("warm structural PATCH", a, id, h3)

	a.SetPeering(tsA.URL, []string{tsA.URL, tsB.URL})
	self, r := a.peerTopology()
	if !a.handoffSession(context.Background(), a.store.get(id), self, r) {
		t.Fatal("handoff to the peer failed")
	}
	check("handoff adoption", b, id, h3)
}

// TestHandoffKeepsAccountExactly: the drain handoff carries the session's
// core.Account as it stands, so the adopted account equals the origin's
// and GET /v1/sessions/{id} reads the same on both replicas. A handoff
// that shipped the last result in wire form and rebuilt it lost
// precision: a RepartTime of 1001 µs came back as 1.000999 ms, and the
// adopted session read repart_ms 1 instead of 1.001.
func TestHandoffKeepsAccountExactly(t *testing.T) {
	a, b := New(Config{SessionTTL: -1}), New(Config{SessionTTL: -1})
	defer a.Close()
	defer b.Close()
	tsA, tsB := httptest.NewServer(a.Handler()), httptest.NewServer(b.Handler())
	defer tsA.Close()
	defer tsB.Close()

	info := func(base, id string) SessionInfo {
		t.Helper()
		resp, err := http.Get(base + "/v1/sessions/" + id)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", base, resp.StatusCode)
		}
		var got SessionInfo
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		return got
	}

	id := newSessionID()
	resp := postCreate(t, tsA.Client(), tsA.URL, id, binCreateBody(t))
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d", resp.StatusCode)
	}
	entry := a.store.get(id)
	entry.mu.Lock()
	entry.Last.RepartTime = 1001 * time.Microsecond
	want := entry.Account
	entry.mu.Unlock()
	before := info(tsA.URL, id)
	if before.Last.RepartMs != 1.001 {
		t.Fatalf("origin repart_ms %v, want 1.001", before.Last.RepartMs)
	}

	a.SetPeering(tsA.URL, []string{tsA.URL, tsB.URL})
	self, r := a.peerTopology()
	if !a.handoffSession(context.Background(), entry, self, r) {
		t.Fatal("handoff to the peer failed")
	}
	adopted := b.store.get(id)
	if adopted == nil {
		t.Fatal("peer did not adopt the session")
	}
	adopted.mu.Lock()
	got := adopted.Account
	adopted.mu.Unlock()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("adopted account %+v (RepartTime %v), want %+v (RepartTime %v)", got, got.Last.RepartTime, want, want.Last.RepartTime)
	}
	if after := info(tsB.URL, id); !reflect.DeepEqual(after, before) {
		t.Fatalf("adopted session reads %+v, origin read %+v", after, before)
	}
}
