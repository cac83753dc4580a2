package server

// Tests for the gateway's create path. A create whose replica died
// mid-request was once retried on another replica under the same
// pre-assigned id: if the first replica had processed the request and only
// the response was lost, two replicas held divergent sessions under one
// id, and the ring walk could later reach the stale epoch-0 copy. The
// gateway now mints every id, retries under a fresh one, and refuses a
// create that brings its own.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// binCreateBody renders a minimal binary create request.
func binCreateBody(t *testing.T) []byte {
	t.Helper()
	return AppendCreateRequestBinary(nil, WireConfig{K: 2, Alpha: 10}, testHypergraph(t))
}

func postCreate(t *testing.T, client *http.Client, base, id string, body []byte) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/sessions", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", ContentTypeBinary)
	req.Header.Set("Accept", ContentTypeBinary)
	if id != "" {
		req.Header.Set(SessionIDHeader, id)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestGatewayCreateRetargetUsesFreshID: when a replica dies mid-create, the
// retry on a survivor must run under a fresh gateway-generated id — the
// dead replica may have processed the original request, and reusing its id
// would fork the session across replicas. Pre-fix the retry reused the id.
func TestGatewayCreateRetargetUsesFreshID(t *testing.T) {
	srv := New(Config{SessionTTL: -1})
	defer srv.Close()
	live := httptest.NewServer(srv.Handler())
	defer live.Close()

	// A replica that accepts the connection, records the pre-assigned id,
	// and dies without answering — a create processed with the response lost,
	// as far as the gateway can tell.
	var mu sync.Mutex
	var seenIDs []string
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seenIDs = append(seenIDs, r.Header.Get(SessionIDHeader))
		mu.Unlock()
		hj, ok := w.(http.Hijacker)
		if !ok {
			t.Error("response writer cannot hijack")
			return
		}
		if conn, _, err := hj.Hijack(); err == nil {
			conn.Close()
		}
	}))
	defer broken.Close()

	g, err := NewGateway(GatewayConfig{
		Replicas:       []string{broken.URL, live.URL},
		HealthInterval: -1,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	gts := httptest.NewServer(g.Handler())
	defer gts.Close()

	body := binCreateBody(t)
	// Ids are generated per create, so the ring routes roughly half of them
	// to the broken replica first; iterate until one hits it (the broken
	// replica is marked down at that point, so it is hit at most once).
	for i := 0; i < 40; i++ {
		resp := postCreate(t, http.DefaultClient, gts.URL, "", body)
		if resp.StatusCode != http.StatusCreated {
			resp.Body.Close()
			t.Fatalf("create %d: status %d", i, resp.StatusCode)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		var sr SessionResponse
		if err := DecodeResponseBinary(data, &sr); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		hit := len(seenIDs) > 0
		var brokenID string
		if hit {
			brokenID = seenIDs[0]
		}
		mu.Unlock()
		if !hit {
			continue
		}
		// This create was first sent to the broken replica, then retried on
		// the survivor. The id that reached the broken replica must not be
		// the id the create finally succeeded under.
		if sr.SessionID == "" {
			t.Fatal("create succeeded without a session id")
		}
		if sr.SessionID == brokenID {
			t.Fatalf("retargeted create reused id %s sent to the dead replica — a processed-but-unanswered create would fork the session", brokenID)
		}
		if srv.store.get(brokenID) != nil {
			t.Fatalf("survivor holds a session under the dead replica's id %s", brokenID)
		}
		if srv.store.get(sr.SessionID) == nil {
			t.Fatalf("survivor does not hold the returned session %s", sr.SessionID)
		}
		return
	}
	t.Fatal("no create was routed to the broken replica across 40 attempts")
}

// TestGatewayCreateRefusesCallerAssignedID: the gateway routes only ids it
// minted, so a create carrying X-Hyperbal-Session-ID is answered 400
// bad_request and reaches no replica.
func TestGatewayCreateRefusesCallerAssignedID(t *testing.T) {
	var servers []*Server
	var urls []string
	for i := 0; i < 2; i++ {
		srv := New(Config{SessionTTL: -1})
		defer srv.Close()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		servers = append(servers, srv)
		urls = append(urls, ts.URL)
	}
	g, err := NewGateway(GatewayConfig{Replicas: urls, HealthInterval: -1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	gts := httptest.NewServer(g.Handler())
	defer gts.Close()

	resp := postCreate(t, http.DefaultClient, gts.URL, newSessionID(), binCreateBody(t))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("caller-assigned create: status %d, want 400", resp.StatusCode)
	}
	var er ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if er.Code != "bad_request" {
		t.Fatalf("error code %q, want bad_request", er.Code)
	}
	for i, srv := range servers {
		if n := srv.Sessions(); n != 0 {
			t.Fatalf("replica %d holds %d sessions after a refused create", i, n)
		}
	}
}

// TestGatewayCountsSkippedDownReplica: a request that passes over a
// replica already known to be down has moved past its first choice, and
// gateway_retargets_total must say so. CI's replica-kill drill reads that
// counter: once a health poll marks the killed replica down, the handed-off
// sessions reach their successor without a transport error or a redirect.
func TestGatewayCountsSkippedDownReplica(t *testing.T) {
	srv := New(Config{SessionTTL: -1})
	defer srv.Close()
	live := httptest.NewServer(srv.Handler())
	defer live.Close()
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()

	urls := []string{dead.URL, live.URL}
	r := newRing(urls)
	id := newSessionID()
	for r.candidates(id)[0] != 0 {
		id = newSessionID()
	}
	resp := postCreate(t, http.DefaultClient, live.URL, id, binCreateBody(t))
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create on the live replica: status %d", resp.StatusCode)
	}

	g, err := NewGateway(GatewayConfig{Replicas: urls, HealthInterval: -1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	g.PollHealth(context.Background())
	gts := httptest.NewServer(g.Handler())
	defer gts.Close()

	before := obsGwRetargets.Load()
	resp, err = http.Get(gts.URL + "/v1/sessions/" + id)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("session through the gateway: status %d", resp.StatusCode)
	}
	if got := obsGwRetargets.Load() - before; got < 1 {
		t.Fatalf("gateway_retargets_total rose by %d past a down first candidate, want at least 1", got)
	}
}
