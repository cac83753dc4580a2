package server

// Regression tests for the gateway's create-retarget path. Pre-fix, a
// create whose replica died mid-request was retried on another replica
// under the same pre-assigned id — if the first replica had actually
// processed the request and only the response was lost, two replicas held
// divergent sessions under one id, and a gateway restart's ring probe
// could later resurrect the stale epoch-0 copy.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
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
		sr, err := DecodeSessionResponseBinary(data)
		if err != nil {
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

// TestGatewayCreateCallerAssignedProbes409: a caller-assigned id cannot be
// swapped on retarget, so before retrying the gateway must probe the id's
// candidates — if the create already landed on a survivor, the answer is
// 409 duplicate_session, not a second session under the same id.
func TestGatewayCreateCallerAssignedProbes409(t *testing.T) {
	srv := New(Config{SessionTTL: -1})
	defer srv.Close()
	live := httptest.NewServer(srv.Handler())
	defer live.Close()

	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close() // connection refused from the first request

	urls := []string{dead.URL, live.URL}
	// Pick an id the ring routes to the dead replica first, so the create
	// takes the transport-error path before probing.
	r := newRing(urls)
	var id string
	for i := 0; ; i++ {
		id = newSessionID()
		if r.candidates(id)[0] == 0 {
			break
		}
		if i > 1000 {
			t.Fatal("no id hashed to the dead replica first")
		}
	}

	body := binCreateBody(t)
	// Seed the "create landed, response lost" state: the session already
	// exists under id on the surviving candidate.
	resp := postCreate(t, http.DefaultClient, live.URL, id, body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("seeding create: status %d", resp.StatusCode)
	}

	g, err := NewGateway(GatewayConfig{
		Replicas:       urls,
		HealthInterval: -1,
		HTTPClient:     &http.Client{Timeout: 5 * time.Second},
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	gts := httptest.NewServer(g.Handler())
	defer gts.Close()

	resp = postCreate(t, http.DefaultClient, gts.URL, id, body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("create after transport error: status %d, want 409 (the session already landed)", resp.StatusCode)
	}
	var er ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if er.Code != "duplicate_session" {
		t.Fatalf("error code %q, want duplicate_session", er.Code)
	}
	if srv.Sessions() != 1 {
		t.Fatalf("survivor holds %d sessions, want the single seeded one", srv.Sessions())
	}
	// The probe pins the placement, so follow-up requests route straight to
	// the surviving owner.
	if idx, ok := g.placed(id); !ok || idx != 1 {
		t.Fatalf("placement after probe = (%d,%v), want the survivor", idx, ok)
	}
}
