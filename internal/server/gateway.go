package server

// Gateway is the routing tier of the distributed serving mode: a thin HTTP
// proxy that shards sessions across N balancerd replicas. It holds no
// per-session state: where a session lives is a function of its id.
//
//   - Creates: the gateway mints the session id (ring.mint) so that the
//     id's first alive ring candidate is a least-loaded replica that
//     accepts sessions, and forwards the create there with
//     X-Hyperbal-Session-ID. Session counts come from each replica's
//     /healthz, plus the creates routed since the last poll. A create
//     retargeted after a transport error runs under a fresh id (the dead
//     replica may have processed the original). A create that arrives
//     with an id of its own is refused 400: only minted ids route.
//   - Session requests: walk the id's ring candidates, skipping replicas
//     that are down. A transport error marks the replica down and moves
//     on, which is exactly where drain-time handoff moved the session, so
//     a rolling restart is invisible to clients beyond one retargeted
//     request. A 404 moves on too: a draining replica keeps no trace of a
//     session it handed off, and one back from a restart no longer holds
//     them, so such a session costs one 404 hop. The walk visits each
//     candidate once.
//
// A restarted gateway routes as the old one did: there is nothing to lose.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"hyperbal/internal/obs"
)

// GatewayConfig parameterizes a Gateway.
type GatewayConfig struct {
	// Replicas is the full replica base-URL list (required, len >= 1).
	Replicas []string
	// HealthInterval is the replica health-poll period (default 500ms;
	// negative disables the poller — tests drive PollHealth directly).
	HealthInterval time.Duration
	// MaxBodyBytes bounds buffered request bodies (default 64 MiB).
	MaxBodyBytes int64
	// HTTPClient overrides the proxy client (default &http.Client{}).
	HTTPClient *http.Client
	// Logf, when non-nil, receives one line per notable routing event.
	Logf func(format string, args ...any)
}

func (c GatewayConfig) withDefaults() GatewayConfig {
	if c.HealthInterval == 0 {
		c.HealthInterval = 500 * time.Millisecond
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{}
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Gateway routes the balancerd API across a replica set.
type Gateway struct {
	cfg  GatewayConfig
	ring *ring
	mux  *http.ServeMux

	mu   sync.Mutex
	reps []replicaView

	stop     chan struct{}
	stopOnce sync.Once
}

// NewGateway builds a Gateway over cfg.Replicas and starts the health
// poller (unless disabled).
func NewGateway(cfg GatewayConfig) (*Gateway, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("gateway: no replicas configured")
	}
	g := &Gateway{
		cfg:  cfg,
		ring: newRing(cfg.Replicas),
		reps: make([]replicaView, len(cfg.Replicas)),
		stop: make(chan struct{}),
	}
	for i := range g.reps {
		g.reps[i] = replicaView{alive: true, accepting: true}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", g.handleCreate)
	mux.HandleFunc("GET /v1/sessions/{id}", g.proxySession)
	mux.HandleFunc("POST /v1/sessions/{id}/epochs", g.proxySession)
	mux.HandleFunc("PATCH /v1/sessions/{id}/epochs", g.proxySession)
	mux.HandleFunc("GET /v1/sessions/{id}/partition", g.proxySession)
	mux.HandleFunc("DELETE /v1/sessions/{id}", g.proxySession)
	mux.HandleFunc("GET /healthz", g.handleHealthz)
	obs.Mount(mux, obs.Default())
	g.mux = mux
	if cfg.HealthInterval > 0 {
		go g.healthLoop()
	}
	return g, nil
}

// Handler returns the gateway's HTTP handler.
func (g *Gateway) Handler() http.Handler { return g.mux }

// Close stops the health poller.
func (g *Gateway) Close() { g.stopOnce.Do(func() { close(g.stop) }) }

// --- replica state and minting ---

func (g *Gateway) healthLoop() {
	t := time.NewTicker(g.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-t.C:
			g.PollHealth(context.Background())
		}
	}
}

// PollHealth GETs every replica's /healthz once. A replica that answers at
// all is alive (a draining replica still serves the sessions it has not
// handed off, so it stays routable until its listener closes); one that
// answers 200 accepts new sessions; the sessions it reports replace its
// count.
func (g *Gateway) PollHealth(ctx context.Context) {
	for i, u := range g.cfg.Replicas {
		v := g.pollReplica(ctx, u)
		g.mu.Lock()
		changed := g.reps[i].alive != v.alive
		g.reps[i] = v
		g.mu.Unlock()
		if changed {
			g.logAlive(i, v.alive)
		}
	}
}

func (g *Gateway) pollReplica(ctx context.Context, base string) replicaView {
	pctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, base+"/healthz", nil)
	if err != nil {
		return replicaView{}
	}
	resp, err := g.cfg.HTTPClient.Do(req)
	if err != nil {
		return replicaView{}
	}
	defer resp.Body.Close()
	var health struct {
		Sessions int `json:"sessions"`
	}
	_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<12)).Decode(&health)
	return replicaView{sessions: health.Sessions, alive: true, accepting: resp.StatusCode == http.StatusOK}
}

// markDown records a transport error from replica i.
func (g *Gateway) markDown(i int) {
	g.mu.Lock()
	changed := g.reps[i].alive
	g.reps[i].alive = false
	g.mu.Unlock()
	if changed {
		g.logAlive(i, false)
	}
}

func (g *Gateway) logAlive(i int, alive bool) {
	if alive {
		g.cfg.Logf("gateway: replica %s is back", g.cfg.Replicas[i])
	} else {
		g.cfg.Logf("gateway: replica %s is down", g.cfg.Replicas[i])
	}
}

func (g *Gateway) alive(i int) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.reps[i].alive
}

// mint picks a fresh session id and its replica (ring.mint) and counts the
// create against that replica until the next poll corrects the count.
func (g *Gateway) mint() (string, int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	id, idx := g.ring.mint(g.reps, newSessionID)
	if idx >= 0 {
		g.reps[idx].sessions++
	}
	return id, idx
}

// --- proxying ---

// bufferBody slurps the request body so it can be replayed across
// candidate replicas.
func (g *Gateway) bufferBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	if r.Body == nil {
		return nil, true
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, g.cfg.MaxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "invalid request body: "+err.Error())
		return nil, false
	}
	return body, true
}

// forward issues one request to a replica and returns the response. The
// caller owns resp.Body.
func (g *Gateway) forward(r *http.Request, base string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(r.Context(), r.Method, base+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	for _, h := range []string{"Content-Type", "Accept", SessionIDHeader} {
		if v := r.Header.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	return g.cfg.HTTPClient.Do(req)
}

// relay copies a replica response to the client verbatim.
func relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	if v := resp.Header.Get("Content-Type"); v != "" {
		w.Header().Set("Content-Type", v)
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// maxHops bounds the ids one create tries after transport errors.
const maxHops = 6

func (g *Gateway) handleCreate(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get(SessionIDHeader) != "" {
		writeError(w, http.StatusBadRequest, "bad_request", "the gateway mints session ids: a create must not carry "+SessionIDHeader)
		return
	}
	body, ok := g.bufferBody(w, r)
	if !ok {
		return
	}
	for hops := 0; hops < maxHops; hops++ {
		id, idx := g.mint()
		if idx < 0 {
			writeError(w, http.StatusServiceUnavailable, "no_replicas", "no replica is accepting sessions")
			return
		}
		// The replica stores the session under the id the ring routes on.
		r.Header.Set(SessionIDHeader, id)
		resp, err := g.forward(r, g.cfg.Replicas[idx], body)
		if err == nil {
			relay(w, resp)
			return
		}
		// The unreachable replica may have processed the create with only
		// the response lost. The next pass mints a fresh id, so such a copy
		// cannot diverge from the retry: the caller never saw its id, and it
		// idles out by TTL.
		g.markDown(idx)
		obsGwRetargets.Inc()
	}
	writeError(w, http.StatusBadGateway, "routing_loop", "create exceeded retarget budget")
}

// proxySession routes a request for an existing session along the id's
// ring candidates, each once: transport errors and 404s move to the next
// alive candidate.
func (g *Gateway) proxySession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	body, ok := g.bufferBody(w, r)
	if !ok {
		return
	}
	var lastNotFound *http.Response
	for _, idx := range g.ring.candidates(id) {
		if !g.alive(idx) {
			obsGwRetargets.Inc()
			continue
		}
		resp, err := g.forward(r, g.cfg.Replicas[idx], body)
		if err != nil {
			g.markDown(idx)
			obsGwRetargets.Inc()
			continue
		}
		if resp.StatusCode == http.StatusNotFound {
			// Not here: a session handed off by a draining or restarted
			// replica, or one placed while an earlier candidate was down.
			// Keep one 404 to relay if no candidate holds the session.
			if lastNotFound != nil {
				discard(lastNotFound)
			}
			lastNotFound = resp
			obsGwRetargets.Inc()
			continue
		}
		if lastNotFound != nil {
			discard(lastNotFound)
		}
		relay(w, resp)
		return
	}
	if lastNotFound != nil {
		relay(w, lastNotFound)
		return
	}
	writeError(w, http.StatusServiceUnavailable, "no_replicas", "no replica could serve the session")
}

// discard drains and closes a replica response the gateway does not relay.
func discard(resp *http.Response) {
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12))
	resp.Body.Close()
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	g.mu.Lock()
	alive := 0
	for _, v := range g.reps {
		if v.alive {
			alive++
		}
	}
	g.mu.Unlock()
	status, code := "ok", http.StatusOK
	if alive == 0 {
		status, code = "no_replicas", http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status":   status,
		"replicas": len(g.cfg.Replicas),
		"alive":    alive,
	})
}
