package server

// Gateway is the routing tier of the distributed serving mode: a thin,
// stateless-except-for-placement HTTP proxy that shards sessions across N
// balancerd replicas.
//
//   - Creates: the gateway pre-generates the session id, picks a replica by
//     consistent hashing with bounded loads (so one hot ring segment cannot
//     overload a replica), and forwards the create with X-Hyperbal-Session-ID.
//     A create retargeted after a transport error never reuses a
//     gateway-generated id (the dead replica may have processed it); a
//     caller-assigned id is first probed across the ring candidates and
//     answered 409 if the create already landed. Caller-assigned creates are
//     therefore at-most-once: a copy held only by the unreachable replica is
//     invisible to the probe and left to TTL eviction.
//   - Session requests: routed to the placed replica; on a transport error
//     the replica is marked down and the request is retried on the id's
//     next ring candidate — which is exactly where drain-time handoff moved
//     the session, so a rolling restart is invisible to clients beyond one
//     retargeted request.
//   - 307 + X-Hyperbal-Owner answers (a drained replica's forwarding
//     tombstone) are followed transparently and the placement is updated.
//   - 404 from the expected replica triggers a probe of the remaining
//     candidates before giving up, covering placements lost to a gateway
//     restart.
//
// The gateway holds no session state, only the placement map as a routing
// cache; every placement decision is recomputable from the session id and
// the replica list, so a restarted gateway converges by probing.

import (
	"bytes"
	"context"
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
	// LoadFactor is the bounded-load factor c: a replica accepts new
	// sessions while its placement count is under ceil(c·(total+1)/alive)
	// (default 1.25).
	LoadFactor float64
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
	if c.LoadFactor <= 0 {
		c.LoadFactor = 1.25
	}
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

	mu    sync.Mutex
	place map[string]int // session id -> replica index
	loads []int          // placements per replica
	down  []bool

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
		cfg:   cfg,
		ring:  newRing(cfg.Replicas),
		place: make(map[string]int),
		loads: make([]int, len(cfg.Replicas)),
		down:  make([]bool, len(cfg.Replicas)),
		stop:  make(chan struct{}),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", g.handleCreate)
	mux.HandleFunc("GET /v1/sessions/{id}", g.proxySession)
	mux.HandleFunc("POST /v1/sessions/{id}/epochs", g.proxySession)
	mux.HandleFunc("PATCH /v1/sessions/{id}/epochs", g.proxySession)
	mux.HandleFunc("GET /v1/sessions/{id}/partition", g.proxySession)
	mux.HandleFunc("DELETE /v1/sessions/{id}", g.proxySession)
	mux.HandleFunc("GET /healthz", g.handleHealthz)
	mux.Handle("GET /metrics", obs.Handler(obs.Default()))
	mux.HandleFunc("GET /metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = obs.Default().WriteJSON(w)
	})
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

// --- replica liveness ---

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

// PollHealth probes every replica's /healthz once and updates liveness. A
// replica is alive when it answers at all — a draining replica (503) still
// serves reads and handoff redirects, so it stays routable until the
// listener closes.
func (g *Gateway) PollHealth(ctx context.Context) {
	for i, u := range g.cfg.Replicas {
		pctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		req, err := http.NewRequestWithContext(pctx, http.MethodGet, u+"/healthz", nil)
		alive := false
		if err == nil {
			resp, err := g.cfg.HTTPClient.Do(req)
			if err == nil {
				_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12))
				resp.Body.Close()
				alive = true
			}
		}
		cancel()
		g.setAlive(i, alive)
	}
}

func (g *Gateway) setAlive(i int, alive bool) {
	g.mu.Lock()
	changed := g.down[i] == alive
	g.down[i] = !alive
	g.mu.Unlock()
	if changed {
		if alive {
			g.cfg.Logf("gateway: replica %s is back", g.cfg.Replicas[i])
		} else {
			g.cfg.Logf("gateway: replica %s is down", g.cfg.Replicas[i])
		}
	}
}

// --- placement bookkeeping ---

func (g *Gateway) placed(id string) (int, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	i, ok := g.place[id]
	return i, ok
}

func (g *Gateway) setPlacement(id string, idx int) {
	g.mu.Lock()
	if old, ok := g.place[id]; ok {
		if old == idx {
			g.mu.Unlock()
			return
		}
		g.loads[old]--
	}
	g.place[id] = idx
	g.loads[idx]++
	g.mu.Unlock()
}

func (g *Gateway) dropPlacement(id string) {
	g.mu.Lock()
	if old, ok := g.place[id]; ok {
		g.loads[old]--
		delete(g.place, id)
	}
	g.mu.Unlock()
}

// replicaIndex maps a base URL back to its index, -1 when unknown.
func (g *Gateway) replicaIndex(url string) int {
	for i, u := range g.cfg.Replicas {
		if u == url {
			return i
		}
	}
	return -1
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
	for _, h := range []string{"Content-Type", OwnerHeader} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// maxHops bounds 307-owner and candidate-retarget chains per request.
const maxHops = 6

func (g *Gateway) handleCreate(w http.ResponseWriter, r *http.Request) {
	body, ok := g.bufferBody(w, r)
	if !ok {
		return
	}
	// Pre-assign the id so the replica stores the session under the same
	// key the gateway hashes for routing. A client-supplied id (gateway
	// behind gateway, or tests) is honored as-is.
	id := r.Header.Get(SessionIDHeader)
	callerAssigned := id != ""
	if !callerAssigned {
		id = newSessionID()
	}
	r.Header.Set(SessionIDHeader, id)

	g.mu.Lock()
	idx := g.ring.pickBounded(id,
		func(i int) int { return g.loads[i] },
		func(i int) bool { return !g.down[i] },
		g.cfg.LoadFactor)
	g.mu.Unlock()
	if idx < 0 {
		writeError(w, http.StatusServiceUnavailable, "no_replicas", "no replica is alive")
		return
	}
	for hops := 0; hops < maxHops; hops++ {
		resp, err := g.forward(r, g.cfg.Replicas[idx], body)
		if err != nil {
			g.setAlive(idx, false)
			obsGwRetargets.Inc()
			// The unreachable replica may have processed the create with only
			// the response lost; blindly re-sending the same id elsewhere
			// would fork the id across two replicas, and a later gateway
			// restart's ring probe could resurrect the stale epoch-0 copy.
			if callerAssigned {
				// The caller knows this id, so it cannot be swapped. If a
				// surviving candidate already holds the session, the create
				// landed: answer 409 exactly as the replica would on a
				// duplicate, and let the caller recover through GET. If no
				// survivor holds it, retrying elsewhere is safe against every
				// replica we can see — a copy on the unreachable replica
				// itself is the residual at-most-once window, and it can only
				// idle out by TTL (it is never routed to: the placement below
				// pins the retry's replica).
				if oi := g.probeSession(r.Context(), id); oi >= 0 {
					g.setPlacement(id, oi)
					g.cfg.Logf("gateway: create for %s already landed on %s; answering duplicate", id, g.cfg.Replicas[oi])
					writeError(w, http.StatusConflict, "duplicate_session", "session id already exists")
					return
				}
			} else {
				// The caller never saw the gateway-generated id: retry under a
				// fresh one, so a maybe-processed create on the unreachable
				// replica cannot diverge with the retry. The orphan, if any,
				// is unroutable and idles out by TTL.
				id = newSessionID()
				r.Header.Set(SessionIDHeader, id)
			}
			g.mu.Lock()
			idx = g.ring.pickBounded(id,
				func(i int) int { return g.loads[i] },
				func(i int) bool { return !g.down[i] },
				g.cfg.LoadFactor)
			g.mu.Unlock()
			if idx < 0 {
				writeError(w, http.StatusServiceUnavailable, "no_replicas", "no replica is alive")
				return
			}
			continue
		}
		if resp.StatusCode == http.StatusCreated {
			g.setPlacement(id, idx)
		}
		relay(w, resp)
		return
	}
	writeError(w, http.StatusBadGateway, "routing_loop", "create exceeded retarget budget")
}

// probeSession asks the id's live ring candidates whether one already
// holds the session, returning its replica index or -1. Used before
// retargeting a caller-assigned create whose replica died mid-request: a
// 200 from a candidate proves the create landed and the retry must not run.
func (g *Gateway) probeSession(ctx context.Context, id string) int {
	for _, idx := range g.ring.candidates(id) {
		g.mu.Lock()
		dead := g.down[idx]
		g.mu.Unlock()
		if dead {
			continue
		}
		pctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		req, err := http.NewRequestWithContext(pctx, http.MethodGet, g.cfg.Replicas[idx]+"/v1/sessions/"+id, nil)
		if err != nil {
			cancel()
			continue
		}
		resp, err := g.cfg.HTTPClient.Do(req)
		cancel()
		if err != nil {
			continue
		}
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return idx
		}
	}
	return -1
}

// proxySession routes a request for an existing session: placed replica
// first, then the id's ring candidates. 307+Owner answers are followed,
// transport errors retarget, 404s probe the remaining candidates.
func (g *Gateway) proxySession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	body, ok := g.bufferBody(w, r)
	if !ok {
		return
	}

	// Candidate order: placement cache first, then ring order (skipping the
	// cached entry), so a stale placement degrades to the ring walk.
	var order []int
	if idx, ok := g.placed(id); ok {
		order = append(order, idx)
	}
	for _, c := range g.ring.candidates(id) {
		if len(order) > 0 && c == order[0] {
			continue
		}
		order = append(order, c)
	}

	hops := 0
	var lastNotFound *http.Response
	for _, idx := range order {
		g.mu.Lock()
		dead := g.down[idx]
		g.mu.Unlock()
		if dead {
			continue
		}
	retry:
		if hops >= maxHops {
			break
		}
		hops++
		resp, err := g.forward(r, g.cfg.Replicas[idx], body)
		if err != nil {
			g.setAlive(idx, false)
			obsGwRetargets.Inc()
			continue
		}
		switch {
		case resp.StatusCode == http.StatusTemporaryRedirect && resp.Header.Get(OwnerHeader) != "":
			// Forwarding tombstone on a drained replica: the session moved.
			owner := resp.Header.Get(OwnerHeader)
			_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12))
			resp.Body.Close()
			obsGwRetargets.Inc()
			if oi := g.replicaIndex(owner); oi >= 0 {
				g.cfg.Logf("gateway: session %s moved to %s", id, owner)
				g.setPlacement(id, oi)
				idx = oi
				goto retry
			}
			writeError(w, http.StatusBadGateway, "unknown_owner", "handoff owner "+owner+" is not a configured replica")
			return
		case resp.StatusCode == http.StatusNotFound:
			// Maybe a stale placement — probe the remaining candidates, but
			// keep one 404 to relay if nobody holds the session.
			if lastNotFound != nil {
				_, _ = io.Copy(io.Discard, io.LimitReader(lastNotFound.Body, 1<<12))
				lastNotFound.Body.Close()
			}
			lastNotFound = resp
			obsGwRetargets.Inc()
			continue
		default:
			if resp.StatusCode < 300 {
				if r.Method == http.MethodDelete {
					g.dropPlacement(id)
				} else {
					g.setPlacement(id, idx)
				}
			}
			if lastNotFound != nil {
				_, _ = io.Copy(io.Discard, io.LimitReader(lastNotFound.Body, 1<<12))
				lastNotFound.Body.Close()
			}
			relay(w, resp)
			return
		}
	}
	if lastNotFound != nil {
		g.dropPlacement(id)
		relay(w, lastNotFound)
		return
	}
	writeError(w, http.StatusServiceUnavailable, "no_replicas", "no replica could serve the session")
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	g.mu.Lock()
	alive := 0
	for _, d := range g.down {
		if !d {
			alive++
		}
	}
	placed := len(g.place)
	g.mu.Unlock()
	status, code := "ok", http.StatusOK
	if alive == 0 {
		status, code = "no_replicas", http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status":   status,
		"replicas": len(g.cfg.Replicas),
		"alive":    alive,
		"placed":   placed,
	})
}
