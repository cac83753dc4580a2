// Package server is the balancerd serving tier: a stdlib-only HTTP
// service that runs the epoch lifecycle of many load-balancing sessions as
// a long-running daemon. It multiplexes sessions over a bounded worker
// pool (admission control with queueing and backpressure), serializes
// epoch submissions per session, and evicts idle sessions by TTL.
//
// A served epoch is one keyed solve. The repartition at epoch j depends
// only on the epoch's hypergraph, the inherited distribution, the
// configuration and the epoch number, so each handler computes its cache
// key, asks the result memo (memo.go) for that key — a kept result, a
// concurrent leader's result, or its own core.Balancer call — and then
// installs the result into the session the same way whatever its origin.
//
// Endpoints:
//
//	POST   /v1/sessions                create a session (config + hypergraph)
//	GET    /v1/sessions/{id}           session info
//	POST   /v1/sessions/{id}/epochs    submit an epoch (drifted hypergraph)
//	PATCH  /v1/sessions/{id}/epochs    submit an epoch as a delta against the last
//	GET    /v1/sessions/{id}/partition current partition + last migration plan
//	DELETE /v1/sessions/{id}           close a session
//	GET    /healthz                    liveness + drain state
//	GET    /metrics, /metrics.json     the internal/obs registry
//	POST   /internal/handoff           replica-to-replica: adopt a drained session
//
// POST and PATCH epochs differ only in how the epoch's hypergraph reaches
// the server; once decoded, both run the one pipeline in serveEpoch.
// Request bodies are binary frames (wirebin.go); responses are negotiated
// by Accept, binary or JSON, and errors are JSON.
//
// Backpressure contract: when the queue is full the server answers 429
// (code "busy"); during drain it answers 503 (code "draining"). Both are
// rejected before any session state changes, so clients retry them safely.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hyperbal/internal/core"
	"hyperbal/internal/hypergraph"
	"hyperbal/internal/migrate"
	"hyperbal/internal/mpi"
	"hyperbal/internal/obs"
	"hyperbal/internal/partition"
)

// Config parameterizes a Server.
type Config struct {
	// Workers bounds concurrently running partitioning jobs
	// (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds jobs waiting for a worker beyond the running ones;
	// submissions past workers+queue get 429 (default 256; negative = 0).
	QueueDepth int
	// SessionTTL evicts sessions idle longer than this (default 15m;
	// negative disables eviction).
	SessionTTL time.Duration
	// CacheEntries bounds the solved results the result memo keeps
	// (default 4096; negative keeps none, though concurrent identical
	// solves still coalesce).
	CacheEntries int
	// MaxBodyBytes bounds request bodies (default 64 MiB).
	MaxBodyBytes int64
	// Fault, when non-nil with a positive MaxDelay, injects a seeded
	// pseudorandom delay in [0, MaxDelay) into every partitioning job —
	// the mpi.FaultPlan knob reused at the serving tier to exercise client
	// timeout/retry paths deterministically. The delay is a function of
	// Seed and the job's index among this Server's jobs, so other servers
	// in the process cannot shift the schedule. Other FaultPlan fields are
	// message-level and ignored here. Tests set it; balancerd has no flag
	// for it.
	Fault *mpi.FaultPlan

	// Self is this replica's externally reachable base URL; Peers is the
	// full replica list (including Self). When both are set the replica
	// hands its sessions to a ring successor when it drains (see
	// handoff.go). Tests that only learn their URL after binding can leave
	// these empty and call SetPeering instead.
	Self  string
	Peers []string

	// Logf, when non-nil, receives one line per notable server event.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 256
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.SessionTTL == 0 {
		c.SessionTTL = 15 * time.Minute
	}
	if c.SessionTTL < 0 {
		c.SessionTTL = 0
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 4096
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Server is the balancerd serving core, independent of the listener: New
// builds it, Handler returns the routed mux, Drain implements graceful
// shutdown, Close releases background resources.
type Server struct {
	cfg   Config
	store *store
	adm   *admission
	memo  *resultMemo
	mux   *http.ServeMux
	// faultJobs numbers this server's partitioning jobs for Config.Fault.
	faultJobs atomic.Int64

	// Replica-set state (handoff.go): the consistent-hash ring over the
	// replica URLs, this replica's own URL, the HTTP client used for
	// handoffs, and the post-handoff forwarding tombstones.
	peerMu   sync.RWMutex
	self     string
	peerRing *ring
	peerHTTP *http.Client
	handedMu sync.Mutex
	handed   map[string]string
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		store:    newStore(cfg.SessionTTL),
		adm:      newAdmission(cfg.Workers, cfg.QueueDepth),
		memo:     newResultMemo(cfg.CacheEntries),
		peerHTTP: &http.Client{},
	}
	if cfg.Self != "" && len(cfg.Peers) > 0 {
		s.SetPeering(cfg.Self, cfg.Peers)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", s.route("create", s.handleCreate))
	mux.HandleFunc("GET /v1/sessions/{id}", s.route("info", s.handleInfo))
	mux.HandleFunc("POST /v1/sessions/{id}/epochs", s.route("epoch", s.handleEpoch))
	mux.HandleFunc("PATCH /v1/sessions/{id}/epochs", s.route("delta", s.handleDeltaEpoch))
	mux.HandleFunc("GET /v1/sessions/{id}/partition", s.route("partition", s.handlePartition))
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.route("delete", s.handleDelete))
	mux.HandleFunc("GET /healthz", s.route("healthz", s.handleHealthz))
	mux.HandleFunc("POST /internal/handoff", s.route("handoff", s.handleHandoff))
	mux.Handle("GET /metrics", obs.Handler(obs.Default()))
	mux.HandleFunc("GET /metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = obs.Default().WriteJSON(w)
	})
	s.mux = mux
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain stops admitting new partitioning work (subsequent submissions get
// 503) and waits, bounded by ctx, for every in-flight and queued epoch to
// complete; in a replica set (Self and Peers, or SetPeering) it then
// hands every live session to its ring successor so a rolling restart
// loses no session state. Read endpoints keep serving (handed-off sessions
// answer 307 + X-Hyperbal-Owner); call the http.Server's Shutdown after
// Drain to close the listener.
func (s *Server) Drain(ctx context.Context) error {
	s.cfg.Logf("server: draining (completing in-flight epochs)")
	err := s.adm.drain(ctx)
	if err != nil {
		s.cfg.Logf("server: drain incomplete: %v", err)
	} else {
		s.cfg.Logf("server: drained")
	}
	s.handoffAll(ctx)
	return err
}

// Close stops background goroutines (the TTL janitor). The handler stays
// functional for reads.
func (s *Server) Close() { s.store.close() }

// route wraps a handler with the per-route latency observation.
func (s *Server) route(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer obsRequestNs.With(name).ObserveSince(time.Now())
		h(w, r)
	}
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError maps an error to the wire.
func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, ErrorResponse{Error: msg, Code: code})
}

// admit runs the admission controller against the request, writing the
// backpressure response on rejection.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	release, err := s.adm.acquire(r.Context())
	switch {
	case err == nil:
		return release, true
	case errors.Is(err, errDraining):
		writeError(w, http.StatusServiceUnavailable, "draining", "server is draining; not accepting new epochs")
	case errors.Is(err, errBusy):
		writeError(w, http.StatusTooManyRequests, "busy", "worker queue is full; retry with backoff")
	default: // client went away while queued
		writeError(w, 499, "canceled", err.Error())
	}
	return nil, false
}

// faultDelay applies the configured seeded delay to one partitioning job.
func (s *Server) faultDelay() {
	if d, ok := s.nextFaultDelay(); ok {
		time.Sleep(d)
	}
}

// nextFaultDelay draws the seeded delay of this server's next partitioning
// job; ok is false when no delay is configured.
func (s *Server) nextFaultDelay() (d time.Duration, ok bool) {
	f := s.cfg.Fault
	if f == nil || f.MaxDelay <= 0 {
		return 0, false
	}
	job := s.faultJobs.Add(1)
	rng := rand.New(rand.NewSource(f.Seed ^ (job * 0x5851F42D4C957F2D)))
	return time.Duration(rng.Int63n(int64(f.MaxDelay))), true
}

// Pooled wire buffers: one pool serves both request-body reads and
// response encodes. Buffers past the cap are dropped rather than pooled so
// a single giant body cannot pin memory for the life of the process.
var wireBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 64<<10)
		return &b
	},
}

const maxPooledWireBuf = 4 << 20

func getWireBuf() (*[]byte, []byte) {
	bp := wireBufPool.Get().(*[]byte)
	return bp, (*bp)[:0]
}

func putWireBuf(bp *[]byte, buf []byte) {
	if cap(buf) <= maxPooledWireBuf {
		*bp = buf[:0]
		wireBufPool.Put(bp)
	}
}

// readBody slurps the request body into a pooled buffer. On success the
// caller must invoke release once it is done with the returned bytes —
// decoded hypergraphs never alias them, so release right after decoding.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) (body []byte, release func(), ok bool) {
	bp, buf := getWireBuf()
	lr := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := lr.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			putWireBuf(bp, buf)
			writeError(w, http.StatusBadRequest, "bad_request", "invalid request body: "+err.Error())
			return nil, nil, false
		}
	}
	return buf, func() { putWireBuf(bp, buf) }, true
}

// isBinaryRequest reports whether the request body uses the binary wire
// protocol (Content-Type: application/x-hyperbal).
func isBinaryRequest(r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	return ct == ContentTypeBinary || strings.HasPrefix(ct, ContentTypeBinary+";")
}

// wantsBinary reports whether the client asked for binary responses
// (Accept lists application/x-hyperbal).
func wantsBinary(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), ContentTypeBinary)
}

// writeNegotiated writes the success response in the codec the client
// asked for: binEnc appends the binary rendering when Accept negotiates
// application/x-hyperbal, otherwise jsonBody is marshaled. Both render
// into a pooled buffer so the encode path allocates nothing per request
// beyond what encoding/json itself needs.
func writeNegotiated(w http.ResponseWriter, r *http.Request, status int, jsonBody any, binEnc func([]byte) []byte) {
	bp, buf := getWireBuf()
	if wantsBinary(r) {
		start := time.Now()
		buf = binEnc(buf)
		obsCodecNs.With("binary_encode").ObserveSince(start)
		obsWireTxBytes.With("binary").Add(int64(len(buf)))
		w.Header().Set("Content-Type", ContentTypeBinary)
	} else {
		start := time.Now()
		data, err := json.Marshal(jsonBody)
		if err != nil {
			putWireBuf(bp, buf)
			writeError(w, http.StatusInternalServerError, "internal", err.Error())
			return
		}
		buf = append(buf, data...)
		buf = append(buf, '\n')
		obsCodecNs.With("json_encode").ObserveSince(start)
		obsWireTxBytes.With("json").Add(int64(len(buf)))
		w.Header().Set("Content-Type", "application/json")
	}
	w.WriteHeader(status)
	_, _ = w.Write(buf)
	putWireBuf(bp, buf)
}

// writeSessionResponse answers a create or an epoch submission.
func writeSessionResponse(w http.ResponseWriter, r *http.Request, status int, id string, res WireResult) {
	resp := SessionResponse{SessionID: id, Result: res}
	writeNegotiated(w, r, status, resp, func(buf []byte) []byte { return appendMsg(buf, resp) })
}

// decodeBody reads the binary request body into a pooled buffer, decodes
// it into m (a message pointer) and releases the buffer. It counts the
// body in server_wire_rx_bytes_total, times the decode in
// server_codec_ns, and answers itself when the body is refused: 415 for
// any Content-Type but application/x-hyperbal (before the body is read),
// 400 when it does not decode.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, m message) bool {
	if !isBinaryRequest(r) {
		writeError(w, http.StatusUnsupportedMediaType, "unsupported_media_type",
			"request bodies must be "+ContentTypeBinary)
		return false
	}
	body, release, ok := s.readBody(w, r)
	if !ok {
		return false
	}
	defer release()
	obsWireRxBytes.With("binary").Add(int64(len(body)))
	start := time.Now()
	err := decodeMsg(body, m)
	obsCodecNs.With("binary_decode").ObserveSince(start)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "binary: "+err.Error())
		return false
	}
	return true
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req createRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	cfg, err := req.Config.ToCore()
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	bal, err := core.NewBalancer(cfg)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}

	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()

	// A gateway pre-assigns the session id (X-Hyperbal-Session-ID) so the
	// id it hashes for routing is the id the replica stores; direct clients
	// leave the header empty and get a server-generated id.
	id := r.Header.Get(SessionIDHeader)
	switch {
	case id == "":
		id = newSessionID()
	case !validSessionID(id):
		writeError(w, http.StatusBadRequest, "bad_request", "invalid "+SessionIDHeader+" (want s-<32 hex>)")
		return
	case s.store.get(id) != nil:
		writeError(w, http.StatusConflict, "duplicate_session", "session id already exists")
		return
	}

	eff := bal.Config()
	key := cacheKey(eff, 0, req.Graph.FP, partition.Partition{}, "")
	res, cached, err := s.memo.do(r.Context(), key, func() (core.Result, error) {
		s.faultDelay()
		return bal.Partition(core.Problem{H: req.Graph.H})
	})
	if err != nil {
		writeError(w, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	// Every origin takes the same construction path, so a session built
	// from a cached, shared or freshly solved result is byte-identical.
	entry := &session{id: id, bal: bal, last: res, total: res.TotalCost(eff.Alpha), base: req.Graph}
	s.clearHandoff(id)
	// The pre-solve duplicate check is only a cheap fast path; the insert
	// itself must be atomic or two concurrent creates with the same
	// pre-assigned id both pass it and the loser silently overwrites.
	if !s.store.addIfAbsent(entry) {
		writeError(w, http.StatusConflict, "duplicate_session", "session id already exists")
		return
	}
	s.cfg.Logf("server: session %s created (k=%d method=%s |V|=%d cached=%v)",
		entry.id, eff.K, eff.Method, req.Graph.H.NumVertices(), cached)
	writeSessionResponse(w, r, http.StatusCreated, entry.id, wireResult(0, res, cached))
}

// submission is one decoded epoch submission, the same whatever route
// carried it. The epoch's hypergraph arrives whole on POST (Graph, with
// the fingerprint computed during decode) or as Delta against the
// session's last accepted hypergraph on PATCH; exactly one of the two is
// set. Only the PATCH wire has Warm.
type submission struct {
	Graph     hypergraph.Frame
	Delta     *hypergraph.Delta
	Inherited []int32
	Epoch     int64
	Warm      bool
}

// handleEpoch is the full epoch submission: the body carries the epoch's
// drifted hypergraph.
func (s *Server) handleEpoch(w http.ResponseWriter, r *http.Request) {
	s.serveEpoch(w, r, new(epochRequest))
}

// handleDeltaEpoch is the PATCH-style epoch submission: the epoch's
// hypergraph arrives as a delta against the session's last accepted
// hypergraph, keyed by base fingerprint.
func (s *Server) handleDeltaEpoch(w http.ResponseWriter, r *http.Request) {
	s.serveEpoch(w, r, new(deltaRequest))
}

// serveEpoch is the one epoch pipeline behind both submission routes, which
// differ only in the request they decode. The stages run in this order:
// decode, admit, session lock, epoch-conflict check, materialise the
// hypergraph, settle the inherited assignment, solve through the result
// memo, install, respond.
func (s *Server) serveEpoch(w http.ResponseWriter, r *http.Request, req submitter) {
	entry, releaseSess := s.store.acquire(r.PathValue("id"))
	if entry == nil {
		s.sessionGone(w, r.PathValue("id"))
		return
	}
	defer releaseSess()
	if !s.decodeBody(w, r, req) {
		return
	}
	sub := req.submission()

	// Admission before the session lock: 429 and 503 are answered before
	// any session state changes, so clients retry them safely.
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()

	// Per-session serialization: one epoch at a time per session, while
	// other sessions proceed on other workers.
	entry.mu.Lock()
	defer entry.mu.Unlock()

	bal, epoch := entry.bal, entry.epoch
	if sub.Epoch > 0 && sub.Epoch != epoch+1 {
		conflict := ErrorResponse{
			Error: fmt.Sprintf("expected epoch %d, session is at %d", sub.Epoch, epoch),
			Code:  "epoch_conflict",
			Epoch: epoch,
		}
		if sub.Delta != nil {
			conflict.Base = entry.base.FP
		}
		writeJSON(w, http.StatusConflict, conflict)
		return
	}

	h, fp := sub.Graph.H, sub.Graph.FP
	if d := sub.Delta; d != nil {
		// A base mismatch (the session advanced since the client computed
		// the delta, or the server lost the base) carries the current base:
		// the client's hard signal to fall back to a full epoch submission.
		if entry.base.H == nil || d.Base != entry.base.FP {
			writeJSON(w, http.StatusConflict, ErrorResponse{
				Error: fmt.Sprintf("delta base %s does not match session base %s; resubmit a full epoch", d.Base, entry.base.FP),
				Code:  "fingerprint_mismatch",
				Epoch: epoch,
				Base:  entry.base.FP,
			})
			return
		}
		var err error
		if h, err = d.ApplyFrame(entry.base); err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", "delta: "+err.Error())
			return
		}
		fp = h.Fingerprint()
	}

	old := entry.last.Partition
	structural := h.NumVertices() != len(old.Parts)
	inherited := old
	switch {
	case len(sub.Inherited) > 0:
		inherited = partition.Partition{Parts: sub.Inherited, K: bal.Config().K}
		if err := checkInherited(inherited, h.NumVertices()); err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", err.Error())
			return
		}
	case structural && sub.Delta != nil:
		// Derive the inherited assignment from the delta's vertex map:
		// mapped vertices keep their parts; new vertices go to the
		// currently lightest part (deterministic: ties break low).
		inherited = deriveInherited(h, old, sub.Delta, bal.Config().K)
	case structural:
		writeError(w, http.StatusBadRequest, "bad_request", fmt.Sprintf(
			"vertex set changed (%d -> %d); submit `inherited` with one part per new vertex",
			len(old.Parts), h.NumVertices()))
		return
	}

	var dirty []bool
	warmKey := ""
	solveNs := obsEpochColdNs
	if sub.Warm {
		dirty = sub.Delta.DirtyVertices(entry.base.H, h)
		warmKey = "warm:" + sub.Delta.Digest()
		solveNs = obsEpochWarmNs
	}

	// The solve reads only what the key pins, so any caller with the same
	// key computes the same result; it leaves the session alone.
	next := epoch + 1
	key := cacheKey(bal.Config(), next, fp, inherited, warmKey)
	res, cached, err := s.memo.do(r.Context(), key, func() (core.Result, error) {
		s.faultDelay()
		start := time.Now()
		var res core.Result
		var err error
		if sub.Warm {
			res, err = bal.RepartitionWarm(core.Problem{H: h}, inherited, next, dirty)
		} else {
			res, err = bal.Repartition(core.Problem{H: h}, inherited, next)
		}
		if err == nil {
			solveNs.ObserveSince(start)
		}
		return res, err
	})
	if err != nil {
		writeError(w, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	if sub.Delta != nil {
		obsDeltaEpochs.Inc()
	}
	entry.install(res, hypergraph.Frame{H: h, FP: fp}, migrationSummary(h, inherited, res.Partition))
	writeSessionResponse(w, r, http.StatusOK, entry.id, wireResult(entry.epoch, res, cached))
}

// checkInherited validates a submitted inherited assignment: one part in
// [0, k) for each of the epoch hypergraph's n vertices.
func checkInherited(inherited partition.Partition, n int) error {
	if len(inherited.Parts) != n {
		return fmt.Errorf("inherited covers %d vertices, the epoch's hypergraph has %d", len(inherited.Parts), n)
	}
	if err := inherited.Validate(); err != nil {
		return fmt.Errorf("inherited: %w", err)
	}
	return nil
}

// deriveInherited maps the previous distribution through a structural
// delta: vertices the delta carried over keep their parts; brand-new
// vertices are assigned greedily to the lightest part in vertex order.
func deriveInherited(h *hypergraph.Hypergraph, old partition.Partition, d *hypergraph.Delta, k int) partition.Partition {
	n := h.NumVertices()
	parts := make([]int32, n)
	w := make([]int64, k)
	var news []int
	for v := 0; v < n; v++ {
		b := int32(v)
		if d.VertexMap != nil {
			b = d.VertexMap[v]
		}
		if b >= 0 && int(b) < len(old.Parts) {
			parts[v] = old.Parts[b]
			w[parts[v]] += h.Weight(v)
		} else {
			news = append(news, v)
		}
	}
	for _, v := range news {
		best := 0
		for p := 1; p < k; p++ {
			if w[p] < w[best] {
				best = p
			}
		}
		parts[v] = int32(best)
		w[best] += h.Weight(v)
	}
	return partition.Partition{Parts: parts, K: k}
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	entry, releaseSess := s.store.acquire(r.PathValue("id"))
	if entry == nil {
		s.sessionGone(w, r.PathValue("id"))
		return
	}
	defer releaseSess()
	entry.mu.Lock()
	defer entry.mu.Unlock()
	info := SessionInfo{
		SessionID: entry.id,
		Config:    WireConfigFrom(entry.bal.Config()),
		Epoch:     entry.epoch,
		TotalCost: entry.total,
		Last:      wireResult(entry.epoch, entry.last, false),
	}
	writeNegotiated(w, r, http.StatusOK, info, func(buf []byte) []byte { return appendMsg(buf, info) })
}

func (s *Server) handlePartition(w http.ResponseWriter, r *http.Request) {
	entry, releaseSess := s.store.acquire(r.PathValue("id"))
	if entry == nil {
		s.sessionGone(w, r.PathValue("id"))
		return
	}
	defer releaseSess()
	entry.mu.Lock()
	defer entry.mu.Unlock()
	cur := entry.last.Partition
	resp := PartitionResponse{
		SessionID: entry.id,
		Epoch:     entry.epoch,
		K:         cur.K,
		Parts:     cur.Parts,
		Migration: entry.lastMig,
	}
	writeNegotiated(w, r, http.StatusOK, resp, func(buf []byte) []byte { return appendMsg(buf, resp) })
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if s.store.remove(r.PathValue("id")) {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	s.sessionGone(w, r.PathValue("id"))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.adm.isDraining() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{"status": status, "sessions": s.store.len()})
}

// wireResult renders a core.Result. Warm comes from the result itself: a
// cold solve never sets it, and the cache key's "warm:" component keeps a
// cold submission from sharing a warm entry.
func wireResult(epoch int64, res core.Result, cached bool) WireResult {
	return WireResult{
		Epoch:           epoch,
		K:               res.Partition.K,
		Parts:           res.Partition.Parts,
		CommVolume:      res.CommVolume,
		MigrationVolume: res.MigrationVolume,
		Moved:           res.Moved,
		RepartMs:        float64(res.RepartTime.Microseconds()) / 1000,
		Cached:          cached,
		Warm:            res.Warm,
	}
}

// migrationSummary condenses the migration plan from old to new under h
// (nil when the plan cannot be built, e.g. mismatched K — not reachable
// through the handlers).
func migrationSummary(h *hypergraph.Hypergraph, old, new partition.Partition) *MigrationSummary {
	plan, err := migrate.NewPlan(h, old, new)
	if err != nil {
		return nil
	}
	return &MigrationSummary{
		Moves:       len(plan.Moves),
		TotalVolume: plan.TotalVolume(),
		MaxOutbound: plan.MaxOutbound(),
		MaxInbound:  plan.MaxInbound(),
		Volume:      plan.Volume,
	}
}
