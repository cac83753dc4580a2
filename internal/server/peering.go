package server

// Cache peering and drain-time session handoff: the replica-to-replica
// half of the distributed serving tier.
//
// Peering: every replica knows the full replica list and the same
// consistent-hash ring, so for any partition-cache key all replicas agree
// on one owner. On a local cache miss the solving replica asks the owner
// (GET /internal/cache/{key}, binary frame) before cold-solving; the
// parallelism-invariance property guarantees the owner's entry for that
// key is byte-identical to what the local solve would produce, so adopting
// it is exactly as safe as a local cache hit. The lookup is bounded by a
// short PeerTimeout and every failure mode (miss, timeout, transport or
// decode error) degrades to the local cold solve — peering can only remove
// work, never add failures.
//
// Handoff: when a replica drains (SIGTERM), it serializes every live
// session — base hypergraph, fingerprint, epoch counter, last result —
// into a binary frame and POSTs it to the session's ring successor, which
// restores the session under the same id at the same epoch. The draining
// replica keeps a forwarding tombstone and answers subsequent requests for
// the session with 307 + X-Hyperbal-Owner, which both the gateway and the
// client follow. The successor choice (first ring candidate after self)
// matches where the gateway re-routes the session id once the replica is
// gone, so routing converges without coordination.

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"hyperbal/internal/core"
	"hyperbal/internal/hypergraph"
	"hyperbal/internal/partition"
)

// The two replica-to-replica messages, framed like every other message
// (wirebin.go).

// cacheResult is a peer-cache lookup answer: the cached repartition
// result for one cache key, enough for the asking replica to adopt it as
// if it had solved locally (parallelism invariance makes the adoption
// byte-identical). Provenance travels with the entry: the adopter
// republishes it into its own cache, and later responses report the
// owner's warm-start flag and solve time, not a zeroed one.
type cacheResult struct{ core.Result }

func (m cacheResult) validate() error { return check("partition", len(m.Partition.Parts), maxParts) }

// handoffState is one serialized session crossing replicas at drain time:
// everything a successor needs to continue the epoch sequence
// byte-identically — the effective config, the epoch counter, the last
// result (its partition is the current distribution), the latest migration
// summary, and the base hypergraph the next delta applies against (its
// fingerprint is recomputed during decode, so it cannot drift in transit).
type handoffState struct {
	ID     string
	Config WireConfig
	Epoch  int64
	Last   WireResult
	Mig    *MigrationSummary
	Base   hypergraph.Frame
}

func (m handoffState) validate() error {
	return errors.Join(check("session id", len(m.ID), 256), m.Config.validate(),
		check("partition", len(m.Last.Parts), maxParts), m.Mig.validate())
}

const (
	// OwnerHeader carries the base URL of the replica that now owns a
	// session, on 307 responses from the replica that handed it off.
	OwnerHeader = "X-Hyperbal-Owner"
	// SessionIDHeader lets a gateway pre-assign the session id on create so
	// routing (hash of the id) and storage agree on the same replica.
	SessionIDHeader = "X-Hyperbal-Session-ID"
)

// validSessionID accepts exactly the ids newSessionID generates:
// "s-" + 32 lowercase hex digits.
func validSessionID(id string) bool {
	if len(id) != 34 || id[0] != 's' || id[1] != '-' {
		return false
	}
	for i := 2; i < len(id); i++ {
		c := id[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// SetPeering configures (or reconfigures) this replica's place in the
// replica set: self is its externally reachable base URL, peers the full
// replica list (including self). Call before serving traffic; tests with
// httptest listeners call it right after binding.
func (s *Server) SetPeering(self string, peers []string) {
	s.peerMu.Lock()
	defer s.peerMu.Unlock()
	s.self = self
	if len(peers) == 0 {
		s.peerRing = nil
		return
	}
	s.peerRing = newRing(peers)
}

// peerTopology snapshots the ring and self URL.
func (s *Server) peerTopology() (string, *ring) {
	s.peerMu.RLock()
	defer s.peerMu.RUnlock()
	return s.self, s.peerRing
}

// cacheKeyOwner returns the peer that owns a cache key, or "" when this
// replica owns it (or peering is off).
func (s *Server) cacheKeyOwner(key string) string {
	self, r := s.peerTopology()
	if r == nil {
		return ""
	}
	owner := r.owner(key)
	if owner == "" || owner == self {
		return ""
	}
	return owner
}

// peerFetch asks the key's owner replica for its cached result. The lookup
// is bounded by PeerTimeout; every failure mode returns (_, false) and the
// caller cold-solves locally.
func (s *Server) peerFetch(ctx context.Context, key string) (core.Result, bool) {
	if s.cfg.PeerTimeout <= 0 {
		return core.Result{}, false
	}
	owner := s.cacheKeyOwner(key)
	if owner == "" {
		return core.Result{}, false
	}
	pctx, cancel := context.WithTimeout(ctx, s.cfg.PeerTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet,
		owner+"/internal/cache/"+hex.EncodeToString([]byte(key)), nil)
	if err != nil {
		obsPeerErrors.Inc()
		return core.Result{}, false
	}
	resp, err := s.peerHTTP.Do(req)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || pctx.Err() != nil {
			obsPeerTimeouts.Inc()
			s.cfg.Logf("server: peer cache lookup at %s timed out after %s; solving locally", owner, s.cfg.PeerTimeout)
		} else {
			obsPeerErrors.Inc()
		}
		return core.Result{}, false
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		obsPeerMisses.Inc()
		return core.Result{}, false
	default:
		obsPeerErrors.Inc()
		return core.Result{}, false
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		obsPeerErrors.Inc()
		return core.Result{}, false
	}
	var m cacheResult
	if err := decodeMsg(data, &m); err != nil {
		obsPeerErrors.Inc()
		return core.Result{}, false
	}
	obsPeerHits.Inc()
	return m.Result, true
}

// handlePeerCache serves GET /internal/cache/{key}: the peer side of
// peerFetch. Always binary (replicas speak the wire protocol natively),
// never admission-controlled (a lookup is a map read).
func (s *Server) handlePeerCache(w http.ResponseWriter, r *http.Request) {
	key, err := hex.DecodeString(r.PathValue("key"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "cache key must be hex")
		return
	}
	res, ok := s.cache.get(string(key))
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", "no cache entry")
		return
	}
	obsPeerServed.Inc()
	bp, buf := getWireBuf()
	buf = appendMsg(buf, cacheResult{res})
	w.Header().Set("Content-Type", ContentTypeBinary)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf)
	putWireBuf(bp, buf)
}

// handleHandoff serves POST /internal/handoff: adopt a session serialized
// by a draining peer. Rejected while this replica is itself draining (503)
// so the sender can try the next ring candidate instead of stranding the
// session on a dying process.
func (s *Server) handleHandoff(w http.ResponseWriter, r *http.Request) {
	if s.adm.isDraining() {
		writeError(w, http.StatusServiceUnavailable, "draining", "replica is draining; cannot adopt sessions")
		return
	}
	body, releaseBuf, ok := s.readBody(w, r)
	if !ok {
		return
	}
	var st handoffState
	err := decodeMsg(body, &st)
	releaseBuf()
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "handoff: "+err.Error())
		return
	}
	cfg, err := st.Config.ToCore()
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "handoff config: "+err.Error())
		return
	}
	bal, err := core.NewBalancer(cfg)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "handoff config: "+err.Error())
		return
	}
	res := core.Result{
		Partition:       partition.Partition{Parts: st.Last.Parts, K: st.Last.K},
		CommVolume:      st.Last.CommVolume,
		MigrationVolume: st.Last.MigrationVolume,
		Moved:           st.Last.Moved,
		RepartTime:      time.Duration(st.Last.RepartMs * 1e6),
		Warm:            st.Last.Warm,
	}
	entry := &session{
		id:      st.ID,
		cfg:     bal.Config(),
		sess:    core.NewSessionAt(bal, res, st.Epoch),
		baseH:   st.Base.H,
		baseFP:  st.Base.FP,
		lastMig: st.Mig,
	}
	s.clearHandoff(st.ID) // a session may return to a revived replica
	s.store.add(entry)
	obsHandoffReceived.Inc()
	s.cfg.Logf("server: adopted session %s at epoch %d via handoff (|V|=%d)",
		st.ID, st.Epoch, st.Base.H.NumVertices())
	w.WriteHeader(http.StatusNoContent)
}

// handoffAll serializes every live session to its ring successor. Called
// from Drain after in-flight epochs completed; admission is already
// rejecting new epoch work, so session state is quiescent.
func (s *Server) handoffAll(ctx context.Context) {
	self, r := s.peerTopology()
	if r == nil || len(r.urls) < 2 {
		return
	}
	sessions := s.store.snapshot()
	if len(sessions) == 0 {
		return
	}
	handed := 0
	for _, entry := range sessions {
		if s.handoffSession(ctx, entry, self, r) {
			handed++
		} else {
			obsHandoffFailed.Inc()
		}
	}
	s.cfg.Logf("server: drain handoff moved %d/%d sessions", handed, len(sessions))
}

// handoffSession offers one session to the ring candidates after self, in
// order, and tombstones it on success.
func (s *Server) handoffSession(ctx context.Context, entry *session, self string, r *ring) bool {
	entry.mu.Lock()
	last := entry.sess.LastResult()
	st := handoffState{
		ID:     entry.id,
		Config: WireConfigFrom(entry.cfg),
		Epoch:  entry.sess.Epoch(),
		Last:   wireResult(entry.sess.Epoch(), last, false, true),
		Mig:    entry.lastMig,
		Base:   hypergraph.Frame{H: entry.baseH, FP: entry.baseFP},
	}
	entry.mu.Unlock()
	if st.Base.H == nil {
		// A session created but never submitted to still has no base; its
		// initial hypergraph is the base recorded at create time, so this
		// only happens for the zero value. Nothing to hand off.
		return false
	}
	frame := appendMsg(nil, st)
	for _, cand := range r.candidates(entry.id) {
		url := r.urls[cand]
		if url == self {
			continue
		}
		if s.postHandoff(ctx, url, frame) {
			s.store.remove(entry.id)
			s.recordHandoff(entry.id, url)
			obsHandoffSent.Inc()
			s.cfg.Logf("server: handed session %s (epoch %d) to %s", entry.id, st.Epoch, url)
			return true
		}
	}
	return false
}

func (s *Server) postHandoff(ctx context.Context, url string, frame []byte) bool {
	timeout := s.cfg.HandoffTimeout
	hctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(hctx, http.MethodPost, url+"/internal/handoff", bytes.NewReader(frame))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", ContentTypeBinary)
	resp, err := s.peerHTTP.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	return resp.StatusCode == http.StatusNoContent
}

// recordHandoff remembers where a session went so later requests can be
// pointed at the new owner (307 + X-Hyperbal-Owner).
func (s *Server) recordHandoff(id, url string) {
	s.handedMu.Lock()
	if s.handed == nil {
		s.handed = make(map[string]string)
	}
	s.handed[id] = url
	s.handedMu.Unlock()
}

func (s *Server) clearHandoff(id string) {
	s.handedMu.Lock()
	delete(s.handed, id)
	s.handedMu.Unlock()
}

// handoffOwner returns the post-handoff owner of a session, "" if never
// handed off.
func (s *Server) handoffOwner(id string) string {
	s.handedMu.Lock()
	defer s.handedMu.Unlock()
	return s.handed[id]
}

// sessionGone answers a request for a session this replica does not hold:
// 307 + X-Hyperbal-Owner when it was handed off (the caller re-issues the
// request there — 307 preserves the method and body semantics), plain 404
// otherwise.
func (s *Server) sessionGone(w http.ResponseWriter, id string) {
	if owner := s.handoffOwner(id); owner != "" {
		obsOwnerRedirects.Inc()
		w.Header().Set(OwnerHeader, owner)
		writeJSON(w, http.StatusTemporaryRedirect, ErrorResponse{
			Error: fmt.Sprintf("session %s was handed off to %s", id, owner),
			Code:  "moved",
		})
		return
	}
	writeError(w, http.StatusNotFound, "not_found", "unknown session")
}
