package server

// Drain-time session handoff: the replica-to-replica half of the
// distributed serving tier.
//
// Every replica knows the full replica list and the same consistent-hash
// ring. When a replica drains (SIGTERM), it serializes every live session
// — base hypergraph, fingerprint and core.Account (epoch counter, last
// result, running cost) — into a binary frame and POSTs it to the
// session's ring successor, which restores the session under the same id
// at the same epoch. The draining replica keeps no trace of it: a later
// request for the session answers 404 there like any unknown id, and the
// gateway's walk of the id's ring candidates moves on to the next. The
// successor choice (first accepting ring candidate after self) is where
// that walk arrives, so routing converges without coordination.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"time"

	"hyperbal/internal/core"
	"hyperbal/internal/hypergraph"
)

// handoffState is one serialized session crossing replicas at drain time:
// everything a successor needs to continue the epoch sequence
// byte-identically — the effective config, the session's core.Account as
// it stands (epoch counter, last result, running cost), the latest
// migration summary, and the base hypergraph the next delta applies
// against, as its frame (the receiver hashes the bytes it got, so the
// base's id cannot drift in transit, and builds them at adoption, so a
// base that does not build is refused there). The receiver copies the
// account in; nothing else is rebuilt.
type handoffState struct {
	ID      string
	Config  WireConfig
	Account core.Account
	Mig     *MigrationSummary
	Base    hypergraph.Frame
}

func (m handoffState) validate() error {
	return errors.Join(check("session id", len(m.ID), 256), m.Config.validate(),
		check("partition", len(m.Account.Last.Partition.Parts), maxParts), m.Mig.validate())
}

const (
	// SessionIDHeader lets a gateway pre-assign the session id on create so
	// routing (hash of the id) and storage agree on the same replica.
	SessionIDHeader = "X-Hyperbal-Session-ID"
	// handoffTimeout bounds one drain-time session handoff POST.
	handoffTimeout = 5 * time.Second
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
	if _, err := st.Base.Build(); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "handoff base: "+err.Error())
		return
	}
	entry := &session{id: st.ID, bal: bal, Account: st.Account, base: st.Base, lastMig: st.Mig}
	s.store.add(entry)
	s.cfg.Logf("server: adopted session %s at epoch %d via handoff (|V|=%d)",
		st.ID, st.Account.Epoch, st.Base.H.NumVertices())
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
		}
	}
	s.cfg.Logf("server: drain handoff moved %d/%d sessions", handed, len(sessions))
}

// handoffSession offers one session to the ring candidates after self, in
// order, and drops it from the store on success. A session deleted since
// the snapshot stays deleted: handleDelete removes it under entry.mu, and
// refuses once the drain has begun, so the check below sees every
// DELETE that answered 204.
func (s *Server) handoffSession(ctx context.Context, entry *session, self string, r *ring) bool {
	entry.mu.Lock()
	if !s.store.holds(entry) {
		entry.mu.Unlock()
		return false
	}
	st := handoffState{
		ID:      entry.id,
		Config:  WireConfigFrom(entry.bal.Config()),
		Account: entry.Account,
		Mig:     entry.lastMig,
		Base:    entry.base,
	}
	entry.mu.Unlock()
	if st.Base.FP == "" {
		return false // every created session has a base; the zero value has nothing to hand off
	}
	frame := appendMsg(nil, st)
	for _, cand := range r.candidates(entry.id) {
		url := r.urls[cand]
		if url == self {
			continue
		}
		if s.postHandoff(ctx, url, frame) {
			s.store.remove(entry)
			obsHandoffSent.Inc()
			s.cfg.Logf("server: handed session %s (epoch %d) to %s", entry.id, st.Account.Epoch, url)
			return true
		}
	}
	return false
}

func (s *Server) postHandoff(ctx context.Context, url string, frame []byte) bool {
	hctx, cancel := context.WithTimeout(ctx, handoffTimeout)
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
