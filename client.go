package hyperbal

// The balancerd client: a thin, retrying HTTP client for the serving tier
// (cmd/balancerd, internal/server). It lives in the public façade so
// applications consume the service without importing internal packages:
//
//	c := hyperbal.NewClient("http://localhost:8080", hyperbal.ClientOptions{})
//	sess, first, _ := c.CreateSession(ctx, hyperbal.BalancerConfig{K: 8, Alpha: 100}, h)
//	// ... application epoch drifts the hypergraph to h2 ...
//	next, _ := sess.SubmitEpoch(ctx, h2)
//
// Retry semantics: transport errors, 429 (queue full) and 503 (draining /
// unavailable) are retried with exponential backoff — the server rejects
// those before touching session state, so the retry is safe. A retried
// epoch submission that actually landed (response lost in transit) is
// reconciled through the server's epoch-conflict check: the client tags
// every submission with its expected epoch number, and on 409 fetches the
// session to recover the already-applied result instead of re-submitting.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"time"

	"hyperbal/internal/hypergraph"
	"hyperbal/internal/obs"
	"hyperbal/internal/server"
)

// Client-side metrics, reported through the same obs registry as the rest
// of the pipeline.
var (
	obsClientRequests = obs.Default().CounterVec("client_requests_total", "op")
	obsClientRetries  = obs.Default().Counter("client_retries_total")
	obsClientErrors   = obs.Default().Counter("client_errors_total")
	// 307 + X-Hyperbal-Owner answers followed to a session's new replica
	// (the serving tier handed the session off during a drain).
	obsClientOwnerHops = obs.Default().Counter("client_owner_redirects_total")
	// Request-body bytes per operation: the "epoch" vs "delta" split is the
	// wire-savings measurement the delta-drift benchmark reports.
	obsClientBytesSent = obs.Default().CounterVec("client_bytes_sent_total", "op")
	// Delta submissions that fell back to a full epoch (409
	// fingerprint_mismatch, or a transition the delta computation refused).
	obsClientDeltaFallbacks = obs.Default().Counter("client_delta_fallbacks_total")
)

// ClientOptions tune the balancerd client's timeout/retry/backoff policy.
// The zero value gives sane defaults.
type ClientOptions struct {
	// RequestTimeout bounds each attempt (default 120s — an epoch
	// submission includes queueing and partitioning time).
	RequestTimeout time.Duration
	// MaxRetries bounds retries after the first attempt (default 5).
	MaxRetries int
	// Backoff is the initial retry delay, doubled per retry (default 50ms).
	Backoff time.Duration
	// MaxBackoff caps the delay growth (default 2s).
	MaxBackoff time.Duration
	// HTTPClient overrides the transport (default: a dedicated
	// http.Client; its Timeout is left to RequestTimeout contexts).
	HTTPClient *http.Client
	// Wire is ignored. The client always speaks the varint-packed
	// application/x-hyperbal protocol, the only request codec balancerd
	// accepts; the field remains so existing callers still compile.
	Wire string
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 120 * time.Second
	}
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	} else if o.MaxRetries == 0 {
		o.MaxRetries = 5
	}
	if o.Backoff <= 0 {
		o.Backoff = 50 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 2 * time.Second
	}
	if o.HTTPClient == nil {
		o.HTTPClient = &http.Client{}
	}
	return o
}

// Client talks to a balancerd instance.
type Client struct {
	base string
	opt  ClientOptions
}

// NewClient returns a client for the balancerd at baseURL
// (e.g. "http://127.0.0.1:8080").
func NewClient(baseURL string, opt ClientOptions) *Client {
	return &Client{base: strings.TrimRight(baseURL, "/"), opt: opt.withDefaults()}
}

// RemoteResult is one load-balance operation performed by the server.
type RemoteResult struct {
	Partition       Partition
	CommVolume      int64
	MigrationVolume int64
	Moved           int
	Epoch           int64
	RepartMs        float64
	// Cached reports the server answered from its repartition cache.
	Cached bool
	// Rebalanced is false when an only-if-unbalanced submission was
	// skipped because the drift was within threshold.
	Rebalanced bool
	// Warm reports the server warm-started the partitioner from the
	// previous distribution (delta epochs submitted with warm=true).
	Warm bool
}

func remoteResult(r server.WireResult) RemoteResult {
	return RemoteResult{
		Partition:       Partition{Parts: r.Parts, K: r.K},
		CommVolume:      r.CommVolume,
		MigrationVolume: r.MigrationVolume,
		Moved:           r.Moved,
		Epoch:           r.Epoch,
		RepartMs:        r.RepartMs,
		Cached:          r.Cached,
		Rebalanced:      r.Rebalanced,
		Warm:            r.Warm,
	}
}

// RemoteMigration is the wire summary of the latest epoch's migration plan.
type RemoteMigration = server.MigrationSummary

// APIError is a non-2xx answer from the server after retries.
type APIError struct {
	Status int
	Code   string
	Msg    string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("balancerd: HTTP %d (%s): %s", e.Status, e.Code, e.Msg)
}

// retryable reports whether a status is safe and useful to retry: the
// server rejects 429/503 before touching state, and 502/504 come from
// intermediaries.
func retryable(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable,
		http.StatusBadGateway, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// backoffDelay computes the full-jitter retry delay for an attempt:
// uniform in [0, min(base<<attempt, max)). u is the uniform [0,1) sample
// (injected so tests can pin it). Full jitter keeps the cap's protection
// while decorrelating clients: with the old deterministic doubling, every
// client rejected by the same 429/503 burst retried on the same schedule
// and re-collided each round.
func backoffDelay(attempt int, base, max time.Duration, u float64) time.Duration {
	ceil := base
	for i := 0; i < attempt && ceil < max; i++ {
		ceil *= 2
	}
	if ceil > max {
		ceil = max
	}
	d := time.Duration(u * float64(ceil))
	if d < time.Millisecond {
		d = time.Millisecond // never busy-spin, even for tiny u
	}
	return d
}

// do performs one API call with the retry/backoff policy. body is a
// pre-rendered binary request frame (nil for GET/DELETE); a nil out skips
// decoding. owner, when non-nil, is the session's redirect override:
// 307 + X-Hyperbal-Owner answers update it and the call is re-issued at
// the new owner; a transport error at an owner falls back to the primary
// base URL.
func (c *Client) do(ctx context.Context, op, method, path string, body []byte, out any, owner *string) error {
	obsClientRequests.With(op).Inc()
	if body != nil {
		obsClientBytesSent.With(op).Add(int64(len(body)))
	}
	hops := 0
	for attempt := 0; ; {
		base := c.base
		if owner != nil && *owner != "" {
			base = *owner
		}
		status, moved, err := c.attempt(ctx, base, method, path, body, out)
		if moved != "" {
			if owner == nil {
				// No redirect override to update (a create has no session to
				// chase): out was never decoded, so falling through to success
				// would hand the caller a zero-valued response.
				obsClientErrors.Inc()
				return &APIError{Status: status, Code: "moved",
					Msg: "unexpected owner redirect to " + moved}
			}
			// The replica handed the session off; chase the new owner
			// without consuming a retry or backing off.
			hops++
			if hops > 4 {
				obsClientErrors.Inc()
				return &APIError{Status: status, Code: "moved", Msg: "redirect loop chasing session owner"}
			}
			obsClientOwnerHops.Inc()
			*owner = strings.TrimRight(moved, "/")
			continue
		}
		if err == nil {
			return nil
		}
		if nr, ok := err.(errNonRetryable); ok {
			obsClientErrors.Inc()
			return nr.err
		}
		// Transport error or retryable API status.
		if status == 0 && owner != nil && *owner != "" {
			// The handed-off owner is unreachable (it may have finished
			// shutting down); fall back to the primary base, which can
			// answer or re-redirect.
			*owner = ""
		}
		if attempt >= c.opt.MaxRetries {
			obsClientErrors.Inc()
			return err
		}
		obsClientRetries.Inc()
		select {
		case <-ctx.Done():
			obsClientErrors.Inc()
			return ctx.Err()
		case <-time.After(backoffDelay(attempt, c.opt.Backoff, c.opt.MaxBackoff, rand.Float64())):
		}
		attempt++
	}
}

// attempt performs one HTTP round trip against base. Retryable failures
// come back as a non-nil error; non-retryable API errors are decoded into
// *APIError and returned with err == nil so do() stops retrying. moved
// carries the X-Hyperbal-Owner target of a 307 handoff redirect.
func (c *Client) attempt(ctx context.Context, base, method, path string, body []byte, out any) (status int, moved string, err error) {
	actx, cancel := context.WithTimeout(ctx, c.opt.RequestTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, base+path, rd)
	if err != nil {
		return 0, "", err
	}
	if body != nil {
		req.Header.Set("Content-Type", server.ContentTypeBinary)
	}
	req.Header.Set("Accept", server.ContentTypeBinary)
	resp, err := c.opt.HTTPClient.Do(req)
	if err != nil {
		return 0, "", err // transport error: retry
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTemporaryRedirect {
		if o := resp.Header.Get(server.OwnerHeader); o != "" {
			_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12))
			return resp.StatusCode, o, nil
		}
	}
	if resp.StatusCode >= 300 {
		var apiErr server.ErrorResponse
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		_ = json.Unmarshal(data, &apiErr)
		if apiErr.Error == "" {
			apiErr.Error = strings.TrimSpace(string(data))
		}
		e := &APIError{Status: resp.StatusCode, Code: apiErr.Code, Msg: apiErr.Error}
		if retryable(resp.StatusCode) {
			return resp.StatusCode, "", e // plain error: do() retries
		}
		return resp.StatusCode, "", errNonRetryable{e}
	}
	if out != nil {
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return resp.StatusCode, "", fmt.Errorf("balancerd: reading response: %w", err)
		}
		if err := decodeResponse(resp.Header.Get("Content-Type"), data, out); err != nil {
			return resp.StatusCode, "", fmt.Errorf("balancerd: decoding response: %w", err)
		}
	}
	return resp.StatusCode, "", nil
}

// decodeResponse decodes a binary success payload; any other Content-Type
// is an error. Error bodies never reach here (always JSON, handled above),
// so only success payload types appear in the switch.
func decodeResponse(contentType string, data []byte, out any) error {
	if !strings.HasPrefix(contentType, server.ContentTypeBinary) {
		return fmt.Errorf("response Content-Type %q, want %s", contentType, server.ContentTypeBinary)
	}
	switch v := out.(type) {
	case *server.SessionResponse:
		r, err := server.DecodeSessionResponseBinary(data)
		if err != nil {
			return err
		}
		*v = r
	case *server.PartitionResponse:
		r, err := server.DecodePartitionResponseBinary(data)
		if err != nil {
			return err
		}
		*v = r
	case *server.SessionInfo:
		r, err := server.DecodeSessionInfoBinary(data)
		if err != nil {
			return err
		}
		*v = r
	default:
		return fmt.Errorf("unexpected binary response for %T", out)
	}
	return nil
}

// errNonRetryable marks, between attempt and do, an APIError that must not
// be retried; do returns the APIError itself.
type errNonRetryable struct{ err error }

func (e errNonRetryable) Error() string { return e.err.Error() }

// RemoteSession is a session held by a balancerd instance. It is not safe
// for concurrent use: epoch submissions are ordered (the server enforces
// this with per-session serialization and the epoch-conflict check), so
// drive one RemoteSession from one goroutine.
type RemoteSession struct {
	c  *Client
	ID string
	// owner, when non-empty, is the base URL of the replica this session
	// was handed off to (learned from a 307 + X-Hyperbal-Owner answer);
	// requests go there until it becomes unreachable.
	owner string
	// epoch mirrors the server-side epoch for conflict-checked submissions.
	epoch int64
	// baseH is the last hypergraph this client successfully submitted —
	// the base SubmitEpochDelta computes deltas against. Nil after
	// attaching to an existing session with Client.Session (the first
	// delta submission then falls back to a full epoch).
	baseH *Hypergraph
}

// CreateSession creates a server-side session: the server computes (or
// serves from cache) the epoch-1 static partition of h under cfg.
func (c *Client) CreateSession(ctx context.Context, cfg BalancerConfig, h *Hypergraph) (*RemoteSession, RemoteResult, error) {
	body := server.AppendCreateRequestBinary(nil, server.WireConfigFrom(cfg), h)
	var resp server.SessionResponse
	if err := c.do(ctx, "create", http.MethodPost, "/v1/sessions", body, &resp, nil); err != nil {
		return nil, RemoteResult{}, err
	}
	return &RemoteSession{c: c, ID: resp.SessionID, baseH: h}, remoteResult(resp.Result), nil
}

// Session returns a handle for an existing server-side session id,
// synchronizing the epoch counter from the server.
func (c *Client) Session(ctx context.Context, id string) (*RemoteSession, error) {
	s := &RemoteSession{c: c, ID: id}
	var info server.SessionInfo
	if err := c.do(ctx, "info", http.MethodGet, "/v1/sessions/"+id, nil, &info, &s.owner); err != nil {
		return nil, err
	}
	s.epoch = info.Epoch
	return s, nil
}

// SubmitEpoch submits a drifted hypergraph with an unchanged vertex set;
// the server rebalances against the session's current distribution.
func (s *RemoteSession) SubmitEpoch(ctx context.Context, h *Hypergraph) (RemoteResult, error) {
	return s.submit(ctx, h, nil, false)
}

// SubmitEpochInherited submits a structurally changed hypergraph with the
// inherited assignment over the new vertex set.
func (s *RemoteSession) SubmitEpochInherited(ctx context.Context, h *Hypergraph, inherited Partition) (RemoteResult, error) {
	return s.submit(ctx, h, inherited.Parts, false)
}

// SubmitEpochIfUnbalanced is SubmitEpoch with the server-side trigger: the
// result has Rebalanced == false (and the unchanged distribution) when the
// drift was still within the session threshold.
func (s *RemoteSession) SubmitEpochIfUnbalanced(ctx context.Context, h *Hypergraph) (RemoteResult, error) {
	return s.submit(ctx, h, nil, true)
}

// SubmitEpochDelta submits a drifted hypergraph with an unchanged vertex
// set as a delta against the last submitted hypergraph, falling back to a
// full SubmitEpoch when no base is held, the transition is not
// delta-able, or the server rejects the base fingerprint (409
// fingerprint_mismatch — e.g. another client advanced the session). warm
// asks the server to warm-start the repartition from the previous
// distribution, restricted to the delta's dirty region.
func (s *RemoteSession) SubmitEpochDelta(ctx context.Context, h *Hypergraph, warm bool) (RemoteResult, error) {
	if s.baseH != nil {
		if d, ok := hypergraph.ComputeDelta(s.baseH, h); ok {
			return s.submitDelta(ctx, h, d, nil, warm)
		}
	}
	obsClientDeltaFallbacks.Inc()
	return s.SubmitEpoch(ctx, h)
}

// SubmitEpochDeltaMapped submits a structurally changed hypergraph as a
// delta: vmap maps each new vertex to its base vertex (or -1 for created
// vertices), inherited carries the assignment over the new vertex set.
// Falls back to SubmitEpochInherited when the transition is not
// delta-able or on a base fingerprint mismatch.
func (s *RemoteSession) SubmitEpochDeltaMapped(ctx context.Context, h *Hypergraph, vmap []int32, inherited Partition, warm bool) (RemoteResult, error) {
	if s.baseH != nil {
		if d, ok := hypergraph.ComputeDeltaMapped(s.baseH, h, vmap); ok {
			return s.submitDelta(ctx, h, d, inherited.Parts, warm)
		}
	}
	obsClientDeltaFallbacks.Inc()
	return s.SubmitEpochInherited(ctx, h, inherited)
}

// submit sends h as a full epoch submission (POST).
func (s *RemoteSession) submit(ctx context.Context, h *Hypergraph, inherited []int32, onlyIfUnbalanced bool) (RemoteResult, error) {
	epoch := s.epoch + 1
	body := server.AppendEpochRequestBinary(nil, h, inherited, epoch, onlyIfUnbalanced)
	return s.send(ctx, "epoch", http.MethodPost, body, epoch, h)
}

// submitDelta sends h as the delta d against the held base (PATCH). When
// the server rejects the base fingerprint — the session's base moved under
// us, or the server never held one — it falls back to a full submission
// of h with the same inherited assignment.
func (s *RemoteSession) submitDelta(ctx context.Context, h *Hypergraph, d *hypergraph.Delta, inherited []int32, warm bool) (RemoteResult, error) {
	epoch := s.epoch + 1
	body := server.AppendDeltaRequestBinary(nil, d, inherited, epoch, warm)
	res, err := s.send(ctx, "delta", http.MethodPatch, body, epoch, h)
	var apiErr *APIError
	if errors.As(err, &apiErr) && apiErr.Code == "fingerprint_mismatch" {
		obsClientDeltaFallbacks.Inc()
		return s.submit(ctx, h, inherited, false)
	}
	return res, err
}

// send POSTs or PATCHes one rendered epoch submission tagged with the
// expected epoch, and keeps the session's epoch and delta base in step with
// the answer: h becomes the base once the server has accepted it.
func (s *RemoteSession) send(ctx context.Context, op, method string, body []byte, epoch int64, h *Hypergraph) (RemoteResult, error) {
	var resp server.SessionResponse
	err := s.c.do(ctx, op, method, "/v1/sessions/"+s.ID+"/epochs", body, &resp, &s.owner)
	if err != nil {
		var apiErr *APIError
		if errors.As(err, &apiErr) && apiErr.Code == "epoch_conflict" {
			// A retried submission may have landed before its response was
			// lost; reconcile against the server's view.
			if res, rerr := s.reconcile(ctx, epoch); rerr == nil {
				s.baseH = h
				return res, nil
			}
		}
		return RemoteResult{}, err
	}
	res := remoteResult(resp.Result)
	if res.Rebalanced {
		s.epoch = res.Epoch
		s.baseH = h
	}
	return res, nil
}

// reconcile recovers the result of an epoch submission that was applied
// server-side but whose response was lost: if the server sits exactly at
// the expected epoch, its last result IS our submission's result.
func (s *RemoteSession) reconcile(ctx context.Context, expected int64) (RemoteResult, error) {
	var info server.SessionInfo
	if err := s.c.do(ctx, "info", http.MethodGet, "/v1/sessions/"+s.ID, nil, &info, &s.owner); err != nil {
		return RemoteResult{}, err
	}
	if expected == 0 || info.Epoch != expected {
		return RemoteResult{}, &APIError{Status: http.StatusConflict, Code: "epoch_conflict",
			Msg: fmt.Sprintf("session at epoch %d, expected %d", info.Epoch, expected)}
	}
	s.epoch = info.Epoch
	return remoteResult(info.Last), nil
}

// Epoch returns the client's view of the session epoch.
func (s *RemoteSession) Epoch() int64 { return s.epoch }

// Partition fetches the session's current distribution and the migration
// plan summary of the latest epoch (nil before the first rebalance).
func (s *RemoteSession) Partition(ctx context.Context) (Partition, *RemoteMigration, error) {
	var resp server.PartitionResponse
	if err := s.c.do(ctx, "partition", http.MethodGet, "/v1/sessions/"+s.ID+"/partition", nil, &resp, &s.owner); err != nil {
		return Partition{}, nil, err
	}
	return Partition{Parts: resp.Parts, K: resp.K}, resp.Migration, nil
}

// Close deletes the server-side session.
func (s *RemoteSession) Close(ctx context.Context) error {
	return s.c.do(ctx, "delete", http.MethodDelete, "/v1/sessions/"+s.ID, nil, nil, &s.owner)
}
