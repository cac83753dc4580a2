package mpinet

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"hyperbal/internal/mpi"
)

// A JobFunc is the body of one rank of a distributed world. Closures
// cannot cross processes, so ranks run registered named jobs: the
// coordinator ships (job name, payload), the worker runs the function
// registered under that name with this rank's Comm. The returned bytes
// travel back to the coordinator in the result frame (rank 0
// conventionally returns the answer; other ranks may return nil).
type JobFunc func(c *mpi.Comm, payload []byte) ([]byte, error)

var (
	jobsMu sync.RWMutex
	jobs   = map[string]JobFunc{}
)

// RegisterJob makes a named job launchable on this process. Typically
// called from init (see the jobs subpackage); duplicate names panic.
func RegisterJob(name string, fn JobFunc) {
	jobsMu.Lock()
	defer jobsMu.Unlock()
	if _, ok := jobs[name]; ok {
		panic(fmt.Sprintf("mpinet: job %q registered twice", name))
	}
	jobs[name] = fn
}

func lookupJob(name string) (JobFunc, bool) {
	jobsMu.RLock()
	defer jobsMu.RUnlock()
	fn, ok := jobs[name]
	return fn, ok
}

// pendingTTL bounds how long an unclaimed mesh connection (hello arrived
// before this worker's launch frame) is parked before being dropped.
const pendingTTL = 30 * time.Second

// Worker turns a process into a rank endpoint: it accepts control
// connections carrying launch frames and mesh connections carrying
// substrate traffic, and runs one registered job per launched world. One
// worker can serve many sequential (or concurrent, distinct-world)
// launches.
type Worker struct {
	ln net.Listener

	mu      sync.Mutex
	worlds  map[string]*netTransport
	pending map[string][]*pendingConn
	closed  bool

	wg sync.WaitGroup
}

type pendingConn struct {
	rank  int
	conn  net.Conn
	br    *bufio.Reader
	timer *time.Timer
}

// NewWorker wraps an already-listening socket (the caller owns address
// selection; hgpart -worker listens on the address it is given).
func NewWorker(ln net.Listener) *Worker {
	return &Worker{
		ln:      ln,
		worlds:  make(map[string]*netTransport),
		pending: make(map[string][]*pendingConn),
	}
}

// Addr returns the worker's listen address.
func (w *Worker) Addr() string { return w.ln.Addr().String() }

// Serve accepts connections until the listener closes. It returns nil
// after Close.
func (w *Worker) Serve() error {
	for {
		conn, err := w.ln.Accept()
		if err != nil {
			w.mu.Lock()
			closed := w.closed
			w.mu.Unlock()
			if closed {
				w.wg.Wait()
				return nil
			}
			return err
		}
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			w.handleConn(conn)
		}()
	}
}

// Close stops accepting and tears down live worlds.
func (w *Worker) Close() error {
	w.mu.Lock()
	w.closed = true
	var trs []*netTransport
	for _, tr := range w.worlds {
		trs = append(trs, tr)
	}
	var parked []*pendingConn
	for _, ps := range w.pending {
		parked = append(parked, ps...)
	}
	w.mu.Unlock()
	err := w.ln.Close()
	for _, tr := range trs {
		tr.fail(errClosed)
	}
	for _, p := range parked {
		p.timer.Stop()
		p.conn.Close()
	}
	return err
}

// handleConn demuxes a fresh connection by its first frame: a hello makes
// it a mesh connection (attach or park), a launch makes it the control
// connection of a new world on this worker.
func (w *Worker) handleConn(conn net.Conn) {
	br := getReader(conn)
	conn.SetReadDeadline(time.Now().Add(pendingTTL))
	kind, body, _, err := readFrame(br)
	if err != nil {
		putReader(br)
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	switch kind {
	case frameHello:
		var h helloBody
		if err := parseControl(body, &h); err != nil {
			conn.Close()
			return
		}
		w.acceptMesh(h, conn, br) // the mesh connection keeps its reader
	case frameLaunch:
		putReader(br) // a control connection carries nothing more this way
		var l launchBody
		if err := parseControl(body, &l); err != nil {
			writeError(conn, errorBody{Kind: errKindGeneric, Rank: -1, Msg: err.Error()})
			conn.Close()
			return
		}
		w.runLaunch(l, conn)
	default:
		conn.Close()
	}
}

// acceptMesh routes an inbound mesh connection: attach it to the live
// world it names (ack immediately) or park it until that world's launch
// frame arrives here.
func (w *Worker) acceptMesh(h helloBody, conn net.Conn, br *bufio.Reader) {
	w.mu.Lock()
	if tr, ok := w.worlds[h.WorldID]; ok {
		w.mu.Unlock()
		w.finishMeshAccept(tr, h.Rank, conn, br)
		return
	}
	if w.closed {
		w.mu.Unlock()
		conn.Close()
		return
	}
	p := &pendingConn{rank: h.Rank, conn: conn, br: br}
	p.timer = time.AfterFunc(pendingTTL, func() {
		w.mu.Lock()
		ps := w.pending[h.WorldID]
		for i, q := range ps {
			if q == p {
				w.pending[h.WorldID] = append(ps[:i], ps[i+1:]...)
				break
			}
		}
		w.mu.Unlock()
		conn.Close()
	})
	w.pending[h.WorldID] = append(w.pending[h.WorldID], p)
	w.mu.Unlock()
}

func (w *Worker) finishMeshAccept(tr *netTransport, rank int, conn net.Conn, br *bufio.Reader) {
	if err := tr.attach(rank, conn, br); err != nil {
		conn.Close()
		return
	}
	if _, err := conn.Write(appendFrame(nil, frameHelloAck, nil)); err != nil {
		conn.Close()
	}
}

// runLaunch executes one world rank: build the transport, complete the
// mesh (adopt parked inbound conns, dial every lower rank), run the job,
// report on the control connection, then hold the mesh open until the
// coordinator signals global completion by closing that connection.
func (w *Worker) runLaunch(l launchBody, ctrl net.Conn) {
	defer ctrl.Close()
	opt := Options{
		SendWindow:  l.SendWindow,
		RecvTimeout: l.RecvTimeout,
		Jitter:      l.Jitter,
		JitterSeed:  l.JitterSeed,
	}
	tr := newNetTransport(l.WorldID, l.Rank, l.Size, opt)

	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		writeError(ctrl, errorBody{Kind: errKindGeneric, Rank: l.Rank, Msg: "worker shutting down"})
		return
	}
	if _, dup := w.worlds[l.WorldID]; dup {
		w.mu.Unlock()
		writeError(ctrl, errorBody{Kind: errKindGeneric, Rank: l.Rank, Msg: fmt.Sprintf("world %s already launched on this worker", l.WorldID)})
		return
	}
	w.worlds[l.WorldID] = tr
	parked := w.pending[l.WorldID]
	delete(w.pending, l.WorldID)
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		delete(w.worlds, l.WorldID)
		w.mu.Unlock()
		tr.shutdown()
	}()

	for _, p := range parked {
		if p.timer.Stop() {
			w.finishMeshAccept(tr, p.rank, p.conn, p.br)
		}
	}
	for s := 0; s < l.Rank; s++ {
		if err := dialPeer(tr, s, l.Addrs[s]); err != nil {
			writeError(ctrl, errorBody{Kind: errKindGeneric, Rank: l.Rank, Msg: err.Error()})
			return
		}
	}
	if err := tr.waitReady(); err != nil {
		writeError(ctrl, rankError(l.Rank, err))
		return
	}

	fn, ok := lookupJob(l.Job)
	if !ok {
		writeError(ctrl, errorBody{Kind: errKindGeneric, Rank: l.Rank, Msg: fmt.Sprintf("job %q not registered on this worker", l.Job)})
		return
	}
	var out []byte
	stats, err := mpi.RunTransportRank(tr, l.Rank, l.Size, mpi.Options{ChanCap: l.SendWindow}, func(c *mpi.Comm) error {
		var jerr error
		out, jerr = fn(c, l.Payload)
		return jerr
	})
	if err != nil {
		writeError(ctrl, rankError(l.Rank, err))
		return
	}
	res := RankResult{
		Rank:         l.Rank,
		Messages:     stats.Messages.Load(),
		Bytes:        stats.Bytes.Load(),
		Collectives:  stats.Collectives.Load(),
		BlockedSends: stats.BlockedSends.Load(),
		MaxStall:     time.Duration(stats.MaxStall.Load()),
		Payload:      out,
	}
	if _, err := ctrl.Write(appendControl(nil, frameResult, res)); err != nil {
		return
	}
	// Hold the mesh until the coordinator has collected every rank (it
	// closes the control connection then); tearing down earlier would look
	// like a crash to peers still in their final rounds.
	ctrl.SetReadDeadline(time.Now().Add(opt.withDefaults().RecvTimeout + pendingTTL))
	io.Copy(io.Discard, ctrl)
}

// rankError classifies a rank failure for the wire: structured crash and
// stall errors keep their type across the control connection.
func rankError(rank int, err error) errorBody {
	var ce *mpi.CrashError
	if errors.As(err, &ce) {
		return errorBody{Kind: errKindCrash, Rank: ce.Rank, Step: ce.Step, Msg: err.Error()}
	}
	var de *mpi.DeadlockError
	if errors.As(err, &de) {
		return errorBody{Kind: errKindStall, Rank: rank, Msg: err.Error()}
	}
	return errorBody{Kind: errKindGeneric, Rank: rank, Msg: err.Error()}
}

func writeError(conn net.Conn, e errorBody) {
	if len(e.Msg) > maxErrMsgLen {
		e.Msg = e.Msg[:maxErrMsgLen]
	}
	conn.Write(appendControl(nil, frameError, e))
}

// dialPeer establishes the outbound half of the mesh: rank r dials every
// lower rank's worker, introduces itself with a hello, and waits for the
// ack (retrying while the peer's launch frame is still in flight).
func dialPeer(t *netTransport, peerRank int, addr string) error {
	deadline := time.Now().Add(t.opt.DialTimeout)
	backoff := 20 * time.Millisecond
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if time.Now().After(deadline) {
				return fmt.Errorf("mpinet: dial rank %d at %s: %v", peerRank, addr, lastErr)
			}
			time.Sleep(backoff)
			if backoff < 500*time.Millisecond {
				backoff *= 2
			}
		}
		conn, err := net.DialTimeout("tcp", addr, time.Until(deadline))
		if err != nil {
			lastErr = err
			continue
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		hello := appendControl(nil, frameHello, helloBody{WorldID: t.worldID, Rank: t.rank})
		if _, err := conn.Write(hello); err != nil {
			conn.Close()
			lastErr = err
			continue
		}
		br := getReader(conn)
		conn.SetReadDeadline(time.Now().Add(time.Until(deadline)))
		kind, _, _, err := readFrame(br)
		conn.SetReadDeadline(time.Time{})
		if err != nil || kind != frameHelloAck {
			putReader(br)
			conn.Close()
			if err == nil {
				err = fmt.Errorf("expected helloAck, got frame kind %d", kind)
			}
			lastErr = err
			continue
		}
		return t.attach(peerRank, conn, br)
	}
}
