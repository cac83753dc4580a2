package mpinet

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"hyperbal/internal/mpi"
	"hyperbal/internal/wire"
)

// Options tune one transport endpoint. The coordinator picks them once
// per world and ships them in the launch frame, so all ranks agree.
type Options struct {
	// SendWindow is the per-peer outbound flow-control window in messages,
	// mirroring the in-process substrate's Options.ChanCap; a send beyond
	// it blocks (and counts as a blocked send). 0 means mpi.DefaultChanCap.
	SendWindow int
	// RecvTimeout bounds a blocked receive; past it the rank fails with a
	// structured stall error — the transport-world analogue of the
	// in-process watchdog, which cannot see remote ranks. 0 means 2m.
	RecvTimeout time.Duration
	// DialTimeout bounds mesh establishment (dialing a peer, including
	// redials while the peer's launch is still in flight). 0 means 20s.
	DialTimeout time.Duration
	// Jitter, when positive, delays each outbound message frame by a
	// seeded pseudorandom duration in [0, Jitter) — real-network delay
	// variance on demand, for shaking schedule-dependence out in tests and
	// stretching rounds in kill drills.
	Jitter     time.Duration
	JitterSeed int64
}

func (o Options) withDefaults() Options {
	if o.SendWindow <= 0 {
		o.SendWindow = mpi.DefaultChanCap
	}
	if o.RecvTimeout <= 0 {
		o.RecvTimeout = 2 * time.Minute
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 20 * time.Second
	}
	return o
}

// readerPool recycles the 64 KiB read buffers: a world opens several
// short-lived connections per rank (control both ways, one per mesh edge),
// and a fresh buffer for each was a visible share of a small world's
// allocation. Whoever reads a connection last returns its reader (the
// control paths after their one frame, a peer's readLoop on exit); one
// dropped on a rare error path is just garbage.
var readerPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 64<<10) }}

func getReader(conn net.Conn) *bufio.Reader {
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(conn)
	return br
}

func putReader(br *bufio.Reader) {
	br.Reset(nil)
	readerPool.Put(br)
}

// errClosed marks a transport shut down after its rank finished; any
// operation racing the shutdown reports it instead of a phantom crash.
var errClosed = errors.New("mpinet: transport closed")

// qkey identifies one inbound message stream: (communicator, source world
// rank). Tags stay inside the stream — like the in-process substrate, a
// tag mismatch at the head of the stream is a protocol error, not a
// filter.
type qkey struct {
	comm uint64
	src  int
}

// peer is one mesh connection. The writer goroutine drains out so Send
// returns as soon as the window has room; the reader goroutine demuxes
// inbound frames into the transport's per-stream queues.
type peer struct {
	rank int
	conn net.Conn
	br   *bufio.Reader // carried over from the handshake, which may have buffered past the hello
	out  chan []byte   // encoded msg frames
	jr   *rand.Rand    // writer-goroutine-only jitter rng; nil when Options.Jitter is off

	closeOnce sync.Once
}

func (p *peer) close() {
	p.closeOnce.Do(func() { p.conn.Close() })
}

// netTransport implements mpi.Transport for exactly one rank process.
type netTransport struct {
	worldID string
	rank    int
	size    int
	opt     Options

	peers []*peer // by rank; peers[rank] is nil (self-sends short-circuit)

	mu      sync.Mutex
	queues  map[qkey]chan msgBody
	missing int // peers not yet attached

	ready    chan struct{} // closed once every peer is attached
	dead     chan struct{} // closed on first fatal transport error
	deadOnce sync.Once
	deadErr  error

	writers sync.WaitGroup
	readers sync.WaitGroup
}

func newNetTransport(worldID string, rank, size int, opt Options) *netTransport {
	t := &netTransport{
		worldID: worldID,
		rank:    rank,
		size:    size,
		opt:     opt.withDefaults(),
		peers:   make([]*peer, size),
		queues:  make(map[qkey]chan msgBody),
		ready:   make(chan struct{}),
		missing: size - 1,
		dead:    make(chan struct{}),
	}
	if size == 1 {
		close(t.ready)
	}
	return t
}

// fail records the first fatal error and wakes every blocked operation.
func (t *netTransport) fail(err error) {
	t.deadOnce.Do(func() {
		t.deadErr = err
		close(t.dead)
	})
}

func (t *netTransport) failErr() error {
	<-t.dead // read barrier for deadErr
	return t.deadErr
}

// queue returns the inbound stream for (comm, src), creating it lazily.
// Capacity mirrors the send window so an unread stream exerts the same
// backpressure as a full in-process channel.
func (t *netTransport) queue(k qkey) chan msgBody {
	t.mu.Lock()
	defer t.mu.Unlock()
	q, ok := t.queues[k]
	if !ok {
		q = make(chan msgBody, t.opt.SendWindow)
		t.queues[k] = q
	}
	return q
}

// attach adopts an established mesh connection to peerRank and starts its
// reader/writer goroutines. Each (transport, peerRank) attaches exactly
// once; the worker's accept path and the dialer both funnel through here.
func (t *netTransport) attach(peerRank int, conn net.Conn, br *bufio.Reader) error {
	if peerRank < 0 || peerRank >= t.size || peerRank == t.rank {
		return fmt.Errorf("mpinet: attach of invalid peer rank %d (world size %d)", peerRank, t.size)
	}
	t.mu.Lock()
	if t.peers[peerRank] != nil {
		t.mu.Unlock()
		return fmt.Errorf("mpinet: duplicate connection for rank %d", peerRank)
	}
	p := &peer{
		rank: peerRank,
		conn: conn,
		br:   br,
		out:  make(chan []byte, t.opt.SendWindow),
	}
	if t.opt.Jitter > 0 {
		p.jr = rand.New(rand.NewSource(t.opt.JitterSeed*1000003 + int64(peerRank)*7919 + int64(t.rank) + 1))
	}
	t.peers[peerRank] = p
	t.missing--
	allReady := t.missing == 0
	t.mu.Unlock()

	t.writers.Add(1)
	t.readers.Add(1)
	go t.writeLoop(p)
	go t.readLoop(p)
	if allReady {
		close(t.ready)
	}
	return nil
}

// waitReady blocks until the full mesh is attached or the dial deadline
// hits. Sends and receives are only legal after it returns nil.
func (t *netTransport) waitReady() error {
	select {
	case <-t.ready:
		return nil
	case <-t.dead:
		return t.failErr()
	case <-time.After(t.opt.DialTimeout):
		t.mu.Lock()
		missing := t.missing
		t.mu.Unlock()
		return fmt.Errorf("mpinet: world %s rank %d: mesh incomplete after %v (%d peers missing)",
			t.worldID, t.rank, t.opt.DialTimeout, missing)
	}
}

func (t *netTransport) writeLoop(p *peer) {
	defer t.writers.Done()
	for buf := range p.out {
		if p.jr != nil {
			if d := time.Duration(p.jr.Int63n(int64(t.opt.Jitter))); d > 0 {
				time.Sleep(d)
			}
		}
		n, err := p.conn.Write(buf)
		obsFramesTx.Inc()
		obsBytesTx.Add(int64(n))
		if err != nil {
			t.fail(fmt.Errorf("mpinet: write to rank %d: %v: %w", p.rank, err, &mpi.CrashError{Rank: p.rank}))
			// Keep draining so a blocked Send enqueue is never stranded;
			// frames after a dead connection go nowhere anyway.
			for range p.out {
			}
			return
		}
	}
}

func (t *netTransport) readLoop(p *peer) {
	defer t.readers.Done()
	defer putReader(p.br)
	for {
		kind, body, n, err := readFrame(p.br)
		if err != nil {
			// A dropped mesh connection is a dead peer: every subsequent
			// Send/Recv on this transport fails with a structured CrashError
			// naming the rank — the network analogue of a crash fault. (A
			// clean world shutdown closes connections only after every rank
			// has finished, so a mid-run EOF really is a death.)
			t.fail(fmt.Errorf("mpinet: connection to rank %d lost: %v: %w", p.rank, err, &mpi.CrashError{Rank: p.rank}))
			return
		}
		obsFramesRx.Inc()
		obsBytesRx.Add(int64(n))
		if kind != frameMsg {
			t.fail(fmt.Errorf("mpinet: unexpected frame kind %d on mesh connection to rank %d", kind, p.rank))
			return
		}
		m, err := parseMsg(body)
		if err != nil {
			t.fail(fmt.Errorf("mpinet: from rank %d: %w", p.rank, err))
			return
		}
		if m.Src != p.rank {
			t.fail(fmt.Errorf("mpinet: rank %d sent a frame claiming src %d", p.rank, m.Src))
			return
		}
		select {
		case t.queue(qkey{m.Comm, m.Src}) <- m:
		case <-t.dead:
			return
		}
	}
}

// Send implements mpi.Transport. dst is a world rank; a nonzero stall
// means the flow-control window was full (the caller counts it as a
// blocked send, exactly like a full in-process channel).
func (t *netTransport) Send(comm uint64, dst, tag int, pl wire.Sized) (time.Duration, error) {
	if dst == t.rank {
		m := msgBody{Comm: comm, Src: t.rank, Tag: tag, Payload: pl.AppendTo(make([]byte, 0, pl.Size()))}
		return t.enqueue(t.queue(qkey{comm, t.rank}), m)
	}
	p := t.peers[dst]
	if p == nil {
		return 0, fmt.Errorf("mpinet: no connection to rank %d", dst)
	}
	buf := appendMsgFrame(comm, t.rank, tag, pl)
	select {
	case p.out <- buf:
		return 0, nil
	case <-t.dead:
		return 0, t.failErr()
	default:
	}
	start := time.Now()
	select {
	case p.out <- buf:
		return time.Since(start), nil
	case <-t.dead:
		return 0, t.failErr()
	}
}

// enqueue is the self-send path: through the inbound queue with the same
// window semantics as a remote send. The payload is encoded like any
// other, so self-delivery and remote delivery are indistinguishable to the
// algorithm (ownership transfer included).
func (t *netTransport) enqueue(q chan msgBody, m msgBody) (time.Duration, error) {
	select {
	case q <- m:
		return 0, nil
	case <-t.dead:
		return 0, t.failErr()
	default:
	}
	start := time.Now()
	select {
	case q <- m:
		return time.Since(start), nil
	case <-t.dead:
		return 0, t.failErr()
	}
}

// Recv implements mpi.Transport. Like the in-process substrate, a tag
// mismatch at the head of the (comm, src) stream is a protocol error.
func (t *netTransport) Recv(comm uint64, src, tag int) ([]byte, time.Duration, error) {
	q := t.queue(qkey{comm, src})
	var m msgBody
	var stall time.Duration
	select {
	case m = <-q:
	default:
		start := time.Now()
		timer := time.NewTimer(t.opt.RecvTimeout)
		select {
		case m = <-q:
			timer.Stop()
			stall = time.Since(start)
		case <-t.dead:
			timer.Stop()
			return nil, 0, t.failErr()
		case <-timer.C:
			return nil, 0, fmt.Errorf("mpinet: world %s: %w", t.worldID, &mpi.DeadlockError{
				Deadline: t.opt.RecvTimeout,
				Blocked:  []mpi.BlockedOp{{Rank: t.rank, Op: "recv", Peer: src, Tag: tag, For: t.opt.RecvTimeout}},
			})
		}
	}
	if m.Tag != tag {
		return nil, 0, fmt.Errorf("mpinet: rank %d expected tag %d from %d, got %d", t.rank, tag, src, m.Tag)
	}
	return m.Payload, stall, nil
}

// shutdown flushes and tears down the mesh after the rank's function has
// returned. Callers must only invoke it once the world is globally done
// (the worker waits for the coordinator to close the control connection
// first), so peers never mistake this close for a crash.
func (t *netTransport) shutdown() {
	t.mu.Lock()
	peers := append([]*peer(nil), t.peers...)
	t.mu.Unlock()
	for _, p := range peers {
		if p != nil {
			close(p.out)
		}
	}
	// Flush outstanding frames (a finished rank may still owe peers the
	// tail of its last collective), but never hang on a dead connection.
	flushed := make(chan struct{})
	go func() { t.writers.Wait(); close(flushed) }()
	select {
	case <-flushed:
	case <-time.After(5 * time.Second):
	}
	t.fail(errClosed)
	for _, p := range peers {
		if p != nil {
			p.close()
		}
	}
	t.readers.Wait()
}
