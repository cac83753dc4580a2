// Fault injection, deadlock diagnostics and tracing for the substrate.
//
// The partitioners in this repository are SPMD programs whose correctness
// claim is *schedule independence*: every rank must compute the identical
// partition no matter how messages are delayed or interleaved. The
// FaultPlan/watchdog machinery here exists to attack that claim directly:
//
//   - FaultPlan deterministically (seeded) injects per-rank message
//     delays, delivery reordering across distinct (src,tag) streams, and
//     rank-crash-at-step faults.
//   - The watchdog turns a hung world into a structured DeadlockError
//     that names which ranks are blocked in which operation, instead of
//     relying on ad-hoc test-level timeouts.
//   - Options.OnEvent exposes a per-operation trace, and Stats gains
//     collective counts and a max-stall gauge for the harness reports.
package mpi

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultWatchdog is the stall deadline armed automatically when a
// FaultPlan schedules rank crashes but no explicit watchdog was requested
// (a crash without a watchdog would hang the surviving ranks forever).
const DefaultWatchdog = 30 * time.Second

// Options configure a world beyond its size (see RunWith).
type Options struct {
	// Fault injects deterministic message-level faults; nil runs clean.
	Fault *FaultPlan
	// Watchdog aborts the world with a DeadlockError once every live rank
	// has been blocked inside a substrate operation for this long. 0
	// disables the watchdog (unless Fault schedules crashes, which arm
	// DefaultWatchdog).
	Watchdog time.Duration
	// OnEvent, when non-nil, receives one Event per completed substrate
	// operation. It is called concurrently from rank goroutines and must
	// be safe for concurrent use.
	OnEvent func(Event)
	// ChanCap is the per-pair send buffer capacity in messages; 0 means
	// DefaultChanCap. A send beyond this capacity blocks the sender (and
	// counts in Stats.BlockedSends). Network transports mirror it as their
	// flow-control window.
	ChanCap int
}

// normalized arms the default watchdog for crash plans and fills defaults.
func (o Options) normalized() Options {
	if o.Watchdog <= 0 && o.Fault != nil && len(o.Fault.Crash) > 0 {
		o.Watchdog = DefaultWatchdog
	}
	if o.ChanCap <= 0 {
		o.ChanCap = DefaultChanCap
	}
	return o
}

// FaultPlan describes a deterministic fault schedule. The same plan on the
// same program yields the same injected schedule, so a chaos failure is
// reproducible from its printed seed.
type FaultPlan struct {
	// Seed drives every injected decision (delays, reorder coin flips).
	Seed int64
	// MaxDelay, when positive, sleeps each message send for a seeded
	// pseudorandom duration in [0, MaxDelay).
	MaxDelay time.Duration
	// DelayRanks restricts injected delays to these world ranks
	// (nil delays all ranks).
	DelayRanks []int
	// Reorder enables delivery reordering across distinct (src,tag)
	// streams: the sender may hold one message per destination back and
	// let a later message with a different tag overtake it, and receivers
	// switch to MPI-style tag matching (messages with a non-matching tag
	// are buffered instead of treated as protocol errors). Order within
	// one (src,dst,tag) stream is always preserved.
	Reorder bool
	// Crash maps a world rank to the 1-based index of the substrate
	// operation (Send or Recv entry) at which that rank abruptly dies.
	// The crash surfaces as a *CrashError; peers blocked on the dead rank
	// are cut loose by the watchdog with a *DeadlockError.
	Crash map[int]int
}

// Event is one completed substrate operation, reported via Options.OnEvent.
type Event struct {
	// Rank is the world rank performing the operation.
	Rank int
	// Op is "send", "recv", or a collective name ("bcast", "allreduce", ...).
	Op string
	// Peer is the world rank of the other side (-1 for collectives).
	Peer int
	// Tag is the message tag (0 for collectives).
	Tag int
	// Bytes is the payload size (0 for collectives; their constituent
	// sends and recvs are reported separately).
	Bytes int64
	// Stall is how long the operation blocked (for collectives: the whole
	// call duration).
	Stall time.Duration
}

// CrashError reports a dead rank: killed by an injected crash fault
// (in-process, Step > 0) or lost to a dropped connection / dead process
// (network transport, Step == 0).
type CrashError struct {
	Rank int // world rank that crashed
	Step int // 1-based substrate operation index at which it died; 0 when unknown (connection lost)
}

func (e *CrashError) Error() string {
	if e.Step == 0 {
		return fmt.Sprintf("mpi: rank %d crashed (connection lost)", e.Rank)
	}
	return fmt.Sprintf("mpi: rank %d crashed by fault injection at operation %d", e.Rank, e.Step)
}

// BlockedOp describes one rank stuck in a substrate operation.
type BlockedOp struct {
	Rank int           // world rank
	Op   string        // "send" or "recv"
	Peer int           // world rank of the peer the op is waiting on
	Tag  int           // message tag the op is waiting on
	For  time.Duration // how long the rank has been blocked
}

// DeadlockError reports a stalled world: every live rank was blocked in a
// substrate operation past the watchdog deadline. Its message dumps the
// full blocked-rank table for diagnosis.
type DeadlockError struct {
	Deadline time.Duration
	Blocked  []BlockedOp
}

func (e *DeadlockError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mpi: world stalled past the %v watchdog deadline; blocked ranks:", e.Deadline)
	for _, op := range e.Blocked {
		fmt.Fprintf(&b, "\n  rank %d blocked in %s(peer=%d, tag=%d) for %v",
			op.Rank, op.Op, op.Peer, op.Tag, op.For.Round(time.Millisecond))
	}
	return b.String()
}

// errAborted marks ranks that were cut loose by the watchdog; it is
// translated into the world-level DeadlockError by RunWith.
var errAborted = errors.New("mpi: rank aborted after watchdog deadline")

// crashSignal and abortSignal unwind a rank goroutine via panic; the
// runner's recover translates them into errors.
type crashSignal struct{ rank, step int }
type abortSignal struct{}

// rankState is the watchdog's view of one rank.
type rankState struct {
	mu      sync.Mutex
	blocked bool
	done    bool
	op      string
	peer    int
	tag     int
	since   time.Time
}

// world is the shared state of one Run invocation: traffic counters, the
// fault plan, watchdog bookkeeping, and the abort broadcast channel.
type world struct {
	n     int
	stats *Stats
	opt   Options
	track bool // record blocked states and stalls (watchdog or OnEvent on)

	abort     chan struct{}
	abortOnce sync.Once
	deadlock  atomic.Pointer[DeadlockError]
	stopc     chan struct{}
	progress  atomic.Int64

	states   []rankState
	colDepth []int32      // per-world-rank collective nesting (own goroutine only)
	steps    []int        // per-world-rank substrate op count (own goroutine only)
	frand    []*rand.Rand // per-world-rank fault rng (own goroutine only)
	delayOn  []bool       // per-world-rank delay injection switch
	flushers [][]func()   // per-world-rank held-message flushers (own goroutine only)
}

func newWorld(n int, opt Options) *world {
	w := &world{
		n:        n,
		stats:    &Stats{},
		opt:      opt,
		track:    opt.Watchdog > 0 || opt.OnEvent != nil,
		abort:    make(chan struct{}),
		stopc:    make(chan struct{}),
		states:   make([]rankState, n),
		colDepth: make([]int32, n),
		flushers: make([][]func(), n),
	}
	if f := opt.Fault; f != nil {
		w.steps = make([]int, n)
		w.frand = make([]*rand.Rand, n)
		w.delayOn = make([]bool, n)
		for r := 0; r < n; r++ {
			w.frand[r] = rand.New(rand.NewSource(f.Seed*1000003 + int64(r)*7919 + 1))
		}
		if f.DelayRanks == nil {
			for r := range w.delayOn {
				w.delayOn[r] = true
			}
		} else {
			for _, r := range f.DelayRanks {
				if r >= 0 && r < n {
					w.delayOn[r] = true
				}
			}
		}
	}
	return w
}

func (w *world) reorder() bool { return w.opt.Fault != nil && w.opt.Fault.Reorder }

// enterBlocked flags rank as blocked inside op; the returned func clears
// the flag, bumps the progress counter and reports the stall. Stall time
// feeds Stats.MaxStall unconditionally — only the watchdog's blocked-state
// bookkeeping is skipped for untracked worlds.
func (w *world) enterBlocked(rank int, op string, peer, tag int) func() time.Duration {
	start := time.Now()
	if !w.track {
		return func() time.Duration {
			stall := time.Since(start)
			w.noteStall(stall)
			return stall
		}
	}
	s := &w.states[rank]
	s.mu.Lock()
	s.blocked, s.op, s.peer, s.tag, s.since = true, op, peer, tag, start
	s.mu.Unlock()
	return func() time.Duration {
		s.mu.Lock()
		s.blocked = false
		s.mu.Unlock()
		w.progress.Add(1)
		stall := time.Since(start)
		w.noteStall(stall)
		return stall
	}
}

func (w *world) noteStall(d time.Duration) {
	ns := int64(d)
	for {
		cur := w.stats.MaxStall.Load()
		if ns <= cur || w.stats.MaxStall.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// finish marks a rank as no longer participating (returned or crashed).
func (w *world) finish(rank int) {
	s := &w.states[rank]
	s.mu.Lock()
	s.done = true
	s.blocked = false
	s.mu.Unlock()
	w.progress.Add(1)
}

// flushRank delivers any held (reorder-injected) messages of the rank's
// communicators so peers are never starved by a hold.
func (w *world) flushRank(rank int) {
	for _, f := range w.flushers[rank] {
		f()
	}
}

func (w *world) abortWith(dl *DeadlockError) {
	w.abortOnce.Do(func() {
		w.deadlock.Store(dl)
		close(w.abort)
	})
}

// watchdog aborts the world once it stalls: the stall condition must hold
// on two consecutive ticks with no progress in between, which closes the
// race against a message delivered exactly at the deadline crossing.
func (w *world) watchdog() {
	period := w.opt.Watchdog / 8
	if period < time.Millisecond {
		period = time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	armed := false
	var lastProgress int64
	for {
		select {
		case <-w.stopc:
			return
		case <-t.C:
			dl := w.stallSnapshot()
			progress := w.progress.Load()
			if dl != nil && armed && progress == lastProgress {
				w.abortWith(dl)
				return
			}
			armed = dl != nil
			lastProgress = progress
		}
	}
}

// stallSnapshot returns a DeadlockError iff every unfinished rank has been
// blocked in a substrate operation for at least the deadline — i.e. the
// world cannot make progress. Ranks busy computing keep the world alive,
// so long local phases never trip the watchdog.
func (w *world) stallSnapshot() *DeadlockError {
	now := time.Now()
	var blocked []BlockedOp
	for r := range w.states {
		s := &w.states[r]
		s.mu.Lock()
		done, isBlocked := s.done, s.blocked
		op, peer, tag, since := s.op, s.peer, s.tag, s.since
		s.mu.Unlock()
		if done {
			continue
		}
		if !isBlocked || now.Sub(since) < w.opt.Watchdog {
			return nil
		}
		blocked = append(blocked, BlockedOp{Rank: r, Op: op, Peer: peer, Tag: tag, For: now.Sub(since)})
	}
	if len(blocked) == 0 {
		return nil
	}
	return &DeadlockError{Deadline: w.opt.Watchdog, Blocked: blocked}
}

// faultStep counts one substrate operation and fires a planned crash.
func (c *Comm) faultStep() {
	f := c.w.opt.Fault
	if f == nil {
		return
	}
	wr := c.worldRank(c.rank)
	c.w.steps[wr]++
	if at, ok := f.Crash[wr]; ok && c.w.steps[wr] == at {
		panic(crashSignal{rank: wr, step: at})
	}
}

// faultDelay sleeps the seeded per-message delay, if one is planned.
func (c *Comm) faultDelay() {
	f := c.w.opt.Fault
	if f == nil || f.MaxDelay <= 0 {
		return
	}
	wr := c.worldRank(c.rank)
	if !c.w.delayOn[wr] {
		return
	}
	if d := time.Duration(c.w.frand[wr].Int63n(int64(f.MaxDelay))); d > 0 {
		time.Sleep(d)
	}
}

// collective notes entry into a named collective for Stats and OnEvent;
// nested collective calls (the Gather inside Allgather, say) are not
// double counted. The returned func must be deferred.
func (c *Comm) collective(name string) func() {
	w := c.w
	wr := c.worldRank(c.rank)
	w.colDepth[wr]++
	if w.colDepth[wr] > 1 {
		return func() { w.colDepth[wr]-- }
	}
	w.stats.Collectives.Add(1)
	obsCollectiveOps.With(name).Inc()
	if w.opt.OnEvent == nil {
		return func() { w.colDepth[wr]-- }
	}
	start := time.Now()
	return func() {
		w.colDepth[wr]--
		w.opt.OnEvent(Event{Rank: wr, Op: name, Peer: -1, Stall: time.Since(start)})
	}
}
