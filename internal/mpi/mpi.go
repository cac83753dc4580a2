// Package mpi is an in-process message-passing substrate standing in for
// MPI (the paper's code "is written in C and uses MPI for communication";
// Go has no mature MPI binding, so the SPMD algorithms in this repository
// run on this substrate instead). Ranks are goroutines; a Comm carries
// point-to-point typed messages and the usual collective operations.
//
// Semantics follow MPI where it matters for the algorithms:
//
//   - Send is buffered and non-blocking up to the channel capacity;
//     messages between a pair of ranks are delivered in order.
//   - Recv(src, tag) blocks for the next message from src and verifies the
//     tag, panicking on protocol mismatches (a deliberate fail-fast stance:
//     a tag mismatch is a bug in the algorithm, not a runtime condition).
//     Under reorder injection (FaultPlan.Reorder) matching switches to
//     MPI-style per-tag matching instead.
//   - Ownership of slice payloads transfers with the message: the sender
//     must not mutate a sent buffer (MPI_Send's "don't touch the buffer
//     until complete" rule, made permanent).
//
// Collectives are implemented with simple root-centralized algorithms;
// asymptotic message complexity is not the point of this substrate, but
// per-rank traffic is accounted (Stats) so experiments can report
// communication volume of the partitioner itself.
//
// RunWith adds a fault-injection and diagnostics layer (see fault.go):
// seeded message delays and reordering, rank crashes, a deadlock watchdog
// that replaces ad-hoc test timeouts with a structured DeadlockError, and
// per-operation tracing.
package mpi

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"time"
)

// Stats accumulates substrate traffic, shared by all Comms of a World.
type Stats struct {
	Messages atomic.Int64
	Bytes    atomic.Int64
	// Collectives counts top-level collective operations entered, summed
	// over ranks (an Allreduce on an 8-rank world adds 8). Collectives
	// implemented in terms of other collectives count once.
	Collectives atomic.Int64
	// MaxStall is the longest time, in nanoseconds, any rank spent blocked
	// inside a single substrate operation. Recorded unconditionally, so
	// plain Run/RunStats callers get honest stall numbers too.
	MaxStall atomic.Int64
	// BlockedSends counts sends that could not complete immediately —
	// in-process: the destination channel was full (capacity DefaultChanCap);
	// over a Transport: the flow-control window was exhausted. A nonzero
	// count means receivers are falling behind the senders.
	BlockedSends atomic.Int64
}

// MaxStallDuration returns the max-stall gauge as a time.Duration.
func (s *Stats) MaxStallDuration() time.Duration { return time.Duration(s.MaxStall.Load()) }

type message struct {
	tag  int
	data any
}

// Comm is a communicator over a group of ranks. All collective methods
// must be called by every rank of the communicator.
type Comm struct {
	rank    int
	size    int
	chans   [][]chan message // chans[src][dst]
	w       *world
	worldOf []int // comm rank -> world rank (nil means identity)

	// Transport-backed worlds (RunTransportRank) route point-to-point
	// traffic through tr instead of chans; commID names this communicator
	// on the wire (0 = world) and splitSeq numbers Split calls so derived
	// communicator ids agree across ranks without a round trip.
	tr       Transport
	commID   uint64
	splitSeq int

	// Reorder-injection state (nil unless FaultPlan.Reorder):
	pending [][]message // received-but-unmatched messages, per source
	held    []*message  // sender-side held message, per destination
}

// Rank returns the caller's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return c.size }

// worldRank translates a comm-local rank to its world rank.
func (c *Comm) worldRank(r int) int {
	if c.worldOf == nil {
		return r
	}
	return c.worldOf[r]
}

// DefaultChanCap is the per-pair send buffer capacity (messages) of every
// in-process world. A send beyond it blocks the sender (and counts in
// Stats.BlockedSends). A network transport mirrors it as its flow-control
// window so backpressure behaves the same on both substrates.
const DefaultChanCap = 1024

// newComm wires a communicator of the given world. Each Comm instance
// belongs to exactly one rank goroutine, so its reorder buffers need no
// locking.
func newComm(w *world, chans [][]chan message, rank, size int, worldOf []int) *Comm {
	c := &Comm{rank: rank, size: size, chans: chans, w: w, worldOf: worldOf}
	if w.reorder() {
		c.pending = make([][]message, size)
		c.held = make([]*message, size)
		wr := c.worldRank(rank)
		w.flushers[wr] = append(w.flushers[wr], c.flushHeld)
	}
	return c
}

// Run launches an n-rank SPMD world and waits for all ranks to finish.
// Each rank runs fn with its own Comm. The first non-nil error is
// returned. Panics in ranks propagate.
func Run(n int, fn func(c *Comm) error) error {
	_, err := RunWith(n, Options{}, fn)
	return err
}

// RunStats is Run, also returning the world's traffic counters.
func RunStats(n int, fn func(c *Comm) error) (*Stats, error) {
	return RunWith(n, Options{}, fn)
}

// RunWith is Run with fault injection, watchdog diagnostics and tracing
// (see Options). On a watchdog abort the returned error is (or wraps, when
// a crash fault triggered the stall) a *DeadlockError; injected crashes
// surface as *CrashError. Stats are returned even on error.
func RunWith(n int, opt Options, fn func(c *Comm) error) (*Stats, error) {
	if n < 1 {
		return nil, fmt.Errorf("mpi: world size must be >= 1, got %d", n)
	}
	opt = opt.normalized()
	w := newWorld(n, opt)
	chans := newChanMatrix(n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				w.finish(rank)
				switch v := recover().(type) {
				case nil:
				case crashSignal:
					errs[rank] = &CrashError{Rank: v.rank, Step: v.step}
				case abortSignal:
					errs[rank] = errAborted
				default:
					panic(v)
				}
			}()
			c := newComm(w, chans, rank, n, nil)
			errs[rank] = fn(c)
			w.flushRank(rank)
		}(r)
	}
	if opt.Watchdog > 0 {
		go w.watchdog()
	}
	wg.Wait()
	close(w.stopc)
	var first error
	for _, err := range errs {
		if err != nil && first == nil && !errors.Is(err, errAborted) {
			first = err
		}
	}
	bridgeStats(w.stats)
	if dl := w.deadlock.Load(); dl != nil {
		if first == nil {
			return w.stats, dl
		}
		return w.stats, errors.Join(first, dl)
	}
	return w.stats, first
}

func newChanMatrix(n int) [][]chan message {
	chans := make([][]chan message, n)
	for i := range chans {
		chans[i] = make([]chan message, n)
		for j := range chans[i] {
			chans[i][j] = make(chan message, DefaultChanCap)
		}
	}
	return chans
}

// Send delivers data to dst with the given tag. Ownership of slice
// payloads transfers to the receiver.
func (c *Comm) Send(dst, tag int, data any) {
	if dst < 0 || dst >= c.size {
		panic(fmt.Sprintf("mpi: send to rank %d, world size %d", dst, c.size))
	}
	c.faultStep()
	c.faultDelay()
	nb := payloadBytes(data)
	c.w.stats.Messages.Add(1)
	c.w.stats.Bytes.Add(nb)
	var stall time.Duration
	if c.tr != nil {
		p, err := newPayload(data)
		if err == nil {
			stall, err = c.tr.Send(c.commID, c.worldRank(dst), tag, p)
		}
		if err != nil {
			panic(transportFailure{err: fmt.Errorf("mpi: send to rank %d: %w", c.worldRank(dst), err)})
		}
		if stall > 0 {
			c.w.stats.BlockedSends.Add(1)
			c.w.noteStall(stall)
		}
	} else {
		stall = c.deliver(dst, message{tag: tag, data: data})
	}
	if hook := c.w.opt.OnEvent; hook != nil {
		hook(Event{Rank: c.worldRank(c.rank), Op: "send", Peer: c.worldRank(dst), Tag: tag, Bytes: nb, Stall: stall})
	}
}

// deliver routes a message to dst, applying reorder injection when
// enabled, and returns how long the send blocked. Under injection the
// sender may hold one message per destination back so that a later
// message with a *different* tag overtakes it; order within one
// (src,dst,tag) stream is always preserved.
func (c *Comm) deliver(dst int, m message) time.Duration {
	if c.held == nil {
		return c.push(dst, m)
	}
	rng := c.w.frand[c.worldRank(c.rank)]
	var stall time.Duration
	if h := c.held[dst]; h != nil && (h.tag == m.tag || rng.Intn(2) == 0) {
		c.held[dst] = nil
		stall += c.push(dst, *h)
	}
	if c.held[dst] == nil && rng.Intn(2) == 0 {
		held := m
		c.held[dst] = &held
		return stall
	}
	return stall + c.push(dst, m)
}

// push writes to the wire, abort-aware and stall-tracked.
func (c *Comm) push(dst int, m message) time.Duration {
	ch := c.chans[c.rank][dst]
	select {
	case ch <- m:
		return 0
	default:
	}
	c.w.stats.BlockedSends.Add(1)
	end := c.w.enterBlocked(c.worldRank(c.rank), "send", c.worldRank(dst), m.tag)
	select {
	case ch <- m:
		return end()
	case <-c.w.abort:
		end()
		panic(abortSignal{})
	}
}

// flushHeld delivers every held (reorder-injected) message. Called before
// any potentially blocking receive and when the rank finishes, so a hold
// can never starve a peer.
func (c *Comm) flushHeld() {
	for dst, h := range c.held {
		if h != nil {
			c.held[dst] = nil
			c.push(dst, *h)
		}
	}
}

// Recv blocks for the next message from src and returns its payload,
// panicking if the tag differs (protocol error). Under reorder injection
// it performs MPI-style tag matching instead: non-matching messages are
// buffered until asked for.
//
// Over a Transport a payload arrives encoded and only a receive that
// knows its type can decode it — recvAs, which every collective uses — so
// there Recv accepts just the empty body of a nil message (a bare
// synchronisation token) and fails the rank on anything else.
func (c *Comm) Recv(src, tag int) any {
	if c.tr != nil {
		c.recvWire(src, tag, nil)
		return nil
	}
	c.enterRecv(src)
	if c.held != nil {
		c.w.flushRank(c.worldRank(c.rank))
	}
	m, stall := c.fetch(src, tag)
	if hook := c.w.opt.OnEvent; hook != nil {
		hook(Event{Rank: c.worldRank(c.rank), Op: "recv", Peer: c.worldRank(src), Tag: tag, Bytes: payloadBytes(m.data), Stall: stall})
	}
	return m.data
}

func (c *Comm) enterRecv(src int) {
	if src < 0 || src >= c.size {
		panic(fmt.Sprintf("mpi: recv from rank %d, world size %d", src, c.size))
	}
	c.faultStep()
}

// recvAs is the typed receive the collectives are built on: in-process
// the payload is the sender's value itself; over a Transport it is
// decoded into T here, the one place that knows the type.
func recvAs[T any](c *Comm, src, tag int) T {
	if c.tr == nil {
		return c.Recv(src, tag).(T)
	}
	var out T
	c.recvWire(src, tag, &out)
	return out
}

// recvWire receives one message from the transport into the value into
// points to; a nil into expects the empty body.
func (c *Comm) recvWire(src, tag int, into any) {
	c.enterRecv(src)
	body, stall, err := c.tr.Recv(c.commID, c.worldRank(src), tag)
	switch {
	case err != nil:
	case into != nil:
		err = decodePayload(body, into)
	case len(body) != 0:
		err = fmt.Errorf("untyped Recv of a %d-byte payload; only a collective's typed receive can decode it", len(body))
	}
	if err != nil {
		panic(transportFailure{err: fmt.Errorf("mpi: recv from rank %d: %w", c.worldRank(src), err)})
	}
	if stall > 0 {
		c.w.noteStall(stall)
	}
	if hook := c.w.opt.OnEvent; hook != nil {
		hook(Event{Rank: c.worldRank(c.rank), Op: "recv", Peer: c.worldRank(src), Tag: tag, Bytes: payloadBytes(into), Stall: stall})
	}
}

// fetch returns the next message from src with the given tag.
func (c *Comm) fetch(src, tag int) (message, time.Duration) {
	if c.pending != nil {
		q := c.pending[src]
		for i, m := range q {
			if m.tag == tag {
				c.pending[src] = append(q[:i], q[i+1:]...)
				return m, 0
			}
		}
		var stall time.Duration
		for {
			m, st := c.take(src, tag)
			stall += st
			if m.tag == tag {
				return m, stall
			}
			c.pending[src] = append(c.pending[src], m)
		}
	}
	m, stall := c.take(src, tag)
	if m.tag != tag {
		panic(fmt.Sprintf("mpi: rank %d expected tag %d from %d, got %d", c.rank, tag, src, m.tag))
	}
	return m, stall
}

// take reads the next raw message from src, abort-aware and stall-tracked.
func (c *Comm) take(src, tag int) (message, time.Duration) {
	ch := c.chans[src][c.rank]
	select {
	case m := <-ch:
		return m, 0
	default:
	}
	end := c.w.enterBlocked(c.worldRank(c.rank), "recv", c.worldRank(src), tag)
	select {
	case m := <-ch:
		return m, end()
	case <-c.w.abort:
		end()
		panic(abortSignal{})
	}
}

// payloadBytes approximates the wire size of a payload: fast paths for the
// common scalar and slice types, a structural reflection walk for
// everything else (struct slices like match bids and move proposals are
// accounted at their packed field size, so the traffic numbers reported
// for the parallel partitioners are real, not "8 bytes per opaque value").
func payloadBytes(data any) int64 {
	switch v := data.(type) {
	case nil:
		return 0
	case []int32:
		return int64(4 * len(v))
	case []int64:
		return int64(8 * len(v))
	case []float64:
		return int64(8 * len(v))
	case []byte:
		return int64(len(v))
	case string:
		return int64(len(v))
	case int, int64, uint64, float64:
		return 8
	case int32, uint32, float32:
		return 4
	case int16, uint16:
		return 2
	case int8, uint8, bool:
		return 1
	}
	return wireSize(reflect.ValueOf(data))
}

// wireSize walks a value structurally: fixed-width kinds by width,
// strings and slices by element, structs field by field. Reference kinds
// (chan, func, map) count as one word; the substrate only ships those in
// internal bootstrap payloads (Split's channel matrix).
func wireSize(v reflect.Value) int64 {
	switch v.Kind() {
	case reflect.Invalid:
		return 0
	case reflect.Bool, reflect.Int8, reflect.Uint8:
		return 1
	case reflect.Int16, reflect.Uint16:
		return 2
	case reflect.Int32, reflect.Uint32, reflect.Float32:
		return 4
	case reflect.Int, reflect.Int64, reflect.Uint, reflect.Uint64, reflect.Uintptr, reflect.Float64, reflect.Complex64:
		return 8
	case reflect.Complex128:
		return 16
	case reflect.String:
		return int64(v.Len())
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice && v.IsNil() {
			return 0
		}
		if sz, fixed := fixedWireSize(v.Type().Elem()); fixed {
			return sz * int64(v.Len())
		}
		var total int64
		for i := 0; i < v.Len(); i++ {
			total += wireSize(v.Index(i))
		}
		return total
	case reflect.Struct:
		var total int64
		for i := 0; i < v.NumField(); i++ {
			total += wireSize(v.Field(i))
		}
		return total
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			return 0
		}
		return wireSize(v.Elem())
	default: // chan, func, map, unsafe pointer: opaque word
		return 8
	}
}

// fixedWireSize reports the wire size of t when every value of t has the
// same size (no strings, slices, interfaces or pointers anywhere), letting
// slice accounting skip the per-element walk.
func fixedWireSize(t reflect.Type) (int64, bool) {
	switch t.Kind() {
	case reflect.Bool, reflect.Int8, reflect.Uint8:
		return 1, true
	case reflect.Int16, reflect.Uint16:
		return 2, true
	case reflect.Int32, reflect.Uint32, reflect.Float32:
		return 4, true
	case reflect.Int, reflect.Int64, reflect.Uint, reflect.Uint64, reflect.Uintptr, reflect.Float64, reflect.Complex64:
		return 8, true
	case reflect.Complex128:
		return 16, true
	case reflect.Array:
		sz, ok := fixedWireSize(t.Elem())
		return sz * int64(t.Len()), ok
	case reflect.Struct:
		var total int64
		for i := 0; i < t.NumField(); i++ {
			sz, ok := fixedWireSize(t.Field(i).Type)
			if !ok {
				return 0, false
			}
			total += sz
		}
		return total, true
	}
	return 0, false
}

// Split partitions the communicator into disjoint sub-communicators by
// color (ranks passing the same color share a new Comm; ranks are ordered
// by key, ties by old rank). Every rank of c must call Split. A negative
// color returns nil (the rank does not participate; mirrors
// MPI_UNDEFINED).
func (c *Comm) Split(color, key int) *Comm {
	defer c.collective("split")()
	seq := c.splitSeq
	c.splitSeq++ // counted for every rank, participating or not, so ids agree
	all := Allgather(c, splitEntry{color, key, c.rank})
	if color < 0 {
		return nil
	}
	var members []splitEntry
	for _, e := range all {
		if e.Color == color {
			members = append(members, e)
		}
	}
	// order by (key, rank)
	for i := 1; i < len(members); i++ {
		for j := i; j > 0 && (members[j].Key < members[j-1].Key ||
			(members[j].Key == members[j-1].Key && members[j].Rank < members[j-1].Rank)); j-- {
			members[j], members[j-1] = members[j-1], members[j]
		}
	}
	newRank := -1
	worldOf := make([]int, len(members))
	for i, e := range members {
		if e.Rank == c.rank {
			newRank = i
		}
		worldOf[i] = c.worldRank(e.Rank)
	}
	sub := newComm(c.w, nil, newRank, len(members), worldOf)
	if c.tr != nil {
		// Over a transport the sub-communicator needs no new wiring, just a
		// fresh stream id; every member derives the same one locally.
		sub.tr = c.tr
		sub.commID = deriveCommID(c.commID, seq, color)
		return sub
	}
	// The split communicator gets fresh channels. Build them cooperatively:
	// the lowest old rank of each color allocates and distributes.
	if newRank == 0 {
		sub.chans = newChanMatrix(len(members))
		for i := 1; i < len(members); i++ {
			c.Send(members[i].Rank, tagSplit, sub.chans)
		}
	} else {
		sub.chans = c.Recv(members[0].Rank, tagSplit).([][]chan message)
	}
	return sub
}

// splitEntry is Split's allgather payload.
type splitEntry struct{ Color, Key, Rank int }

// Internal collective tags (user tags are free-form; collisions avoided by
// the strict matched-order discipline).
const (
	tagSplit = -1000 - iota
	_        // retired; kept so the tags below, and the frame bytes that carry them, do not move
	tagGather
	tagBcast
)
