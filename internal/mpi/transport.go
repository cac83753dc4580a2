// The transport seam: everything a real-network substrate must provide to
// run the SPMD algorithms unchanged.
//
// The in-process substrate (mpi.Run and friends) wires ranks with a
// channel matrix inside one process. A Transport replaces exactly that
// wiring — point-to-point delivery with per-(comm,src,dst,tag-stream)
// ordering — while the Comm layer keeps everything else: rank/size
// bookkeeping, traffic accounting via payloadBytes (so per-rank
// message/byte counts are identical across substrates), collectives,
// Split, and the OnEvent trace. internal/mpinet implements Transport over
// TCP; tests can implement it over anything.
//
// Payloads cross a Transport encoded, in the Fixed layout of the
// internal/wire codec: Comm.Send hands the transport a sized,
// not-yet-encoded wire.Sized, and the typed receive every collective is
// built on decodes the bytes Recv returns into its T. Fixed-width integers
// are the widths payloadBytes accounts, so a payload's wire size is its
// accounted size plus one count per slice or string. A transport therefore
// moves opaque bytes and declares nothing.
package mpi

import (
	"fmt"
	"reflect"
	"time"

	"hyperbal/internal/wire"
)

// Transport delivers encoded messages between the ranks of one world whose
// rank processes live behind a network. Ranks passed here are world ranks
// (the Comm layer translates split-communicator ranks). comm identifies
// the communicator (0 is the world communicator; Split derives fresh ids
// deterministically), so streams of different communicators between the
// same pair never cross-match.
//
// Both calls may block (flow control on Send, waiting for a message on
// Recv) and report how long they blocked so the Comm layer can keep the
// Stats stall/blocked-send accounting honest. A returned error is fatal
// for the calling rank: the Comm layer unwinds the rank with it. A lost
// peer should surface as an error wrapping *CrashError so callers can
// detect crashed ranks structurally.
//
// Send must have encoded p (wire.Sized.AppendTo) before it returns. The
// body Recv returns belongs to the caller.
type Transport interface {
	Send(comm uint64, dst, tag int, p wire.Sized) (stall time.Duration, err error)
	Recv(comm uint64, src, tag int) (body []byte, stall time.Duration, err error)
}

// newPayload plans and sizes one message body for a Transport.
func newPayload(data any) (wire.Sized, error) {
	p, err := wire.Prepare(data)
	if err != nil {
		return p, fmt.Errorf("payload %T cannot cross a Transport: %w", data, err)
	}
	return p, nil
}

// decodePayload decodes one whole message body into the value into points
// to.
func decodePayload(body []byte, into any) error {
	if err := wire.Fixed.Decode(body, into); err != nil {
		return fmt.Errorf("mpi: decode %v payload: %w", reflect.TypeOf(into).Elem(), err)
	}
	return nil
}

// transportFailure unwinds a rank goroutine when its Transport fails; the
// RunTransportRank recover translates it back into an error.
type transportFailure struct{ err error }

// RunTransportRank runs fn as world rank `rank` of a size-`size` SPMD
// world whose messaging flows through tr — the per-process entry point of
// a distributed world (each rank process calls it once; a coordinator
// such as mpinet.RunWorld arranges that). The returned Stats hold this
// rank's traffic only; summing them across ranks reproduces the shared
// Stats of an in-process world.
//
// Fault injection is not supported here (Options.Fault must be nil): on a
// real network, delays and reordering are supplied by the network itself
// and crashes by real process death. Watchdog duties belong to the
// transport (e.g. its receive deadline); Options.Watchdog is ignored.
func RunTransportRank(tr Transport, rank, size int, opt Options, fn func(c *Comm) error) (*Stats, error) {
	if size < 1 {
		return nil, fmt.Errorf("mpi: world size must be >= 1, got %d", size)
	}
	if rank < 0 || rank >= size {
		return nil, fmt.Errorf("mpi: rank %d out of range for world size %d", rank, size)
	}
	if opt.Fault != nil {
		return nil, fmt.Errorf("mpi: fault injection is in-process only; a Transport world gets its faults from the real network")
	}
	opt.Watchdog = 0
	opt = opt.normalized()
	w := newWorld(size, opt)
	var err error
	func() {
		defer func() {
			w.finish(rank)
			switch v := recover().(type) {
			case nil:
			case transportFailure:
				err = v.err
			default:
				panic(v)
			}
		}()
		c := newComm(w, nil, rank, size, nil)
		c.tr = tr
		err = fn(c)
	}()
	bridgeStats(w.stats)
	return w.stats, err
}

// deriveCommID computes the communicator id a Split of parent yields for
// one color. It is a pure function of (parent id, split sequence number,
// color), and every rank of the parent communicator executes the same
// Split sequence, so all members of a color agree on the id without any
// extra round trip — and distinct colors (and distinct splits) get
// distinct streams. FNV-1a over the three values; 64 bits make an
// accidental collision between the handful of live communicators of one
// world vanishingly unlikely.
func deriveCommID(parent uint64, seq, color int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range [3]uint64{parent, uint64(int64(seq)), uint64(int64(color))} {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime64
		}
	}
	// Never collide with the world communicator.
	if h == 0 {
		h = 1
	}
	return h
}
