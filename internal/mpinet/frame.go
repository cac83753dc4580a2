// Package mpinet is the real-network half of the MPI substrate: a TCP
// transport implementing mpi.Transport plus the worker/coordinator pair
// that launches an SPMD world whose ranks live in separate processes. The
// parallel hypergraph partitioner (phg, the one job internal/mpinet/jobs
// registers) runs over it unchanged and — by the parallelism-invariance
// the in-process substrate already proves — produces byte-identical
// partitions.
//
// Wire format ("HBN", hyperbal net): every frame is
//
//	"HBN" version(1) kind(1) uvarint(bodyLen) body
//
// The control bodies (hello, launch, result, error) are declared structs
// in the internal/wire codec's Varint layout, so every count is checked
// against the bytes actually present and hostile input yields clean
// errors, never panics or allocation bombs; each body's validate holds
// its caps.
//
// A msg frame's body is (comm, src, tag) followed by the payload exactly
// as mpi lays it out (internal/wire's Fixed layout). That header is the
// allocation-pinned hot path and stays hand-written. The transport never
// looks inside the payload: the sender writes header, fields and payload
// into one buffer sized up front, and the receiver hands the tail of the
// frame body to the typed receive that knows what it holds. A frame of
// an older version is rejected at its version byte, never mis-decoded
// (DESIGN §14.2 keeps the version history).
package mpinet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"hyperbal/internal/wire"
)

const (
	frameMagic   = "HBN"
	frameVersion = 6
)

// Frame kinds. hello/helloAck establish mesh connections between rank
// processes; launch/result/error flow on the coordinator's control
// connection; msg carries one substrate message between two ranks.
const (
	frameHello byte = iota + 1
	frameHelloAck
	frameLaunch
	frameMsg
	frameResult
	frameError
)

// Hostile-input bounds, in the spirit of hypergraph.MaxWireVertices.
const (
	maxWorldIDLen = 64
	maxJobNameLen = 256
	maxAddrCount  = 1024
	maxAddrLen    = 256
	maxErrMsgLen  = 4096

	// DefaultMaxFrame bounds one frame body; a length prefix past it is
	// rejected before any allocation.
	DefaultMaxFrame = 64 << 20
	// eagerBody is the longest body readFrame allocates whole before its
	// bytes arrive; a longer one doubles per full read.
	eagerBody = 256 << 10
)

var (
	errBadMagic  = errors.New("mpinet: bad frame magic")
	errMalformed = errors.New("mpinet: malformed frame")
)

// appendFrameHeader appends the fixed header plus the body length.
func appendFrameHeader(buf []byte, kind byte, bodyLen int) []byte {
	buf = append(buf, frameMagic...)
	buf = append(buf, frameVersion, kind)
	return binary.AppendUvarint(buf, uint64(bodyLen))
}

// appendFrame appends one whole frame.
func appendFrame(buf []byte, kind byte, body []byte) []byte {
	return append(appendFrameHeader(buf, kind, len(body)), body...)
}

// readFrame reads one frame from a stream, also reporting how many stream
// bytes it consumed. A body past DefaultMaxFrame is refused before any
// allocation, and one past eagerBody grows as its bytes arrive, so a
// length prefix that lies costs eagerBody or twice what the peer really
// sent, whichever is more. Returned body is freshly allocated (safe to
// retain). io.EOF is returned verbatim when the stream ends cleanly
// between frames.
func readFrame(br *bufio.Reader) (kind byte, body []byte, consumed int, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return 0, nil, 0, fmt.Errorf("%w: truncated header", errMalformed)
		}
		return 0, nil, 0, err
	}
	if string(hdr[:3]) != frameMagic {
		return 0, nil, 0, errBadMagic
	}
	if hdr[3] != frameVersion {
		return 0, nil, 0, fmt.Errorf("%w: version %d", errMalformed, hdr[3])
	}
	kind = hdr[4]
	if kind < frameHello || kind > frameError {
		return 0, nil, 0, fmt.Errorf("%w: unknown kind %d", errMalformed, kind)
	}
	// binary.ReadUvarint, counting: the length may be encoded in more bytes
	// than its value needs.
	var n uint64
	consumed = len(hdr)
	for shift := uint(0); ; shift += 7 {
		b, err := br.ReadByte()
		if err != nil || shift > 63 || (shift == 63 && b > 1) {
			return 0, nil, 0, fmt.Errorf("%w: body length", errMalformed)
		}
		consumed++
		n |= uint64(b&0x7f) << shift
		if b < 0x80 {
			break
		}
	}
	if n > DefaultMaxFrame {
		return 0, nil, 0, fmt.Errorf("%w: body length %d exceeds limit %d", errMalformed, n, DefaultMaxFrame)
	}
	body = make([]byte, min(n, eagerBody))
	for read := 0; ; {
		if _, err := io.ReadFull(br, body[read:]); err != nil {
			return 0, nil, 0, fmt.Errorf("%w: truncated body", errMalformed)
		}
		if uint64(len(body)) == n {
			return kind, body, consumed + len(body), nil
		}
		read = len(body)
		body = append(body, make([]byte, min(n-uint64(read), uint64(read)))...)
	}
}

// control is the body of a hello, launch, result or error frame.
type control interface{ validate() error }

// appendControl appends one whole control frame whose body is c, a
// control value.
func appendControl(buf []byte, kind byte, c control) []byte {
	body, err := wire.Varint.Append(nil, c)
	if err != nil {
		panic(err) // every control body is a declared struct, which always has a layout
	}
	return appendFrame(buf, kind, body)
}

// parseControl decodes a control frame body into c, a pointer to a
// control value.
func parseControl(body []byte, c control) error {
	if err := wire.Varint.Decode(body, c); err != nil {
		return fmt.Errorf("%w: %T: %v", errMalformed, c, err)
	}
	return c.validate()
}

func malformed(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{errMalformed}, args...)...)
}

// helloBody introduces a mesh connection: "rank Rank of world WorldID is
// on this conn". Acked with an empty helloAck frame once attached.
type helloBody struct {
	WorldID string
	Rank    int
}

func (h helloBody) validate() error {
	if len(h.WorldID) > maxWorldIDLen || h.Rank < 0 || h.Rank > maxAddrCount {
		return malformed("hello from rank %d of a %d-byte world id", h.Rank, len(h.WorldID))
	}
	return nil
}

// launchBody tells a worker to become one rank of a world.
type launchBody struct {
	WorldID     string
	Rank, Size  int
	Job         string
	Addrs       []string // worker addresses, indexed by rank
	RecvTimeout time.Duration
	Jitter      time.Duration
	JitterSeed  int64
	Payload     []byte // job input, opaque to the transport
}

func (l launchBody) validate() error {
	switch {
	case len(l.WorldID) > maxWorldIDLen:
		return malformed("launch world id of %d bytes", len(l.WorldID))
	case l.Size < 1 || l.Size > maxAddrCount || l.Rank < 0 || l.Rank >= l.Size:
		return malformed("launch rank %d of %d", l.Rank, l.Size)
	case len(l.Job) > maxJobNameLen:
		return malformed("launch job name of %d bytes", len(l.Job))
	case len(l.Addrs) != l.Size:
		return malformed("launch carries %d addrs for %d ranks", len(l.Addrs), l.Size)
	case l.RecvTimeout < 0 || l.RecvTimeout > 24*time.Hour:
		return malformed("launch recv timeout %v", l.RecvTimeout)
	case l.Jitter < 0 || l.Jitter > time.Hour:
		return malformed("launch jitter %v", l.Jitter)
	}
	for i, a := range l.Addrs {
		if len(a) > maxAddrLen {
			return malformed("launch addr %d of %d bytes", i, len(a))
		}
	}
	return nil
}

// msgBody is one substrate message: communicator stream, source world
// rank, tag, and the payload as mpi encoded it. A parsed Payload
// aliases the frame body.
type msgBody struct {
	Comm    uint64
	Src     int
	Tag     int
	Payload []byte
}

// appendMsgFrame builds one complete msg frame around p in a single
// allocation of exactly the frame's size.
func appendMsgFrame(comm uint64, src, tag int, p wire.Sized) []byte {
	var fieldBuf [3 * binary.MaxVarintLen64]byte
	fields := binary.AppendUvarint(fieldBuf[:0], comm)
	fields = binary.AppendUvarint(fields, uint64(src))
	fields = binary.AppendVarint(fields, int64(tag))
	var headBuf [len(frameMagic) + 2 + binary.MaxVarintLen64]byte
	head := appendFrameHeader(headBuf[:0], frameMsg, len(fields)+p.Size())

	buf := make([]byte, 0, len(head)+len(fields)+p.Size())
	buf = append(buf, head...)
	buf = append(buf, fields...)
	return p.AppendTo(buf)
}

func parseMsg(body []byte) (msgBody, error) {
	r := wire.NewReader(body)
	var m msgBody
	var err error
	if m.Comm, err = r.Uvarint(); err != nil {
		return m, fmt.Errorf("%w: msg comm", errMalformed)
	}
	src, err := r.Uvarint()
	if err != nil || src > uint64(maxAddrCount) {
		return m, fmt.Errorf("%w: msg src", errMalformed)
	}
	m.Src = int(src)
	tag, err := r.Varint()
	if err != nil || tag < -1<<31 || tag > 1<<31 {
		return m, fmt.Errorf("%w: msg tag", errMalformed)
	}
	m.Tag = int(tag)
	m.Payload = r.Rest()
	return m, nil
}

// A result frame's body is the finished rank's RankResult: its traffic
// stats and job output.

func (r RankResult) validate() error {
	for _, n := range []int64{r.Messages, r.Bytes, r.Collectives, r.BlockedSends, int64(r.MaxStall)} {
		if n < 0 || n > 1<<62 {
			return malformed("result counter %d", n)
		}
	}
	return nil
}

// Error kinds carried by frameError.
const (
	errKindGeneric byte = iota
	errKindCrash
	errKindStall
)

// errorBody reports a failed rank: generic job errors, structured crash
// (a peer died — Rank names the dead world rank), or a stalled receive.
type errorBody struct {
	Kind byte
	Rank int
	Step int
	Msg  string
}

func (e errorBody) validate() error {
	switch {
	case e.Kind > errKindStall:
		return malformed("error kind %d", e.Kind)
	case e.Rank < -1 || e.Rank > maxAddrCount:
		return malformed("error rank %d", e.Rank)
	case e.Step < 0 || e.Step > 1<<62:
		return malformed("error step %d", e.Step)
	case len(e.Msg) > maxErrMsgLen:
		return malformed("error message of %d bytes", len(e.Msg))
	}
	return nil
}
