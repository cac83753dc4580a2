// Package mpinet is the real-network half of the MPI substrate: a TCP
// transport implementing mpi.Transport plus the worker/coordinator pair
// that launches an SPMD world whose ranks live in separate processes. The
// SPMD partitioners (phg, pgp) run over it unchanged, and — by the
// parallelism-invariance the in-process substrate already proves — produce
// byte-identical partitions.
//
// Wire format ("HBN", hyperbal net): every frame is
//
//	"HBN" version(1) kind(1) uvarint(bodyLen) body
//
// with varint-packed bodies in the same bounds-checked discipline as the
// HBW hypergraph codec (internal/hypergraph/wirebin.go): every count is
// capped and checked against the bytes actually present, so hostile input
// yields clean errors, never panics or allocation bombs.
//
// A msg frame's body is (comm, src, tag) followed by the payload exactly
// as mpi's codec lays it out (internal/mpi/codec.go). The transport never
// looks inside: the sender writes header, fields and payload into one
// buffer sized up front, and the receiver hands the tail of the frame body
// to the typed receive that knows what it holds. Version 2 dropped the
// per-message type name (and the gob stream behind it) that version 1
// carried; a version-1 frame is rejected, never mis-decoded.
package mpinet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"hyperbal/internal/hypergraph"
	"hyperbal/internal/mpi"
)

const (
	frameMagic   = "HBN"
	frameVersion = 2
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
// bytes it consumed. Returned body is freshly allocated (safe to retain).
// io.EOF is returned verbatim when the stream ends cleanly between frames.
func readFrame(br *bufio.Reader, maxFrame int) (kind byte, body []byte, consumed int, err error) {
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
	if n > uint64(maxFrame) {
		return 0, nil, 0, fmt.Errorf("%w: body length %d exceeds limit %d", errMalformed, n, maxFrame)
	}
	body = make([]byte, n)
	if _, err := io.ReadFull(br, body); err != nil {
		return 0, nil, 0, fmt.Errorf("%w: truncated body", errMalformed)
	}
	return kind, body, consumed + len(body), nil
}

// decodeFrame parses one frame from a byte slice (the fuzzable entry
// point; readFrame is its streaming twin). The body aliases data.
func decodeFrame(data []byte, maxFrame int) (kind byte, body []byte, rest []byte, err error) {
	r := hypergraph.NewBinReader(data)
	magic, err := r.Bytes(3)
	if err != nil || string(magic) != frameMagic {
		return 0, nil, nil, errBadMagic
	}
	ver, err := r.Byte()
	if err != nil {
		return 0, nil, nil, fmt.Errorf("%w: truncated header", errMalformed)
	}
	if ver != frameVersion {
		return 0, nil, nil, fmt.Errorf("%w: version %d", errMalformed, ver)
	}
	kind, err = r.Byte()
	if err != nil {
		return 0, nil, nil, fmt.Errorf("%w: truncated header", errMalformed)
	}
	if kind < frameHello || kind > frameError {
		return 0, nil, nil, fmt.Errorf("%w: unknown kind %d", errMalformed, kind)
	}
	n, err := r.Uvarint()
	if err != nil {
		return 0, nil, nil, fmt.Errorf("%w: body length", errMalformed)
	}
	if n > uint64(maxFrame) {
		return 0, nil, nil, fmt.Errorf("%w: body length %d exceeds limit %d", errMalformed, n, maxFrame)
	}
	body, err = r.Bytes(int(n))
	if err != nil {
		return 0, nil, nil, fmt.Errorf("%w: truncated body", errMalformed)
	}
	return kind, body, r.Rest(), nil
}

// ---- body codecs ----

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func readString(r *hypergraph.BinReader, limit int) (string, error) {
	n, err := r.Count(limit)
	if err != nil {
		return "", err
	}
	b, err := r.Bytes(n)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// helloBody introduces a mesh connection: "rank Rank of world WorldID is
// on this conn". Acked with an empty helloAck frame once attached.
type helloBody struct {
	WorldID string
	Rank    int
}

func (h helloBody) encode() []byte {
	buf := appendString(nil, h.WorldID)
	return binary.AppendUvarint(buf, uint64(h.Rank))
}

func parseHello(body []byte) (helloBody, error) {
	r := hypergraph.NewBinReader(body)
	var h helloBody
	var err error
	if h.WorldID, err = readString(r, maxWorldIDLen); err != nil {
		return h, fmt.Errorf("%w: hello world id: %v", errMalformed, err)
	}
	rank, err := r.Uvarint()
	if err != nil || rank > uint64(maxAddrCount) {
		return h, fmt.Errorf("%w: hello rank", errMalformed)
	}
	h.Rank = int(rank)
	if r.Rem() != 0 {
		return h, fmt.Errorf("%w: %d trailing bytes after hello", errMalformed, r.Rem())
	}
	return h, nil
}

// launchBody tells a worker to become one rank of a world.
type launchBody struct {
	WorldID     string
	Rank, Size  int
	Job         string
	Addrs       []string // worker addresses, indexed by rank
	SendWindow  int
	RecvTimeout time.Duration
	Jitter      time.Duration
	JitterSeed  int64
	Payload     []byte // job input, opaque to the transport
}

func (l launchBody) encode() []byte {
	buf := appendString(nil, l.WorldID)
	buf = binary.AppendUvarint(buf, uint64(l.Rank))
	buf = binary.AppendUvarint(buf, uint64(l.Size))
	buf = appendString(buf, l.Job)
	buf = binary.AppendUvarint(buf, uint64(len(l.Addrs)))
	for _, a := range l.Addrs {
		buf = appendString(buf, a)
	}
	buf = binary.AppendUvarint(buf, uint64(l.SendWindow))
	buf = binary.AppendUvarint(buf, uint64(l.RecvTimeout))
	buf = binary.AppendUvarint(buf, uint64(l.Jitter))
	buf = binary.AppendVarint(buf, l.JitterSeed)
	return append(buf, l.Payload...)
}

func parseLaunch(body []byte) (launchBody, error) {
	r := hypergraph.NewBinReader(body)
	var l launchBody
	var err error
	if l.WorldID, err = readString(r, maxWorldIDLen); err != nil {
		return l, fmt.Errorf("%w: launch world id: %v", errMalformed, err)
	}
	rank, err := r.Uvarint()
	if err != nil {
		return l, fmt.Errorf("%w: launch rank", errMalformed)
	}
	size, err := r.Uvarint()
	if err != nil || size == 0 || size > maxAddrCount || rank >= size {
		return l, fmt.Errorf("%w: launch rank/size", errMalformed)
	}
	l.Rank, l.Size = int(rank), int(size)
	if l.Job, err = readString(r, maxJobNameLen); err != nil {
		return l, fmt.Errorf("%w: launch job: %v", errMalformed, err)
	}
	na, err := r.Count(maxAddrCount)
	if err != nil || na != l.Size {
		return l, fmt.Errorf("%w: launch addr count", errMalformed)
	}
	l.Addrs = make([]string, na)
	for i := range l.Addrs {
		if l.Addrs[i], err = readString(r, maxAddrLen); err != nil {
			return l, fmt.Errorf("%w: launch addr %d: %v", errMalformed, i, err)
		}
	}
	win, err := r.Uvarint()
	if err != nil || win > 1<<24 {
		return l, fmt.Errorf("%w: launch send window", errMalformed)
	}
	l.SendWindow = int(win)
	rt, err := r.Uvarint()
	if err != nil || rt > uint64(24*time.Hour) {
		return l, fmt.Errorf("%w: launch recv timeout", errMalformed)
	}
	l.RecvTimeout = time.Duration(rt)
	jit, err := r.Uvarint()
	if err != nil || jit > uint64(time.Hour) {
		return l, fmt.Errorf("%w: launch jitter", errMalformed)
	}
	l.Jitter = time.Duration(jit)
	if l.JitterSeed, err = r.Varint(); err != nil {
		return l, fmt.Errorf("%w: launch jitter seed", errMalformed)
	}
	l.Payload = r.Rest()
	return l, nil
}

// msgBody is one substrate message: communicator stream, source world
// rank, tag, and the payload as mpi's codec encoded it. A parsed Payload
// aliases the frame body.
type msgBody struct {
	Comm    uint64
	Src     int
	Tag     int
	Payload []byte
}

// appendMsgFrame builds one complete msg frame around p in a single
// allocation of exactly the frame's size.
func appendMsgFrame(comm uint64, src, tag int, p mpi.Payload) []byte {
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
	r := hypergraph.NewBinReader(body)
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

// resultBody carries one finished rank's traffic stats and job output
// back to the coordinator.
type resultBody struct {
	Messages     int64
	Bytes        int64
	Collectives  int64
	BlockedSends int64
	MaxStallNs   int64
	Payload      []byte
}

func (res resultBody) encode() []byte {
	buf := binary.AppendUvarint(nil, uint64(res.Messages))
	buf = binary.AppendUvarint(buf, uint64(res.Bytes))
	buf = binary.AppendUvarint(buf, uint64(res.Collectives))
	buf = binary.AppendUvarint(buf, uint64(res.BlockedSends))
	buf = binary.AppendUvarint(buf, uint64(res.MaxStallNs))
	return append(buf, res.Payload...)
}

func parseResult(body []byte) (resultBody, error) {
	r := hypergraph.NewBinReader(body)
	var res resultBody
	for _, dst := range []*int64{&res.Messages, &res.Bytes, &res.Collectives, &res.BlockedSends, &res.MaxStallNs} {
		v, err := r.Uvarint()
		if err != nil || v > 1<<62 {
			return res, fmt.Errorf("%w: result counter", errMalformed)
		}
		*dst = int64(v)
	}
	res.Payload = r.Rest()
	return res, nil
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

func (e errorBody) encode() []byte {
	buf := []byte{e.Kind}
	buf = binary.AppendVarint(buf, int64(e.Rank))
	buf = binary.AppendUvarint(buf, uint64(e.Step))
	return appendString(buf, e.Msg)
}

func parseError(body []byte) (errorBody, error) {
	r := hypergraph.NewBinReader(body)
	var e errorBody
	var err error
	if e.Kind, err = r.Byte(); err != nil || e.Kind > errKindStall {
		return e, fmt.Errorf("%w: error kind", errMalformed)
	}
	rank, err := r.Varint()
	if err != nil || rank < -1 || rank > int64(maxAddrCount) {
		return e, fmt.Errorf("%w: error rank", errMalformed)
	}
	e.Rank = int(rank)
	step, err := r.Uvarint()
	if err != nil || step > 1<<62 {
		return e, fmt.Errorf("%w: error step", errMalformed)
	}
	e.Step = int(step)
	if e.Msg, err = readString(r, maxErrMsgLen); err != nil {
		return e, fmt.Errorf("%w: error message: %v", errMalformed, err)
	}
	if r.Rem() != 0 {
		return e, fmt.Errorf("%w: %d trailing bytes after error", errMalformed, r.Rem())
	}
	return e, nil
}
