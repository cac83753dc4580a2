package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrTruncated reports a frame that ended mid-field.
var ErrTruncated = errors.New("wire: truncated frame")

// ErrMalformed reports a frame with an invalid field (bad version, unknown
// flags, a value out of range, or a length prefix that cannot be
// satisfied).
var ErrMalformed = errors.New("wire: malformed frame")

// Reader is a bounds-checked cursor over one frame. The codec and the
// hand-tuned frames it embeds (hypergraph and delta HBW frames) share one
// Reader across a whole message.
type Reader struct {
	data []byte
	off  int
}

// NewReader wraps data; the reader does not copy it.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Rem returns the number of unread bytes.
func (r *Reader) Rem() int { return len(r.data) - r.off }

// Rest returns the unread tail without consuming it.
func (r *Reader) Rest() []byte { return r.data[r.off:] }

// Byte reads one byte.
func (r *Reader) Byte() (byte, error) {
	if r.off >= len(r.data) {
		return 0, ErrTruncated
	}
	b := r.data[r.off]
	r.off++
	return b, nil
}

// Bytes reads n raw bytes (aliasing the frame, not a copy).
func (r *Reader) Bytes(n int) ([]byte, error) {
	if n < 0 || r.Rem() < n {
		return nil, ErrTruncated
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b, nil
}

// Uvarint reads one unsigned varint.
func (r *Reader) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.off:])
	if n == 0 {
		return 0, ErrTruncated
	}
	if n < 0 {
		return 0, fmt.Errorf("%w: uvarint overflow", ErrMalformed)
	}
	r.off += n
	return v, nil
}

// Varint reads one zigzag-encoded signed varint.
func (r *Reader) Varint() (int64, error) {
	v, n := binary.Varint(r.data[r.off:])
	if n == 0 {
		return 0, ErrTruncated
	}
	if n < 0 {
		return 0, fmt.Errorf("%w: varint overflow", ErrMalformed)
	}
	r.off += n
	return v, nil
}

// Count reads a length prefix, rejecting values past limit or past the
// bytes remaining in the frame — the alloc-bomb guard: a decoder may
// allocate Count elements knowing the frame paid at least one byte each.
func (r *Reader) Count(limit int) (int, error) {
	v, err := r.Uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(limit) {
		return 0, fmt.Errorf("%w: length prefix %d exceeds limit %d", ErrMalformed, v, limit)
	}
	if v > uint64(r.Rem()) {
		return 0, fmt.Errorf("%w: length prefix %d exceeds %d remaining bytes", ErrMalformed, v, r.Rem())
	}
	return int(v), nil
}
