// Package wire provides tiny helpers for encoding and decoding the small
// control payloads (rpc.Message.Meta) exchanged between EvoStore clients
// and providers. All integers are little-endian.
//
// Paper counterpart: the metadata halves of the Mercury RPC payloads
// (paper §4.2) — the fixed-layout structs that ride alongside the bulk
// tensor transfers.
//
// Contracts: Writer and Reader are single-use, not safe for concurrent
// use, and allocation-light by design. Every decode failure surfaces as
// ErrTruncated; a Reader sticks at its first error so callers may check
// Err once at the end. Both ends run one binary, so a control decoder
// checks Err and Remaining() == 0 last and rejects any other length as
// ErrTruncated instead of reading an absent field as a default (see proto).
package wire

import (
	"encoding/binary"
	"errors"
	"math"
)

// ErrTruncated is returned when a reader runs out of bytes.
var ErrTruncated = errors.New("wire: truncated payload")

// Writer accumulates an encoded payload.
type Writer struct{ buf []byte }

// NewWriter returns a writer with the given capacity hint.
func NewWriter(capHint int) *Writer { return &Writer{buf: make([]byte, 0, capHint)} }

// Bytes returns the encoded payload.
func (w *Writer) Bytes() []byte { return w.buf }

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// U32 appends a uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// U64 appends a uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// F64 appends a float64.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bytes32 appends a length-prefixed byte slice (u32 length).
func (w *Writer) Bytes32(b []byte) {
	w.U32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// AppendBytes32 appends a length-prefixed byte slice that appendFn writes
// straight into the payload: the u32 length is reserved first and
// backpatched once appendFn returns, so an encoder (graph.Compact's or
// ownermap.Map's AppendEncode) needs no intermediate slice.
func (w *Writer) AppendBytes32(appendFn func(dst []byte) []byte) {
	at := len(w.buf)
	w.U32(0)
	w.buf = appendFn(w.buf)
	binary.LittleEndian.PutUint32(w.buf[at:], uint32(len(w.buf)-at-4))
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// Reader consumes an encoded payload.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps b.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.err = ErrTruncated
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 reads a uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// F64 reads a float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bytes32 reads a length-prefixed byte slice. The result aliases the
// underlying buffer.
func (r *Reader) Bytes32() []byte {
	n := r.U32()
	if r.err != nil {
		return nil
	}
	if uint64(n) > uint64(r.Remaining()) {
		r.err = ErrTruncated
		return nil
	}
	return r.take(int(n))
}

// Str reads a length-prefixed string. (Not named String to keep the method
// distinct from fmt.Stringer.)
func (r *Reader) Str() string { return string(r.Bytes32()) }
