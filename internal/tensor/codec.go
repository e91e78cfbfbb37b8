package tensor

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Binary layout of an encoded tensor:
//
//	u16 name length | name bytes
//	u8  dtype
//	u8  rank
//	rank × u32 dims
//	u64 data length | data bytes
//
// All integers are little-endian. The format is self-delimiting so tensors
// can be concatenated into consolidated segments and decoded in sequence.

// EncodedSize returns the number of bytes Encode will produce for t.
func (t *Tensor) EncodedSize() int {
	return 2 + len(t.Name) + 1 + 1 + 4*len(t.Shape) + 8 + len(t.Data)
}

// AppendEncode appends the binary encoding of t to dst and returns the
// extended slice.
func (t *Tensor) AppendEncode(dst []byte) []byte {
	if len(t.Name) > 0xffff {
		panic("tensor: name too long to encode")
	}
	if len(t.Shape) > 0xff {
		panic("tensor: rank too large to encode")
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(t.Name)))
	dst = append(dst, t.Name...)
	dst = append(dst, byte(t.DType), byte(len(t.Shape)))
	for _, d := range t.Shape {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(d))
	}
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(t.Data)))
	dst = append(dst, t.Data...)
	return dst
}

// Encode returns the binary encoding of t.
func (t *Tensor) Encode() []byte {
	return t.AppendEncode(make([]byte, 0, t.EncodedSize()))
}

// Decode parses one encoded tensor from the front of b, returning the tensor
// and the number of bytes consumed. The returned tensor's Data aliases b,
// capped at its own length: writing it writes b, and an append to it
// reallocates instead of overwriting what follows it in b. Callers that
// need an independent copy must Clone it.
func Decode(b []byte) (*Tensor, int, error) {
	if len(b) < 2 {
		return nil, 0, io.ErrUnexpectedEOF
	}
	nameLen := int(binary.LittleEndian.Uint16(b))
	off := 2
	if len(b) < off+nameLen+2 {
		return nil, 0, io.ErrUnexpectedEOF
	}
	name := string(b[off : off+nameLen])
	off += nameLen
	dt := DType(b[off])
	if dt > Uint8 {
		return nil, 0, fmt.Errorf("tensor: bad dtype byte %d", b[off])
	}
	rank := int(b[off+1])
	off += 2
	if len(b) < off+4*rank+8 {
		return nil, 0, io.ErrUnexpectedEOF
	}
	shape := make([]int, rank)
	for i := 0; i < rank; i++ {
		shape[i] = int(binary.LittleEndian.Uint32(b[off:]))
		off += 4
	}
	dataLen := binary.LittleEndian.Uint64(b[off:])
	off += 8
	if uint64(len(b)-off) < dataLen {
		return nil, 0, io.ErrUnexpectedEOF
	}
	end := off + int(dataLen)
	t := &Tensor{Name: name, DType: dt, Shape: shape, Data: b[off:end:end]}
	off = end
	if err := t.Validate(); err != nil {
		return nil, 0, err
	}
	return t, off, nil
}

// EncodeSet concatenates the encodings of all tensors into one consolidated
// segment, the unit EvoStore ships in a single bulk transfer.
func EncodeSet(ts []*Tensor) []byte {
	size := 0
	for _, t := range ts {
		size += t.EncodedSize()
	}
	out := make([]byte, 0, size)
	for _, t := range ts {
		out = t.AppendEncode(out)
	}
	return out
}

// DecodeSet parses a consolidated segment produced by EncodeSet. The
// returned tensors alias b.
func DecodeSet(b []byte) ([]*Tensor, error) {
	var out []*Tensor
	for len(b) > 0 {
		t, n, err := Decode(b)
		if err != nil {
			return nil, fmt.Errorf("tensor: decoding set entry %d: %w", len(out), err)
		}
		out = append(out, t)
		b = b[n:]
	}
	return out, nil
}
