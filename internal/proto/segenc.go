package proto

// Segment-encoding envelope. A stored segment is either raw tensor bytes
// (the pre-dedup format, still the common case) or an *envelope*: a small
// self-describing header followed by an encoded payload. Three encodings
// exist, selected by flag bits that may combine:
//
//   - SegDelta: the payload is an XOR/varint delta (internal/dedup)
//     against the logical bytes of another stored segment, named by
//     (BaseOwner, BaseVertex). Depth records how many delta hops separate
//     this segment from a raw base, so writers can bound chains (rebase
//     to raw at depth K) and readers can spot corrupted chains.
//   - SegFlate: the payload is DEFLATE-compressed; applied after the
//     delta step on encode, so decode inflates first, then applies the
//     delta.
//
// The envelope is part of the *stored* representation, not a wire
// trailer: providers persist and ship it verbatim (ReadSegments, repair
// pulls, rebalance migration), which is what keeps replicas bit-identical
// across every data path without teaching each one about encodings.
// Decoding happens at the reader: the client resolves delta chains by
// fetching bases from their owners' providers (see internal/client).
//
// A raw segment is distinguished from an envelope by a 6-byte magic whose
// first byte (0xF5) cannot begin a plausible tensor set: a tensor segment
// opens with a little-endian u16 name length, so a raw collision would
// require a tensor name of 245+256k bytes — rejected long before here by
// the codec's sanity checks. Empty segments are always raw.

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/ownermap"
	"repro/internal/wire"
)

// Segment-encoding flags (SegEnvelope.Flags). SegRaw is the absence of an
// envelope; enveloped segments carry at least one flag bit.
const (
	// SegRaw marks plain tensor bytes (never stored in an envelope; the
	// constant exists for negotiation and reporting).
	SegRaw uint8 = 0
	// SegDelta marks an XOR/varint delta against (BaseOwner, BaseVertex).
	SegDelta uint8 = 1 << 0
	// SegFlate marks a DEFLATE-compressed payload.
	SegFlate uint8 = 1 << 1
)

// segEnvMagic prefixes every enveloped segment. 6 bytes: 0xF5 guards
// against raw tensor bytes (see package comment), the rest spells the
// format, and the trailing 0x01 is the envelope version.
var segEnvMagic = []byte{0xf5, 'E', 'v', 'S', 'g', 0x01}

// segEnvHeaderLen is the fixed envelope header size: magic, flags, depth,
// raw length, base owner, base vertex.
const segEnvHeaderLen = 6 + 1 + 1 + 4 + 8 + 4

// SegEnvelope describes one encoded stored segment.
type SegEnvelope struct {
	// Flags is a combination of SegDelta / SegFlate (never zero).
	Flags uint8
	// Depth is the delta-chain length: 1 for a delta against a raw base,
	// 2 for a delta whose base is itself depth-1, and so on. 0 when
	// SegDelta is unset.
	Depth uint8
	// RawLen is the logical (fully resolved) segment length. Digests hash
	// this, not the stored length, so replicas holding different
	// encodings of the same logical bytes stay converged.
	RawLen uint32
	// BaseOwner / BaseVertex name the delta base segment (meaningful only
	// with SegDelta): the logical bytes of that stored segment are the
	// XOR base.
	BaseOwner  ownermap.ModelID
	BaseVertex graph.VertexID
	// Payload is the encoded bytes (delta and/or compressed).
	Payload []byte
}

// Encode serializes the envelope into its stored representation.
func (e *SegEnvelope) Encode() []byte {
	out := make([]byte, 0, segEnvHeaderLen+len(e.Payload))
	out = append(out, segEnvMagic...)
	out = append(out, e.Flags, e.Depth)
	out = appendU32(out, e.RawLen)
	out = appendU64(out, uint64(e.BaseOwner))
	out = appendU32(out, uint32(e.BaseVertex))
	out = append(out, e.Payload...)
	return out
}

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(b []byte, v uint64) []byte {
	b = appendU32(b, uint32(v))
	return appendU32(b, uint32(v>>32))
}

// IsSegEnvelope reports whether stored bytes carry the envelope magic.
func IsSegEnvelope(b []byte) bool {
	if len(b) < len(segEnvMagic) {
		return false
	}
	for i, c := range segEnvMagic {
		if b[i] != c {
			return false
		}
	}
	return true
}

// ParseSegEnvelope decodes a stored segment's envelope. ok is false for a
// raw (un-enveloped) segment; a torn envelope — magic present but header
// or flags malformed — is an error, never silently treated as raw.
func ParseSegEnvelope(b []byte) (*SegEnvelope, bool, error) {
	if !IsSegEnvelope(b) {
		return nil, false, nil
	}
	if len(b) < segEnvHeaderLen {
		return nil, false, fmt.Errorf("proto: torn segment envelope (%d bytes)", len(b))
	}
	r := wire.NewReader(b[len(segEnvMagic):])
	e := &SegEnvelope{
		Flags:  r.U8(),
		Depth:  r.U8(),
		RawLen: r.U32(),
	}
	e.BaseOwner = ownermap.ModelID(r.U64())
	e.BaseVertex = graph.VertexID(r.U32())
	if err := r.Err(); err != nil {
		return nil, false, err
	}
	e.Payload = b[segEnvHeaderLen:]
	if e.Flags == SegRaw || e.Flags&^(SegDelta|SegFlate) != 0 {
		return nil, false, fmt.Errorf("proto: segment envelope with invalid flags %#x", e.Flags)
	}
	if e.Flags&SegDelta == 0 && e.Depth != 0 {
		return nil, false, fmt.Errorf("proto: non-delta segment envelope with depth %d", e.Depth)
	}
	return e, true, nil
}

// SegLogicalLen returns the logical (resolved) length of a stored
// segment: the envelope's RawLen when enveloped, the stored length
// otherwise. Digests fold this so replicas storing different encodings of
// the same logical bytes hash identically; a torn envelope falls back to
// the stored length, which at worst flags the replica divergent — the
// safe direction.
func SegLogicalLen(b []byte) uint64 {
	if e, ok, err := ParseSegEnvelope(b); err == nil && ok {
		return uint64(e.RawLen)
	}
	return uint64(len(b))
}

// --- freed delta bases (DecRef response trailer) -----------------------------

// SegBase names one delta base segment: (owner, vertex).
type SegBase struct {
	Owner  ownermap.ModelID
	Vertex graph.VertexID
}

// EncodeFreedResp encodes a DecRef response: the freed-segment count,
// then the delta bases of the freed segments — the references the caller
// must now decrement on the bases' own providers, or a retired ancestor's
// chain would strand them.
func EncodeFreedResp(freed uint64, bases []SegBase) []byte {
	w := wire.NewWriter(12 + 12*len(bases))
	w.U64(freed)
	w.U32(uint32(len(bases)))
	for _, b := range bases {
		w.U64(uint64(b.Owner))
		w.U32(uint32(b.Vertex))
	}
	return w.Bytes()
}

// DecodeFreedResp parses EncodeFreedResp's output.
func DecodeFreedResp(b []byte) (uint64, []SegBase, error) {
	r := wire.NewReader(b)
	freed := r.U64()
	n := int(r.U32())
	if r.Err() != nil || n > r.Remaining()/12 {
		return 0, nil, wire.ErrTruncated
	}
	bases := make([]SegBase, n)
	for i := range bases {
		bases[i].Owner = ownermap.ModelID(r.U64())
		bases[i].Vertex = graph.VertexID(r.U32())
	}
	if r.Err() != nil || r.Remaining() != 0 {
		return 0, nil, wire.ErrTruncated
	}
	return freed, bases, nil
}
