package proto

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/wire"
)

func TestSegEnvelopeRoundTrip(t *testing.T) {
	for _, e := range []*SegEnvelope{
		{Flags: SegDelta, Depth: 1, RawLen: 1 << 20, BaseOwner: 7, BaseVertex: 3, Payload: []byte("delta-bytes")},
		{Flags: SegDelta | SegFlate, Depth: 8, RawLen: 42, BaseOwner: 1, BaseVertex: 0, Payload: []byte{0}},
		{Flags: SegFlate, Depth: 0, RawLen: 9, Payload: []byte("zzzzz")},
	} {
		b := e.Encode()
		if !IsSegEnvelope(b) {
			t.Fatalf("%+v: encoded envelope not recognized", e)
		}
		got, ok, err := ParseSegEnvelope(b)
		if err != nil || !ok {
			t.Fatalf("%+v: parse: ok=%v err=%v", e, ok, err)
		}
		if got.Flags != e.Flags || got.Depth != e.Depth || got.RawLen != e.RawLen ||
			got.BaseOwner != e.BaseOwner || got.BaseVertex != e.BaseVertex ||
			!bytes.Equal(got.Payload, e.Payload) {
			t.Fatalf("round trip:\n got %+v\nwant %+v", got, e)
		}
	}
}

func TestSegEnvelopeRawPassThrough(t *testing.T) {
	for _, raw := range [][]byte{nil, {}, []byte("tensor bytes"), {0xf5}, {0xf5, 'E', 'v'}} {
		if IsSegEnvelope(raw) {
			t.Fatalf("%q misidentified as envelope", raw)
		}
		if _, ok, err := ParseSegEnvelope(raw); ok || err != nil {
			t.Fatalf("%q: parse of raw bytes: ok=%v err=%v", raw, ok, err)
		}
		if got := SegLogicalLen(raw); got != uint64(len(raw)) {
			t.Fatalf("%q: SegLogicalLen = %d, want stored length %d", raw, got, len(raw))
		}
	}
}

func TestSegEnvelopeTornAndInvalid(t *testing.T) {
	env := (&SegEnvelope{Flags: SegDelta, Depth: 2, RawLen: 100, BaseOwner: 5, BaseVertex: 1, Payload: []byte("p")}).Encode()
	// Magic present but header cut short: an error, never silently raw.
	if _, _, err := ParseSegEnvelope(env[:10]); err == nil {
		t.Fatal("torn envelope parsed without error")
	}
	// Flag byte zero (an envelope must carry an encoding).
	zero := append([]byte(nil), env...)
	zero[6] = 0
	if _, _, err := ParseSegEnvelope(zero); err == nil {
		t.Fatal("zero-flag envelope parsed without error")
	}
	// Unknown flag bit.
	junk := append([]byte(nil), env...)
	junk[6] = 0x80
	if _, _, err := ParseSegEnvelope(junk); err == nil {
		t.Fatal("unknown-flag envelope parsed without error")
	}
	// Depth without SegDelta is meaningless.
	flateDepth := (&SegEnvelope{Flags: SegFlate, Depth: 1, RawLen: 4, Payload: []byte("z")}).Encode()
	if _, _, err := ParseSegEnvelope(flateDepth); err == nil {
		t.Fatal("non-delta envelope with depth parsed without error")
	}
}

func TestSegLogicalLen(t *testing.T) {
	env := (&SegEnvelope{Flags: SegDelta, Depth: 1, RawLen: 262144, BaseOwner: 2, BaseVertex: 0, Payload: []byte("tiny")}).Encode()
	if got := SegLogicalLen(env); got != 262144 {
		t.Fatalf("SegLogicalLen(envelope) = %d, want the RawLen 262144", got)
	}
	// A torn envelope falls back to the stored length (flags divergent, the
	// safe direction) rather than failing.
	if got := SegLogicalLen(env[:10]); got != 10 {
		t.Fatalf("SegLogicalLen(torn) = %d, want stored length 10", got)
	}
}

func TestFreedRespRoundTrip(t *testing.T) {
	bases := []SegBase{{Owner: 9, Vertex: 4}, {Owner: 2, Vertex: 0}}
	freed, got, err := DecodeFreedResp(EncodeFreedResp(3, bases))
	if err != nil || freed != 3 || len(got) != 2 || got[0] != bases[0] || got[1] != bases[1] {
		t.Fatalf("round trip: freed=%d bases=%v err=%v", freed, got, err)
	}
}

func TestFreedRespRejectsShortForms(t *testing.T) {
	// No bases still encodes the count: the old bare 8-byte form is torn.
	b := EncodeFreedResp(5, nil)
	if freed, bases, err := DecodeFreedResp(b); err != nil || freed != 5 || len(bases) != 0 {
		t.Fatalf("empty bases: freed=%d bases=%v err=%v", freed, bases, err)
	}
	full := EncodeFreedResp(1, []SegBase{{Owner: 1, Vertex: 2}})
	for _, bad := range [][]byte{EncodeU64(7), full[:len(full)-3], append(full, 0)} {
		if _, _, err := DecodeFreedResp(bad); !errors.Is(err, wire.ErrTruncated) {
			t.Errorf("DecodeFreedResp(%d bytes) = %v, want wire.ErrTruncated", len(bad), err)
		}
	}
}
