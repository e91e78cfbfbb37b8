package proto

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/graph"
	"repro/internal/ownermap"
	"repro/internal/wire"
)

// errNormalized marks input a decoder accepted but that only the graph
// codec's normalization (a persisted format, out of scope here) makes
// decodable: edges out of canonical order re-encode sorted.
var errNormalized = errors.New("graph re-encodes normalized")

// graphAt returns the length-prefixed graph that follows skip bytes of b.
func graphAt(b []byte, skip int) []byte { return wire.NewReader(b[skip:]).Bytes32() }

// controlCodecs are the control decoders that read exactly what their
// encoder writes: each entry decodes b and re-encodes the result.
var controlCodecs = []struct {
	name      string
	seed      []byte
	roundtrip func(b []byte) ([]byte, error)
}{
	{"StoreModelReq", (&StoreModelReq{
		Model: 9, Seq: 3, Quality: 0.75, Graph: sampleGraph(3), OwnerMap: ownermap.New(9, 3, 3),
		Segments: []SegmentRef{{Vertex: 1, Length: 100}}, ReqID: 77,
	}).Encode(), func(b []byte) ([]byte, error) {
		q, err := DecodeStoreModelReq(b)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(q.Graph.Encode(), graphAt(b, 24)) {
			return nil, errNormalized
		}
		return q.Encode(), nil
	}},
	{"RefReq", (&RefReq{Owner: 4, Vertices: []graph.VertexID{0, 2}, ReqID: 5}).Encode(), func(b []byte) ([]byte, error) {
		q, err := DecodeRefReq(b)
		if err != nil {
			return nil, err
		}
		return q.Encode(), nil
	}},
	{"RetireReq", (&RetireReq{Model: 6, ReqID: 8}).Encode(), func(b []byte) ([]byte, error) {
		q, err := DecodeRetireReq(b)
		if err != nil {
			return nil, err
		}
		return q.Encode(), nil
	}},
	{"LCPQueryReq", (&LCPQueryReq{Graph: sampleGraph(2), Exclude: []ownermap.ModelID{3}, PreferRecent: true}).Encode(), func(b []byte) ([]byte, error) {
		q, err := DecodeLCPQueryReq(b)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(q.Graph.Encode(), graphAt(b, 0)) {
			return nil, errNormalized
		}
		return q.Encode(), nil
	}},
	{"CountersHeat", EncodeCountersHeat(map[string]uint64{"a": 1, "b": 2}, []ModelHeat{{Model: 1, ReadBps: 2.5}}), func(b []byte) ([]byte, error) {
		snap, heat, err := DecodeCountersHeat(b)
		if err != nil {
			return nil, err
		}
		return EncodeCountersHeat(snap, heat), nil
	}},
	{"FreedResp", EncodeFreedResp(2, []SegBase{{Owner: 1, Vertex: 3}}), func(b []byte) ([]byte, error) {
		freed, bases, err := DecodeFreedResp(b)
		if err != nil {
			return nil, err
		}
		return EncodeFreedResp(freed, bases), nil
	}},
}

// FuzzDecodeControl feeds every strict control decoder its encoding, every
// way of tearing it, and whatever the fuzzer mutates from there. No decoder
// may panic, and whatever one accepts re-encodes to the same bytes: nothing
// was defaulted, dropped or read past.
func FuzzDecodeControl(f *testing.F) {
	for i, c := range controlCodecs {
		for cut := 0; cut <= len(c.seed); cut++ {
			f.Add(uint8(i), c.seed[:cut])
		}
		f.Add(uint8(i), append(append([]byte(nil), c.seed...), 0))
	}
	f.Fuzz(func(t *testing.T, which uint8, b []byte) {
		c := controlCodecs[int(which)%len(controlCodecs)]
		re, err := c.roundtrip(b)
		if err != nil {
			return
		}
		if !bytes.Equal(re, b) {
			t.Fatalf("%s: accepted % x but re-encodes to % x", c.name, b, re)
		}
	})
}
