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
	{"FreedCount", EncodeU64(2), func(b []byte) ([]byte, error) {
		freed, err := DecodeU64(b)
		if err != nil {
			return nil, err
		}
		return EncodeU64(freed), nil
	}},
	{"Digests", EncodeDigests([]ModelDigest{sampleDigest(4), {Model: 5, Retired: true, Seq: 2}}), func(b []byte) ([]byte, error) {
		ds, err := DecodeDigests(b)
		if err != nil {
			return nil, err
		}
		return EncodeDigests(ds), nil
	}},
	{"RefDelta", EncodeRefDelta(&RefDelta{ReqID: 11, Neg: true, Vertices: []graph.VertexID{1, 4}}), func(b []byte) ([]byte, error) {
		d, err := DecodeRefDelta(b)
		if err != nil {
			return nil, err
		}
		return EncodeRefDelta(&d), nil
	}},
	{"RefCounts", EncodeRefCounts([]RefCount{{Vertex: 0, Count: 2}, {Vertex: 3, Count: 1}}), func(b []byte) ([]byte, error) {
		cs, err := DecodeRefCounts(b)
		if err != nil {
			return nil, err
		}
		return EncodeRefCounts(cs), nil
	}},
	{"RepairPullReq", (&RepairPullReq{Model: 7, WithPayloads: true, Vertices: []graph.VertexID{2}}).Encode(), func(b []byte) ([]byte, error) {
		q, err := DecodeRepairPullReq(b)
		if err != nil {
			return nil, err
		}
		return q.Encode(), nil
	}},
	{"RepairPullResp", (&RepairPullResp{
		Digest: sampleDigest(7), Meta: []byte("meta"), Counts: []RefCount{{Vertex: 1, Count: 1}},
		Journal: []RefDelta{{ReqID: 3, Vertices: []graph.VertexID{1}}}, Segments: []SegmentRef{{Vertex: 1, Length: 9}},
	}).Encode(), func(b []byte) ([]byte, error) {
		p, err := DecodeRepairPullResp(b)
		if err != nil {
			return nil, err
		}
		return p.Encode(), nil
	}},
	{"RepairApplyReq", (&RepairApplyReq{
		Model: 7, Tombstone: true, TombstoneSeq: 4, ReplaceJournal: true, JournalAppended: 6, Meta: []byte("m"),
		Deltas: []RefDelta{{ReqID: 2, Neg: true, Vertices: []graph.VertexID{0}}}, SetCounts: []RefCount{{Vertex: 0, Count: 3}},
		Segments: []SegmentRef{{Vertex: 0, Length: 5}},
	}).Encode(), func(b []byte) ([]byte, error) {
		q, err := DecodeRepairApplyReq(b)
		if err != nil {
			return nil, err
		}
		return q.Encode(), nil
	}},
	{"RepairApplyResp", (&RepairApplyResp{Digest: sampleDigest(8), NeedPayload: []graph.VertexID{1, 2}}).Encode(), func(b []byte) ([]byte, error) {
		p, err := DecodeRepairApplyResp(b)
		if err != nil {
			return nil, err
		}
		return p.Encode(), nil
	}},
	{"Hello", EncodeHello(&Hello{Provider: 2, Format: 1, Epoch: 7, Models: 40}), func(b []byte) ([]byte, error) {
		h, err := DecodeHello(b)
		if err != nil {
			return nil, err
		}
		return EncodeHello(h), nil
	}},
	{"HelloResp", (&HelloResp{Hello: Hello{Provider: 1, Format: 1, Epoch: 3}, Placement: []byte{1, 2, 3}}).Encode(), func(b []byte) ([]byte, error) {
		p, err := DecodeHelloResp(b)
		if err != nil {
			return nil, err
		}
		return p.Encode(), nil
	}},
}

// sampleDigest is a digest with every flag and word set.
func sampleDigest(m ownermap.ModelID) ModelDigest {
	return ModelDigest{Model: m, Present: true, Retired: true, Trimmed: true,
		Seq: 1, MetaHash: 2, RefHash: 3, SegHash: 4, LiveRefs: 5, Journal: 6}
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
