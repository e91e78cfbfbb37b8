package proto

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/ownermap"
	"repro/internal/rpc"
	"repro/internal/wire"
)

func sampleGraph(n int) *graph.Compact {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddVertex(graph.Vertex{ConfigSig: uint64(i + 1), ParamBytes: int64(i * 10)})
		if i > 0 {
			b.AddEdge(graph.VertexID(i-1), graph.VertexID(i))
		}
	}
	return b.Build()
}

func TestStoreModelReqRoundtrip(t *testing.T) {
	g := sampleGraph(4)
	om := ownermap.New(9, 3, 4)
	req := &StoreModelReq{
		Model: 9, Seq: 3, Quality: 0.75,
		Graph: g, OwnerMap: om,
		Segments: []SegmentRef{{Vertex: 1, Length: 100}, {Vertex: 3, Length: 0}},
	}
	back, err := DecodeStoreModelReq(req.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if back.Model != 9 || back.Seq != 3 || back.Quality != 0.75 {
		t.Errorf("scalars: %+v", back)
	}
	if !back.Graph.Equal(g) || !back.OwnerMap.Equal(om) {
		t.Error("graph/ownermap mismatch")
	}
	if len(back.Segments) != 2 || back.Segments[0] != req.Segments[0] {
		t.Errorf("segments: %+v", back.Segments)
	}
}

func TestStoreModelReqTruncated(t *testing.T) {
	g := sampleGraph(3)
	req := &StoreModelReq{Model: 1, Graph: g, OwnerMap: ownermap.New(1, 1, 3)}
	enc := req.Encode()
	// Every prefix is torn — including the old form without the 8-byte
	// ReqID trailer — and so is a trailing byte.
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeStoreModelReq(enc[:cut]); !errors.Is(err, wire.ErrTruncated) {
			t.Fatalf("truncation at %d/%d: %v, want wire.ErrTruncated", cut, len(enc), err)
		}
	}
	if _, err := DecodeStoreModelReq(append(enc, 0)); !errors.Is(err, wire.ErrTruncated) {
		t.Fatalf("trailing byte: %v, want wire.ErrTruncated", err)
	}
}

func TestModelMetaRoundtrip(t *testing.T) {
	m := &ModelMeta{Model: 5, Seq: 7, Quality: 0.5, Graph: sampleGraph(3), OwnerMap: ownermap.New(5, 7, 3)}
	back, err := DecodeModelMeta(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if back.Model != 5 || back.Seq != 7 || !back.Graph.Equal(m.Graph) || !back.OwnerMap.Equal(m.OwnerMap) {
		t.Error("roundtrip mismatch")
	}
}

func TestSplitBulk(t *testing.T) {
	segs := []SegmentRef{{Vertex: 0, Length: 3}, {Vertex: 1, Length: 0}, {Vertex: 2, Length: 2}}
	bulk := []byte{1, 2, 3, 4, 5}
	parts, err := SplitBulk(segs, bulk)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 3 || string(parts[0]) != "\x01\x02\x03" || len(parts[1]) != 0 || string(parts[2]) != "\x04\x05" {
		t.Errorf("parts = %v", parts)
	}
	// Overrun and trailing bytes must error.
	if _, err := SplitBulk(segs, bulk[:4]); err == nil {
		t.Error("overrun accepted")
	}
	if _, err := SplitBulk(segs[:2], bulk); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestReadSegmentsReqRoundtrip(t *testing.T) {
	req := &ReadSegmentsReq{Owner: 3, Vertices: []graph.VertexID{0, 5, 9}}
	back, err := DecodeReadSegmentsReq(req.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if back.Owner != 3 || len(back.Vertices) != 3 || back.Vertices[2] != 9 {
		t.Errorf("back = %+v", back)
	}
}

func TestLCPQueryReqRoundtrip(t *testing.T) {
	q := &LCPQueryReq{Graph: sampleGraph(5), Exclude: []ownermap.ModelID{2, 4}}
	back, err := DecodeLCPQueryReq(q.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !back.Graph.Equal(q.Graph) || len(back.Exclude) != 2 || back.Exclude[1] != 4 {
		t.Errorf("back = %+v", back)
	}
	// No excludes, a named table.
	q2 := &LCPQueryReq{Graph: sampleGraph(2), PreferRecent: true, Table: TableName(9)}
	enc := q2.Encode()
	back2, err := DecodeLCPQueryReq(enc)
	if err != nil || len(back2.Exclude) != 0 || !back2.PreferRecent || back2.Table != 10 {
		t.Errorf("empty exclude roundtrip: %v %+v", err, back2)
	}
	// The old form that ends at the recency byte, a cut table name, a
	// recency byte that is not a bool, and a trailing byte are all rejected.
	notBool := append([]byte(nil), enc...)
	notBool[len(enc)-9] = 2
	bad := [][]byte{enc[:len(enc)-8], enc[:len(enc)-1], notBool, append(enc, 0)}
	for i, b := range bad {
		if _, err := DecodeLCPQueryReq(b); !errors.Is(err, wire.ErrTruncated) {
			t.Errorf("malformed query %d: %v, want wire.ErrTruncated", i, err)
		}
	}
}

func TestLCPResultRoundtrip(t *testing.T) {
	meta := &ModelMeta{Model: 8, Seq: 2, Quality: 0.9, Graph: sampleGraph(4), OwnerMap: ownermap.New(8, 2, 4)}
	res := &LCPResult{Meta: meta, Prefix: []graph.VertexID{0, 1, 2}}
	enc := res.Encode()
	back, err := DecodeLCPResult(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Found() || back.Meta.Model != 8 || back.Meta.Seq != 2 || back.Meta.Quality != 0.9 ||
		!back.Meta.Graph.Equal(meta.Graph) || !back.Meta.OwnerMap.Equal(meta.OwnerMap) || len(back.Prefix) != 3 {
		t.Errorf("back = %+v", back)
	}
	miss := &LCPResult{}
	backMiss, err := DecodeLCPResult(miss.Encode())
	if err != nil || backMiss.Found() {
		t.Errorf("not-found roundtrip: %v %+v", err, backMiss)
	}
	// A torn prefix, a trailing byte, a found byte that is not a bool and
	// a not-found reply with a body are all rejected.
	bad := [][]byte{enc[:len(enc)-1], append(enc, 0), append([]byte{2}, enc[1:]...), {0, 0}}
	for i, b := range bad {
		if _, err := DecodeLCPResult(b); !errors.Is(err, wire.ErrTruncated) {
			t.Errorf("malformed result %d: %v, want wire.ErrTruncated", i, err)
		}
	}
}

// TestLCPResultBetter pins the reduce's order on reply headers.
func TestLCPResultBetter(t *testing.T) {
	match := func(id ownermap.ModelID, seq uint64, q float64, size int) *LCPHeader {
		return &LCPHeader{Found: true, Model: id, Seq: seq, Quality: q, prefix: make([]byte, 4*size)}
	}
	short := match(1, 5, 0.9, 1)
	long := match(2, 1, 0.1, 2)
	for _, recent := range []bool{false, true} {
		if !long.Beats(short, recent) || short.Beats(long, recent) {
			t.Errorf("recent=%v: prefix length must dominate", recent)
		}
	}
	// Equal length: quality decides, or under PreferRecent the sequence.
	older := match(3, 4, 0.95, 1)
	if !older.Beats(short, false) || short.Beats(older, false) {
		t.Error("quality tie-break inverted")
	}
	if older.Beats(short, true) || !short.Beats(older, true) {
		t.Error("recency tie-break inverted")
	}
	// Equal sequence under PreferRecent: quality decides.
	if sameSeq := match(4, 5, 0.95, 1); !sameSeq.Beats(short, true) {
		t.Error("PreferRecent must fall back to quality")
	}
	// Tied on everything else: lower ID, either way.
	twin := match(0, 5, 0.9, 1)
	for _, recent := range []bool{false, true} {
		if !twin.Beats(short, recent) || short.Beats(twin, recent) {
			t.Errorf("recent=%v: ID tie-break failed", recent)
		}
	}
	// Not-found never wins; anything beats not-found.
	none := &LCPHeader{}
	if none.Beats(short, false) || !short.Beats(none, false) || none.Beats(none, false) {
		t.Error("found/not-found ordering wrong")
	}
}

func TestModelListAndStats(t *testing.T) {
	ids := []ownermap.ModelID{5, 1, 9}
	back, err := DecodeModelList(EncodeModelList(ids))
	if err != nil || len(back) != 3 || back[2] != 9 {
		t.Errorf("list roundtrip: %v %v", back, err)
	}
	s := &ProviderStats{Models: 1, Segments: 2, SegmentBytes: 3, LiveRefs: 4}
	bs, err := DecodeProviderStats(s.Encode())
	if err != nil || *bs != *s {
		t.Errorf("stats roundtrip: %+v %v", bs, err)
	}
	total := &ProviderStats{}
	total.Add(s)
	total.Add(s)
	if total.Models != 2 || total.LiveRefs != 8 {
		t.Errorf("Add: %+v", total)
	}
}

func TestEncodeDecodeU64AndModelID(t *testing.T) {
	if v, err := DecodeU64(EncodeU64(42)); err != nil || v != 42 {
		t.Errorf("u64: %v %v", v, err)
	}
	if id, err := DecodeModelID(EncodeModelID(7)); err != nil || id != 7 {
		t.Errorf("modelID: %v %v", id, err)
	}
	if _, err := DecodeU64(nil); err == nil {
		t.Error("empty u64 accepted")
	}
}

// The get_meta/evict request, the read response's segment table, the model
// list and the stats reply accept no trailing byte.
func TestReadPathDecodersRejectTrailingBytes(t *testing.T) {
	stats := (&ProviderStats{Models: 1}).Encode()
	for name, decode := range map[string]func() error{
		"ModelID":       func() error { _, err := DecodeModelID(append(EncodeModelID(7), 0)); return err },
		"SegTable":      func() error { _, err := DecodeSegTable(append(EncodeSegTable([]SegmentRef{{1, 2}}), 0)); return err },
		"ModelList":     func() error { _, err := DecodeModelList(append(EncodeModelList([]ownermap.ModelID{3}), 0)); return err },
		"ProviderStats": func() error { _, err := DecodeProviderStats(append(stats, 0)); return err },
	} {
		if err := decode(); !errors.Is(err, wire.ErrTruncated) {
			t.Errorf("%s with a trailing byte: %v, want wire.ErrTruncated", name, err)
		}
	}
}

// A refcount reply is one freed-segment count per group of the request.
func TestFreedRespRoundTrip(t *testing.T) {
	freed, err := DecodeRefResp(EncodeRefResp([]uint64{3, 0, 7}))
	if err != nil || len(freed) != 3 || freed[0] != 3 || freed[1] != 0 || freed[2] != 7 {
		t.Fatalf("round trip: freed=%v err=%v", freed, err)
	}
}

// A refcount reply holds exactly the counts it announces: none, a torn
// count, a missing count, trailing bytes and the older bare eight-byte
// count are all torn.
func TestFreedRespRejectsShortForms(t *testing.T) {
	full := EncodeRefResp([]uint64{5, 6})
	for _, bad := range [][]byte{nil, EncodeRefResp(nil), full[:len(full)-1], full[:len(full)-8], append(full, 0), EncodeU64(5)} {
		if _, err := DecodeRefResp(bad); !errors.Is(err, wire.ErrTruncated) {
			t.Errorf("DecodeRefResp(%d bytes) = %v, want wire.ErrTruncated", len(bad), err)
		}
	}
	// The scalar replies (Evict, the StoreModel ack) stay eight bytes.
	if v, err := DecodeU64(EncodeU64(42)); err != nil || v != 42 {
		t.Fatalf("DecodeU64 round trip: %d, %v", v, err)
	}
	for _, bad := range [][]byte{nil, EncodeU64(5)[:7], append(EncodeU64(5), 0)} {
		if _, err := DecodeU64(bad); !errors.Is(err, wire.ErrTruncated) {
			t.Errorf("DecodeU64(%d bytes) = %v, want wire.ErrTruncated", len(bad), err)
		}
	}
}

// Property: segment tables of arbitrary shape roundtrip.
func TestQuickSegTable(t *testing.T) {
	f := func(vs []uint16, ls []uint16) bool {
		n := len(vs)
		if len(ls) < n {
			n = len(ls)
		}
		segs := make([]SegmentRef, n)
		for i := 0; i < n; i++ {
			segs[i] = SegmentRef{Vertex: graph.VertexID(vs[i]), Length: uint32(ls[i])}
		}
		back, err := DecodeSegTable(EncodeSegTable(segs))
		if err != nil || len(back) != n {
			return false
		}
		for i := range segs {
			if back[i] != segs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func vertsEqual(a, b []graph.VertexID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRefReqRoundtrip(t *testing.T) {
	q := &RefReq{Groups: []RefGroup{
		{Owner: 9, Vertices: []graph.VertexID{0, 3, 7}},
		{Owner: 4, Vertices: []graph.VertexID{1}},
		{Owner: 12},
	}, ReqID: 1234}
	got, err := DecodeRefReq(q.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.ReqID != q.ReqID || len(got.Groups) != len(q.Groups) {
		t.Fatalf("roundtrip = %+v, want %+v", got, q)
	}
	for i, g := range q.Groups {
		if got.Groups[i].Owner != g.Owner || !vertsEqual(got.Groups[i].Vertices, g.Vertices) {
			t.Errorf("group %d = %+v, want %+v", i, got.Groups[i], g)
		}
	}
	// A message of no groups, a torn group, a torn vertex list and a
	// trailing byte are all rejected.
	enc := q.Encode()
	empty := (&RefReq{ReqID: 1}).Encode()
	for _, b := range [][]byte{empty, enc[:len(enc)-12], enc[:len(enc)-3], append(enc, 0)} {
		if _, err := DecodeRefReq(b); !errors.Is(err, wire.ErrTruncated) {
			t.Errorf("DecodeRefReq(%d of %d bytes) = %v, want wire.ErrTruncated", len(b), len(enc), err)
		}
	}
}

func TestRetireReqRoundtrip(t *testing.T) {
	q := &RetireReq{Model: 5, ReqID: 99}
	got, err := DecodeRetireReq(q.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Model != 5 || got.ReqID != 99 {
		t.Errorf("roundtrip = %+v", got)
	}
	// The old form (a bare 8-byte model ID), a torn ReqID and a trailing
	// byte are all rejected.
	for _, b := range [][]byte{EncodeModelID(5), q.Encode()[:12], append(q.Encode(), 0)} {
		if _, err := DecodeRetireReq(b); !errors.Is(err, wire.ErrTruncated) {
			t.Errorf("DecodeRetireReq(%d bytes) = %v, want wire.ErrTruncated", len(b), err)
		}
	}
}

func TestIdempotentAndRetryable(t *testing.T) {
	cases := []struct {
		name       string
		idempotent bool
		retryable  bool
	}{
		{RPCGetMeta, true, true},
		{RPCReadSegments, true, true},
		{RPCLCPQuery, true, true},
		{RPCListModels, true, true},
		{RPCStats, true, true},
		{RPCStoreModel, false, true}, // retryable only via ReqID dedup
		{RPCIncRef, false, true},
		{RPCDecRef, false, true},
		{RPCRetire, false, true},
		{"evostore.unknown", false, false},
	}
	for _, tc := range cases {
		if got := Idempotent(tc.name); got != tc.idempotent {
			t.Errorf("Idempotent(%s) = %v, want %v", tc.name, got, tc.idempotent)
		}
		if got := Retryable(tc.name); got != tc.retryable {
			t.Errorf("Retryable(%s) = %v, want %v", tc.name, got, tc.retryable)
		}
	}
}

func TestCountersRoundtrip(t *testing.T) {
	snap := map[string]uint64{
		"client.read_failover": 7,
		"rpc.retry":            123456789,
		"breaker.open":         0,
		"fault.request_drop":   1,
	}
	got, err := DecodeCounters(EncodeCounters(snap))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(snap) {
		t.Fatalf("decoded %d counters, want %d", len(got), len(snap))
	}
	for name, v := range snap {
		if got[name] != v {
			t.Errorf("%s = %d, want %d", name, got[name], v)
		}
	}

	if m, err := DecodeCounters(EncodeCounters(nil)); err != nil || len(m) != 0 {
		t.Errorf("empty snapshot roundtrip: %v %v", m, err)
	}
}

func TestCountersDecodeTruncated(t *testing.T) {
	b := EncodeCounters(map[string]uint64{"some.counter": 42})
	for cut := 1; cut < len(b); cut++ {
		if _, err := DecodeCounters(b[:cut]); err == nil {
			t.Errorf("decoding %d/%d bytes succeeded", cut, len(b))
		}
	}
	if _, err := DecodeCounters(append(b, 0)); !errors.Is(err, wire.ErrTruncated) {
		t.Errorf("trailing byte = %v, want wire.ErrTruncated", err)
	}
	// A count field claiming more entries than the payload can hold must be
	// rejected up front, not trusted as an allocation size.
	huge := []byte{0xff, 0xff, 0xff, 0xff}
	if _, err := DecodeCounters(huge); err == nil {
		t.Error("absurd counter count accepted")
	}

	// Two names swapped: the same bytes with the encoder's order broken.
	w := wire.NewWriter(64)
	w.U32(2)
	for _, name := range []string{"store.segments", "rpc.retry"} {
		w.String(name)
		w.U64(1)
	}
	if _, err := DecodeCounters(w.Bytes()); err == nil {
		t.Error("counters out of name order accepted")
	}
}

// TestCountersHeatTrailer pins that the metrics reply no longer carries a
// per-model heat list: a reply in the older form — the counters followed
// by a u32 heat count and (model u64, read f64, write f64) entries — is
// refused whole rather than read as its counters with the rest ignored.
func TestCountersHeatTrailer(t *testing.T) {
	snap := map[string]uint64{"rpc.retry": 2, "store.segments": 9}
	counters := EncodeCounters(snap)
	for _, entries := range []int{0, 2} {
		w := wire.NewWriter(64)
		w.U32(uint32(entries))
		for i := 0; i < entries; i++ {
			w.U64(uint64(3 + 14*i))
			w.F64(1024.5)
			w.F64(0)
		}
		old := append(append([]byte(nil), counters...), w.Bytes()...)
		if _, err := DecodeCounters(old); !errors.Is(err, wire.ErrTruncated) {
			t.Errorf("counters with a %d-entry heat list = %v, want wire.ErrTruncated", entries, err)
		}
	}
	got, err := DecodeCounters(counters)
	if err != nil || !reflect.DeepEqual(got, snap) {
		t.Errorf("counters without a heat list = %v, %v; want %v", got, err, snap)
	}
}

// readSegmentsGolden pins the two encodings of a ReadSegmentsReq byte for
// byte: owner u64, vertex count u32, vertices u32 each (all little
// endian), then — only when a tenant is set — its length u32 and bytes.
var readSegmentsGolden = []struct {
	name string
	req  ReadSegmentsReq
	wire []byte
}{
	{"plain", ReadSegmentsReq{Owner: 7, Vertices: []graph.VertexID{1, 2}}, []byte{
		7, 0, 0, 0, 0, 0, 0, 0,
		2, 0, 0, 0,
		1, 0, 0, 0, 2, 0, 0, 0,
	}},
	{"tenant", ReadSegmentsReq{Owner: 0x0102, Vertices: []graph.VertexID{9}, Tenant: "team-a"}, []byte{
		2, 1, 0, 0, 0, 0, 0, 0,
		1, 0, 0, 0,
		9, 0, 0, 0,
		6, 0, 0, 0, 't', 'e', 'a', 'm', '-', 'a',
	}},
}

func TestReadSegmentsReqGolden(t *testing.T) {
	for _, g := range readSegmentsGolden {
		if got := g.req.Encode(); !bytes.Equal(got, g.wire) {
			t.Errorf("%s: encoded % x, want % x", g.name, got, g.wire)
		}
		got, err := DecodeReadSegmentsReq(g.wire)
		if err != nil || !reflect.DeepEqual(*got, g.req) {
			t.Errorf("%s: decoded %+v, %v; want %+v", g.name, got, err, g.req)
		}
		// Bytes past the last field are not a format this decoder knows.
		if _, err := DecodeReadSegmentsReq(append(append([]byte(nil), g.wire...), 0)); err != wire.ErrTruncated {
			t.Errorf("%s: trailing byte: err = %v, want ErrTruncated", g.name, err)
		}
	}
}

// FuzzDecodeReadSegmentsReq feeds the decoder what a socket can: the golden
// encodings, every way of tearing them, and whatever the fuzzer mutates
// from there. The decoder must never panic, must fail only with
// wire.ErrTruncated, and must accept only canonical input — what it
// decodes re-encodes to the same bytes, so nothing it accepted was
// silently dropped or defaulted.
func FuzzDecodeReadSegmentsReq(f *testing.F) {
	for _, g := range readSegmentsGolden {
		for cut := 0; cut <= len(g.wire); cut++ {
			f.Add(g.wire[:cut])
		}
	}
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}) // absurd vertex count
	f.Fuzz(func(t *testing.T, b []byte) {
		q, err := DecodeReadSegmentsReq(b)
		if err != nil {
			if err != wire.ErrTruncated {
				t.Fatalf("decode error %v, want wire.ErrTruncated", err)
			}
			return
		}
		if re := q.Encode(); !bytes.Equal(re, b) {
			t.Fatalf("accepted % x but re-encodes to % x", b, re)
		}
	})
}

// A strict prefix of a valid request is either rejected or is itself the
// shorter valid request (the tenant trailer cut off whole).
func TestReadSegmentsReqTorn(t *testing.T) {
	for _, g := range readSegmentsGolden {
		plainLen := 12 + 4*len(g.req.Vertices)
		for cut := 0; cut < len(g.wire); cut++ {
			_, err := DecodeReadSegmentsReq(g.wire[:cut])
			if cut == plainLen {
				if err != nil {
					t.Errorf("%s: tenant-less prefix rejected: %v", g.name, err)
				}
			} else if err != wire.ErrTruncated {
				t.Errorf("%s: cut at %d: err = %v, want ErrTruncated", g.name, cut, err)
			}
		}
	}
}

func TestSplitBulkMsg(t *testing.T) {
	segs := []SegmentRef{{Vertex: 0, Length: 3}, {Vertex: 1, Length: 2}, {Vertex: 2, Length: 0}}
	payload := []byte{1, 2, 3, 4, 5}

	// Aligned vector: parts must alias the sender's slices, no copies.
	a, b := payload[:3], payload[3:]
	parts, err := SplitBulkMsg(segs, rpc.Message{BulkVec: [][]byte{a, b, nil}})
	if err != nil {
		t.Fatal(err)
	}
	if &parts[0][0] != &a[0] || &parts[1][0] != &b[0] {
		t.Error("aligned vector was copied")
	}

	// Flat payload: SplitBulk views.
	parts, err = SplitBulkMsg(segs, rpc.Message{Bulk: payload})
	if err != nil || !bytes.Equal(parts[0], []byte{1, 2, 3}) || !bytes.Equal(parts[1], []byte{4, 5}) {
		t.Fatalf("flat fallback: %v %v", parts, err)
	}

	// Misaligned vector: segment 0 straddles a chunk boundary (copied),
	// segment 1 fits inside the second chunk (aliased view).
	c1, c2 := payload[:2], payload[2:]
	parts, err = SplitBulkMsg(segs, rpc.Message{BulkVec: [][]byte{c1, c2}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(parts[0], []byte{1, 2, 3}) || !bytes.Equal(parts[1], []byte{4, 5}) || parts[2] != nil {
		t.Fatalf("misaligned re-slice: %v", parts)
	}
	if &parts[1][0] != &c2[1] {
		t.Error("in-chunk segment was copied instead of aliased")
	}

	// A single-chunk vector totalling the right length still re-slices.
	parts, err = SplitBulkMsg(segs, rpc.Message{BulkVec: [][]byte{payload}})
	if err != nil || !bytes.Equal(parts[0], []byte{1, 2, 3}) || !bytes.Equal(parts[1], []byte{4, 5}) {
		t.Fatalf("single-chunk vector: %v %v", parts, err)
	}

	// Length mismatch is rejected.
	if _, err := SplitBulkMsg(segs, rpc.Message{BulkVec: [][]byte{payload[:4]}}); err == nil {
		t.Error("short payload accepted")
	}
}
