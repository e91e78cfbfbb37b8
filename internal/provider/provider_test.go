package provider

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/ownermap"
	"repro/internal/placement"
	"repro/internal/proto"
	"repro/internal/rpc"
)

func chainGraph(sigs ...uint64) *graph.Compact {
	b := graph.NewBuilder(len(sigs))
	for i, s := range sigs {
		b.AddVertex(graph.Vertex{ConfigSig: s, ParamBytes: 8})
		if i > 0 {
			b.AddEdge(graph.VertexID(i-1), graph.VertexID(i))
		}
	}
	return b.Build()
}

func storeReq(id ownermap.ModelID, seq uint64, q float64, g *graph.Compact) (*proto.StoreModelReq, [][]byte) {
	om := ownermap.New(id, seq, g.NumVertices())
	req := &proto.StoreModelReq{Model: id, Seq: seq, Quality: q, Graph: g, OwnerMap: om}
	var segs [][]byte
	for v := 0; v < g.NumVertices(); v++ {
		seg := []byte(fmt.Sprintf("seg-%d-%d", id, v))
		req.Segments = append(req.Segments, proto.SegmentRef{Vertex: graph.VertexID(v), Length: uint32(len(seg))})
		segs = append(segs, seg)
	}
	return req, segs
}

// one is a refcount message's single owner group.
func one(owner ownermap.ModelID, vs ...graph.VertexID) []proto.RefGroup {
	return []proto.RefGroup{{Owner: owner, Vertices: vs}}
}

func TestStoreGetRead(t *testing.T) {
	p := New(0, kvstore.NewMemKV(4))
	g := chainGraph(1, 2, 3)
	req, segs := storeReq(7, 1, 0.5, g)
	if err := p.StoreModel(req, segs); err != nil {
		t.Fatal(err)
	}
	meta, err := p.GetMeta(7)
	if err != nil || meta.Quality != 0.5 || !meta.Graph.Equal(g) {
		t.Fatalf("GetMeta: %+v %v", meta, err)
	}
	table, parts, err := p.ReadSegments(7, []graph.VertexID{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(table) != 2 || len(parts) != 2 {
		t.Fatalf("read table/parts = %d/%d entries", len(table), len(parts))
	}
	if string(parts[0]) != "seg-7-0" || string(parts[1]) != "seg-7-2" {
		t.Errorf("read parts = %q", parts)
	}
}

func TestStoreValidation(t *testing.T) {
	p := New(0, kvstore.NewMemKV(4))
	g := chainGraph(1, 2)

	// Owner map size mismatch.
	bad := &proto.StoreModelReq{Model: 1, Graph: g, OwnerMap: ownermap.New(1, 1, 5)}
	if err := p.StoreModel(bad, nil); err == nil {
		t.Error("owner-map size mismatch accepted")
	}
	// Segment for a vertex the model does not own.
	anc := ownermap.New(9, 1, 2)
	om, _ := ownermap.Derive(anc, 2, 2, 2, []graph.VertexID{0})
	req := &proto.StoreModelReq{
		Model: 2, Graph: g, OwnerMap: om,
		Segments: []proto.SegmentRef{{Vertex: 0, Length: 1}},
	}
	if err := p.StoreModel(req, [][]byte{{0xff}}); err == nil {
		t.Error("segment for inherited vertex accepted")
	}
	// Out-of-range segment vertex.
	req2, segs2 := storeReq(3, 3, 0.1, g)
	req2.Segments[0].Vertex = 99
	if err := p.StoreModel(req2, segs2); err == nil {
		t.Error("out-of-range segment vertex accepted")
	}
	// Duplicate ID.
	req3, segs3 := storeReq(4, 4, 0.1, g)
	if err := p.StoreModel(req3, segs3); err != nil {
		t.Fatal(err)
	}
	req4, segs4 := storeReq(4, 5, 0.2, g)
	if err := p.StoreModel(req4, segs4); err == nil {
		t.Error("duplicate model accepted")
	}
}

func TestReadMissingSegment(t *testing.T) {
	p := New(0, kvstore.NewMemKV(4))
	if _, _, err := p.ReadSegments(1, []graph.VertexID{0}); err == nil {
		t.Error("missing segment read succeeded")
	}
}

func TestRefCountLifecycle(t *testing.T) {
	p := New(0, kvstore.NewMemKV(4))
	g := chainGraph(1, 2)
	req, segs := storeReq(1, 1, 0.5, g)
	if err := p.StoreModel(req, segs); err != nil {
		t.Fatal(err)
	}
	if p.RefCount(1, 0) != 1 {
		t.Fatalf("initial refcount = %d", p.RefCount(1, 0))
	}
	// A derived model pins vertex 0.
	if err := p.IncRef(1, []graph.VertexID{0}); err != nil {
		t.Fatal(err)
	}
	if p.RefCount(1, 0) != 2 {
		t.Errorf("after inc = %d", p.RefCount(1, 0))
	}
	// IncRef on a segment that was never stored must fail atomically.
	if err := p.IncRef(1, []graph.VertexID{0, 9}); err == nil {
		t.Error("inc_ref on missing segment succeeded")
	}
	if p.RefCount(1, 0) != 2 {
		t.Error("failed IncRef mutated counts")
	}

	// Creator retires: decrement its own references; vertex 0 survives.
	om, err := p.Retire(1)
	if err != nil || om.Len() != 2 {
		t.Fatalf("Retire: %v", err)
	}
	freed, err := p.DecRef(1, []graph.VertexID{0, 1})
	if err != nil || freed != 1 { // vertex 1 freed, vertex 0 pinned
		t.Fatalf("DecRef: freed=%d err=%v", freed, err)
	}
	if _, _, err := p.ReadSegments(1, []graph.VertexID{0}); err != nil {
		t.Error("pinned segment unreadable after owner retired")
	}
	if _, _, err := p.ReadSegments(1, []graph.VertexID{1}); err == nil {
		t.Error("freed segment still readable")
	}
	// Descendant unpins: now vertex 0 goes too.
	freed, err = p.DecRef(1, []graph.VertexID{0})
	if err != nil || freed != 1 {
		t.Fatalf("final DecRef: freed=%d err=%v", freed, err)
	}
	st := p.Stats()
	if st.Segments != 0 || st.SegmentBytes != 0 {
		t.Errorf("leak: %+v", st)
	}
}

// getCountingKV counts the reads that reach a store. It hides any
// byte-key fast path, so every provider read goes through Get.
type getCountingKV struct {
	kvstore.KV
	mu   sync.Mutex
	gets map[string]int
}

func (c *getCountingKV) Get(key string) ([]byte, bool, error) {
	c.mu.Lock()
	c.gets[key]++
	c.mu.Unlock()
	return c.KV.Get(key)
}

// Freeing a segment deletes it without reading it back: a stored segment
// is plain bytes, so there is nothing in it for DecRef to look at.
func TestDecRefFreesWithoutReadingSegments(t *testing.T) {
	kv := &getCountingKV{KV: kvstore.NewMemKV(4), gets: make(map[string]int)}
	p := New(0, kv)
	req, segs := storeReq(7, 1, 0.5, chainGraph(1, 2, 3))
	req.ReqID = 100
	if err := p.StoreModel(req, segs); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Retire(7); err != nil {
		t.Fatal(err)
	}
	freed, err := callDecRef(t, p, &proto.RefReq{Groups: one(7, 0, 1, 2), ReqID: 101})
	if err != nil || freed != 3 {
		t.Fatalf("DecRef: freed=%d err=%v", freed, err)
	}
	for v := graph.VertexID(0); v < 3; v++ {
		k := segKey{7, v}.String()
		if n := kv.gets[k]; n != 0 {
			t.Errorf("DecRef read freed segment %s %d time(s)", k, n)
		}
		if _, ok, _ := kv.KV.Get(k); ok {
			t.Errorf("freed segment %s still stored", k)
		}
	}
}

func TestDecRefMissingFails(t *testing.T) {
	p := New(0, kvstore.NewMemKV(4))
	if _, err := p.DecRef(1, []graph.VertexID{0}); err == nil {
		t.Error("dec_ref on missing segment succeeded")
	}
}

func TestRetireUnknown(t *testing.T) {
	p := New(0, kvstore.NewMemKV(4))
	if _, err := p.Retire(42); err == nil {
		t.Error("retire of unknown model succeeded")
	}
}

func TestLCPQueryLocalScan(t *testing.T) {
	p := New(0, kvstore.NewMemKV(4))
	// Catalog: three chains of differing overlap with the query.
	for i, g := range []*graph.Compact{
		chainGraph(1, 2, 3),       // LCP 3 with query
		chainGraph(1, 2, 9),       // LCP 2
		chainGraph(1, 2, 3, 4, 5), // LCP 4 — the winner
	} {
		req, segs := storeReq(ownermap.ModelID(i+1), uint64(i+1), float64(i)/10, g)
		if err := p.StoreModel(req, segs); err != nil {
			t.Fatal(err)
		}
	}
	query := chainGraph(1, 2, 3, 4, 7)
	res := p.LCPQuery(&proto.LCPQueryReq{Graph: query})
	if !res.Found() || res.Meta.Model != 3 || len(res.Prefix) != 4 {
		t.Errorf("res = %+v", res)
	}

	// Excluding the winner falls back to the next best.
	res = p.LCPQuery(&proto.LCPQueryReq{Graph: query, Exclude: []ownermap.ModelID{3}})
	if !res.Found() || res.Meta.Model != 1 || len(res.Prefix) != 3 {
		t.Errorf("excluded res = %+v", res)
	}

	// No match at all.
	res = p.LCPQuery(&proto.LCPQueryReq{Graph: chainGraph(99)})
	if res.Found() {
		t.Errorf("unexpected match: %+v", res)
	}
}

func TestLCPQueryQualityTieBreak(t *testing.T) {
	p := New(0, kvstore.NewMemKV(4))
	g := chainGraph(1, 2, 3)
	for i, q := range []float64{0.3, 0.9, 0.6} {
		req, segs := storeReq(ownermap.ModelID(i+1), uint64(i+1), q, g)
		if err := p.StoreModel(req, segs); err != nil {
			t.Fatal(err)
		}
	}
	res := p.LCPQuery(&proto.LCPQueryReq{Graph: g})
	if res.Meta.Model != 2 || res.Meta.Quality != 0.9 {
		t.Errorf("tie-break picked %+v", res)
	}
}

// Among matches tied on prefix, quality and sequence the lowest ID wins,
// whatever order the catalog map yields them in.
func TestLCPQueryTieGoesToLowestID(t *testing.T) {
	p := New(0, kvstore.NewMemKV(4))
	g := chainGraph(1, 2, 3)
	for id := ownermap.ModelID(40); id >= 30; id-- {
		req, segs := storeReq(id, 1, 0.5, g)
		if err := p.StoreModel(req, segs); err != nil {
			t.Fatal(err)
		}
	}
	for _, recent := range []bool{false, true} {
		if res := p.LCPQuery(&proto.LCPQueryReq{Graph: g, PreferRecent: recent}); !res.Found() || res.Meta.Model != 30 {
			t.Errorf("PreferRecent=%v: result %+v, want model 30", recent, res)
		}
	}
}

// A query naming the provider's complete placement table scans only the
// models the provider is home for; any other request scans everything it
// holds.
func TestLCPQueryScansItsShare(t *testing.T) {
	p := New(0, kvstore.NewMemKV(4))
	reg := metrics.NewRegistry()
	p.SetMetricsRegistry(reg)
	g := chainGraph(1, 2, 3)
	for id := ownermap.ModelID(1); id <= 12; id++ { // every model, home or not
		req, segs := storeReq(id, 1, 0.5, g)
		if err := p.StoreModel(req, segs); err != nil {
			t.Fatal(err)
		}
	}
	old := placement.New(4, 3) // home = id mod 4, replicas on the next two
	next, err := old.WithoutMember(3)
	if err != nil {
		t.Fatal(err)
	}
	named := func(epoch uint64) *proto.LCPQueryReq {
		return &proto.LCPQueryReq{Graph: g, Table: proto.TableName(epoch)}
	}
	for _, c := range []struct {
		name    string
		st      *placement.State // nil: unguarded
		q       *proto.LCPQueryReq
		scanned uint64
		winner  ownermap.ModelID // lowest ID scanned
	}{
		{"no table named", &placement.State{Cur: old}, &proto.LCPQueryReq{Graph: g}, 12, 1},
		{"unguarded", nil, named(0), 12, 1},
		{"home", &placement.State{Cur: old}, named(0), 3, 4},
		{"other epoch", &placement.State{Cur: old}, named(1), 12, 1},
		{"migrating, Prev named", &placement.State{Cur: next, Prev: old}, named(0), 3, 4},
		{"migrating, Cur named", &placement.State{Cur: next, Prev: old}, named(1), 12, 1},
	} {
		if c.st == nil {
			p.SetPlacement(0, 0)
		} else {
			p.place.Store(c.st)
		}
		before := reg.Counter("provider.lcp_scanned").Load()
		res := p.LCPQuery(c.q)
		scanned := reg.Counter("provider.lcp_scanned").Load() - before
		var winner ownermap.ModelID
		if res.Found() {
			winner = res.Meta.Model
		}
		if scanned != c.scanned || winner != c.winner {
			t.Errorf("%s: scanned %d models, winner %d; want %d, %d", c.name, scanned, winner, c.scanned, c.winner)
		}
	}
}

func TestListModelsAndStats(t *testing.T) {
	p := New(0, kvstore.NewMemKV(4))
	for _, id := range []ownermap.ModelID{5, 2, 8} {
		req, segs := storeReq(id, uint64(id), 0.5, chainGraph(1, 2))
		if err := p.StoreModel(req, segs); err != nil {
			t.Fatal(err)
		}
	}
	ids := p.ListModels()
	if len(ids) != 3 || ids[0] != 2 || ids[2] != 8 {
		t.Errorf("ListModels = %v", ids)
	}
	st := p.Stats()
	if st.Models != 3 || st.Segments != 6 || st.LiveRefs != 6 {
		t.Errorf("Stats = %+v", st)
	}
	if st.SegmentBytes == 0 {
		t.Error("SegmentBytes = 0")
	}
}

func TestConcurrentStoreAndQuery(t *testing.T) {
	p := New(0, kvstore.NewMemKV(16))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				id := ownermap.ModelID(w*100 + i + 1)
				g := chainGraph(1, 2, uint64(w+3), uint64(i+100))
				req, segs := storeReq(id, uint64(id), 0.5, g)
				if err := p.StoreModel(req, segs); err != nil {
					t.Errorf("store: %v", err)
					return
				}
				res := p.LCPQuery(&proto.LCPQueryReq{Graph: g})
				if !res.Found() {
					t.Error("query found nothing after store")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := len(p.ListModels()); got != 160 {
		t.Errorf("models = %d", got)
	}
}

func TestDecRefAtomicOnPartialBatch(t *testing.T) {
	p := New(0, kvstore.NewMemKV(4))
	g := chainGraph(1, 2)
	req, segs := storeReq(1, 1, 0.5, g)
	if err := p.StoreModel(req, segs); err != nil {
		t.Fatal(err)
	}
	// Batch mixing valid and missing vertices must fail without touching
	// the valid counters.
	if _, err := p.DecRef(1, []graph.VertexID{0, 9}); err == nil {
		t.Fatal("partial dec_ref succeeded")
	}
	if p.RefCount(1, 0) != 1 {
		t.Errorf("valid counter mutated by failed batch: %d", p.RefCount(1, 0))
	}
}

// The read handler answers with the segment table in meta and the segments
// as a vectored bulk payload, one zero-copy slice each.
func TestReadSegmentsHandler(t *testing.T) {
	p := New(0, kvstore.NewMemKV(4))
	g := chainGraph(1, 2, 3)
	req, segs := storeReq(7, 1, 0.5, g)
	if err := p.StoreModel(req, segs); err != nil {
		t.Fatal(err)
	}
	var flat []byte
	for _, s := range segs {
		flat = append(flat, s...)
	}
	q := &proto.ReadSegmentsReq{Owner: 7, Vertices: []graph.VertexID{0, 1, 2}}
	resp, err := p.handleReadSegments(context.Background(), rpc.Message{Meta: q.Encode()})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp.BulkFlat(), flat) {
		t.Error("bulk mismatch")
	}
	if len(resp.BulkVec) != len(segs) {
		t.Errorf("%d bulk slices, want one per segment", len(resp.BulkVec))
	}
	table, err := proto.DecodeSegTable(resp.Meta)
	if err != nil || len(table) != len(segs) {
		t.Fatalf("table %v, %v", table, err)
	}
	for i, ref := range table {
		if int(ref.Vertex) != i || int(ref.Length) != len(segs[i]) {
			t.Errorf("table[%d] = %+v, want vertex %d length %d", i, ref, i, len(segs[i]))
		}
	}
}

// gatedPutKV parks every Put until the gate is closed, announcing the
// first one.
type gatedPutKV struct {
	kvstore.KV
	entered chan struct{}
	once    sync.Once
	gate    chan struct{}
}

func (g *gatedPutKV) Put(key string, value []byte) error {
	g.once.Do(func() { close(g.entered) })
	<-g.gate
	return g.KV.Put(key, value)
}

// A store publishes its catalog entry before its payloads. While they are
// still being written the model is not offered as an LCP ancestor, and a
// read of its segments gets the catching-up answer that sends the reader
// to a sibling replica — never an authoritative not-found.
func TestStoreInProgressHiddenFromLCP(t *testing.T) {
	kv := &gatedPutKV{KV: kvstore.NewMemKV(4), entered: make(chan struct{}), gate: make(chan struct{})}
	p := New(0, kv)
	g := chainGraph(1, 2, 3)
	req, segs := storeReq(7, 1, 0.5, g)
	stored := make(chan error, 1)
	go func() { stored <- p.StoreModel(req, segs) }()
	<-kv.entered

	if res := p.LCPQuery(&proto.LCPQueryReq{Graph: g}); res.Found() {
		t.Errorf("LCP query offered model %d while its payloads were still being written", res.Meta.Model)
	}
	if _, _, err := p.ReadSegments(7, []graph.VertexID{0}); !errors.Is(err, placement.ErrNotMigrated) {
		t.Errorf("read during store: err = %v, want a not-migrated miss", err)
	}

	close(kv.gate)
	if err := <-stored; err != nil {
		t.Fatal(err)
	}
	if res := p.LCPQuery(&proto.LCPQueryReq{Graph: g}); !res.Found() || res.Meta.Model != 7 {
		t.Errorf("LCP query after the store finished: %+v", res)
	}
	if _, got, err := p.ReadSegments(7, []graph.VertexID{0}); err != nil || !bytes.Equal(got[0], segs[0]) {
		t.Errorf("read after the store finished: %q, %v", got, err)
	}
}
