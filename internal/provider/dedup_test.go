package provider

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/ownermap"
	"repro/internal/proto"
	"repro/internal/rpc"
)

// callDecRef drives the RPC handler the way a retrying client would.
func callDecRef(t *testing.T, p *Provider, req *proto.RefReq) (uint64, error) {
	t.Helper()
	resp, err := p.handleRef(true)(context.Background(), rpc.Message{Meta: req.Encode()})
	if err != nil {
		return 0, err
	}
	freed, err := proto.DecodeRefResp(resp.Meta)
	if err != nil {
		t.Fatal(err)
	}
	return freed[0], nil
}

func TestDecRefRetryDedup(t *testing.T) {
	p := New(0, kvstore.NewMemKV(4))
	g := chainGraph(1, 2, 3)
	req, segs := storeReq(7, 1, 0.5, g)
	if err := p.StoreModel(req, segs); err != nil {
		t.Fatal(err)
	}
	// Pin vertex 0 twice more so a single DecRef cannot free it.
	if err := p.IncRef(7, []graph.VertexID{0}); err != nil {
		t.Fatal(err)
	}
	if err := p.IncRef(7, []graph.VertexID{0}); err != nil {
		t.Fatal(err)
	}
	if n := p.RefCount(7, 0); n != 3 {
		t.Fatalf("setup refcount = %d", n)
	}

	// First execution succeeds but (conceptually) its response is lost;
	// the client retries the identical request with the same ReqID.
	dec := &proto.RefReq{Groups: one(7, 0), ReqID: 42}
	freed1, err := callDecRef(t, p, dec)
	if err != nil {
		t.Fatal(err)
	}
	freed2, err := callDecRef(t, p, dec)
	if err != nil {
		t.Fatalf("retried DecRef: %v", err)
	}
	if freed1 != freed2 {
		t.Errorf("retry answered differently: %d vs %d", freed1, freed2)
	}
	if n := p.RefCount(7, 0); n != 2 {
		t.Fatalf("refcount after retried DecRef = %d, want 2 (no double decrement)", n)
	}
	// A distinct request really decrements.
	if _, err := callDecRef(t, p, &proto.RefReq{Groups: one(7, 0), ReqID: 43}); err != nil {
		t.Fatal(err)
	}
	if n := p.RefCount(7, 0); n != 1 {
		t.Fatalf("refcount after fresh DecRef = %d, want 1", n)
	}
}

func TestIncRefRetryDedup(t *testing.T) {
	p := New(0, kvstore.NewMemKV(4))
	g := chainGraph(1, 2)
	req, segs := storeReq(3, 1, 0.5, g)
	if err := p.StoreModel(req, segs); err != nil {
		t.Fatal(err)
	}
	inc := &proto.RefReq{Groups: one(3, 1), ReqID: 9}
	for i := 0; i < 3; i++ {
		if _, err := p.handleRef(false)(context.Background(), rpc.Message{Meta: inc.Encode()}); err != nil {
			t.Fatal(err)
		}
	}
	if n := p.RefCount(3, 1); n != 2 {
		t.Fatalf("refcount = %d, want 2 (one store + one deduped IncRef)", n)
	}
}

// TestRegroupedRetryAppliesNewGroups: a client that re-resolves placement
// sends a provider the same ReqID with another group set. A dedup entry
// answers only the bytes it recorded, so the regrouped message executes:
// its new group applies, and the owner's journal skips the group the first
// message applied. Keyed by ReqID alone, the regrouped message would be
// answered from the first one's reply and owner 3 never pinned.
func TestRegroupedRetryAppliesNewGroups(t *testing.T) {
	p := New(0, kvstore.NewMemKV(4))
	reg := metrics.NewRegistry()
	p.SetMetricsRegistry(reg)
	for _, id := range []ownermap.ModelID{1, 2, 3} {
		req, segs := storeReq(id, uint64(id), 0.5, chainGraph(1, 2, 3))
		req.ReqID = 100 + uint64(id)
		if err := p.StoreModel(req, segs); err != nil {
			t.Fatal(err)
		}
	}
	inc := func(gs []proto.RefGroup) []uint64 {
		t.Helper()
		resp, err := p.handleRef(false)(context.Background(), rpc.Message{Meta: (&proto.RefReq{Groups: gs, ReqID: 50}).Encode()})
		if err != nil {
			t.Fatal(err)
		}
		freed, err := proto.DecodeRefResp(resp.Meta)
		if err != nil || len(freed) != len(gs) {
			t.Fatalf("reply %v for %d groups: %v", freed, len(gs), err)
		}
		return freed
	}
	counts := func() [3]int {
		return [3]int{p.RefCount(1, 0), p.RefCount(2, 0), p.RefCount(3, 0)}
	}
	first := []proto.RefGroup{{Owner: 1, Vertices: []graph.VertexID{0}}, {Owner: 2, Vertices: []graph.VertexID{0}}}
	regrouped := []proto.RefGroup{{Owner: 2, Vertices: []graph.VertexID{0}}, {Owner: 3, Vertices: []graph.VertexID{0}}}
	inc(first)
	inc(regrouped)
	if got, want := counts(), [3]int{2, 2, 2}; got != want {
		t.Fatalf("refcounts of owners 1-3 after a regrouped retry = %v, want %v (each group once)", got, want)
	}
	if n := reg.Counter("provider.journal_dup").Load(); n != 1 {
		t.Errorf("journal_dup = %d, want 1 (owner 2 skipped)", n)
	}
	// Byte-identical retries of either message change nothing: the last one
	// is answered from the dedup table, the first by the journals.
	inc(regrouped)
	inc(first)
	if got, want := counts(), [3]int{2, 2, 2}; got != want {
		t.Fatalf("refcounts after retries = %v, want %v", got, want)
	}
	if n := reg.Counter("provider.dedup_hit").Load(); n != 1 {
		t.Errorf("dedup_hit = %d, want 1", n)
	}
}

func TestRetireRetryDedup(t *testing.T) {
	p := New(0, kvstore.NewMemKV(4))
	g := chainGraph(1, 2)
	req, segs := storeReq(5, 1, 0.5, g)
	if err := p.StoreModel(req, segs); err != nil {
		t.Fatal(err)
	}
	ret := &proto.RetireReq{Model: 5, ReqID: 77}
	resp1, err := p.handleRetire(context.Background(), rpc.Message{Meta: ret.Encode()})
	if err != nil {
		t.Fatal(err)
	}
	// Without dedup the retry would fail with "not found" and the client
	// would never learn the owner map it must DecRef against.
	resp2, err := p.handleRetire(context.Background(), rpc.Message{Meta: ret.Encode()})
	if err != nil {
		t.Fatalf("retried Retire: %v", err)
	}
	if !bytes.Equal(resp1.Meta, resp2.Meta) {
		t.Error("retried Retire answered with a different owner map")
	}
	// A genuinely new Retire of the gone model still errors.
	if _, err := p.handleRetire(context.Background(), rpc.Message{Meta: (&proto.RetireReq{Model: 5, ReqID: 78}).Encode()}); err == nil {
		t.Error("fresh retire of retired model succeeded")
	}
}

func TestStoreModelRetryDedup(t *testing.T) {
	p := New(0, kvstore.NewMemKV(4))
	g := chainGraph(1, 2)
	req, segs := storeReq(6, 1, 0.5, g)
	req.ReqID = 11
	var bulk []byte
	for _, s := range segs {
		bulk = append(bulk, s...)
	}
	msg := rpc.Message{Meta: req.Encode(), Bulk: bulk}
	if _, err := p.handleStoreModel(context.Background(), msg); err != nil {
		t.Fatal(err)
	}
	// A blind retry would fail with "already stored"; dedup must accept it.
	if _, err := p.handleStoreModel(context.Background(), msg); err != nil {
		t.Fatalf("retried StoreModel: %v", err)
	}
	if n := p.RefCount(6, 0); n != 1 {
		t.Fatalf("refcount after retried store = %d, want 1", n)
	}
}

func TestDedupTableTTL(t *testing.T) {
	d := newDedupTable(16)
	clock := time.Unix(1000, 0)
	d.now = func() time.Time { return clock }
	d.setTTL(time.Minute)

	d.put(1, 0, []byte{1})
	clock = clock.Add(30 * time.Second)
	d.put(2, 0, []byte{2})

	// Both inside the window.
	if _, ok := d.get(1, 0); !ok {
		t.Fatal("fresh entry 1 missing")
	}
	if _, ok := d.get(2, 0); !ok {
		t.Fatal("fresh entry 2 missing")
	}

	// 61s after entry 1's insert: 1 expired, 2 (31s old) still live.
	clock = clock.Add(31 * time.Second)
	if _, ok := d.get(1, 0); ok {
		t.Error("entry 1 outlived its TTL")
	}
	if _, ok := d.get(2, 0); !ok {
		t.Error("entry 2 expired early")
	}
	if d.len() != 1 {
		t.Errorf("len = %d, want 1 after expiry", d.len())
	}

	// Expiry also runs on put: a stale survivor must not block the path.
	clock = clock.Add(2 * time.Minute)
	d.put(3, 0, []byte{3})
	if d.len() != 1 {
		t.Errorf("len = %d, want 1 (entry 2 expired on put)", d.len())
	}
	if _, ok := d.get(3, 0); !ok {
		t.Error("entry 3 missing")
	}
}

func TestDedupTableTTLDisabled(t *testing.T) {
	d := newDedupTable(16)
	clock := time.Unix(1000, 0)
	d.now = func() time.Time { return clock }
	d.setTTL(0)

	d.put(1, 0, []byte{1})
	clock = clock.Add(24 * time.Hour)
	if _, ok := d.get(1, 0); !ok {
		t.Error("TTL 0 must disable age-based expiry")
	}
}

func TestSetDedupTTLOnProvider(t *testing.T) {
	p := New(0, kvstore.NewMemKV(4))
	clock := time.Unix(0, 0)
	p.dedup.now = func() time.Time { return clock }
	p.SetDedupTTL(time.Second)

	g := chainGraph(1, 2, 3)
	req, segs := storeReq(7, 1, 0.5, g)
	if err := p.StoreModel(req, segs); err != nil {
		t.Fatal(err)
	}
	if err := p.IncRef(7, []graph.VertexID{0}); err != nil {
		t.Fatal(err)
	}
	dec := &proto.RefReq{Groups: one(7, 0), ReqID: 42}
	if _, err := callDecRef(t, p, dec); err != nil {
		t.Fatal(err)
	}
	// Within the TTL the retry is absorbed...
	if _, err := callDecRef(t, p, dec); err != nil {
		t.Fatal(err)
	}
	if n := p.RefCount(7, 0); n != 1 {
		t.Fatalf("refcount = %d, want 1 (retry deduped)", n)
	}
	// ...after it, the dedup entry is gone — but the refcount journal has
	// seen ReqID 42, so the late retry is still absorbed instead of
	// double-applying the decrement. The TTL only bounds how long the
	// *response* can be replayed verbatim.
	clock = clock.Add(2 * time.Second)
	if _, err := callDecRef(t, p, dec); err != nil {
		t.Fatal(err)
	}
	if n := p.RefCount(7, 0); n != 1 {
		t.Fatalf("refcount = %d, want 1 (journal absorbed the post-TTL retry)", n)
	}
}

func TestDedupTableCompaction(t *testing.T) {
	d := newDedupTable(8)
	clock := time.Unix(1000, 0)
	d.now = func() time.Time { return clock }
	d.setTTL(time.Minute)

	for id := uint64(1); id <= 8; id++ {
		d.put(id, 0, []byte{byte(id)})
		clock = clock.Add(time.Second)
	}
	// Age out the first 5 entries (> cap/2 = 4): expiry must not only
	// re-slice past them but also copy the survivors into fresh
	// backing arrays, releasing the dead head.
	clock = time.Unix(1000, 0).Add(5*time.Second - time.Second/2).Add(time.Minute)
	if d.len() != 3 {
		t.Fatalf("len = %d, want 3 survivors", d.len())
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.dead != 0 {
		t.Errorf("dead = %d, want 0 after compaction", d.dead)
	}
	if cap(d.order) != 3 || cap(d.stamp) != 3 {
		t.Errorf("cap(order)=%d cap(stamp)=%d, want 3 (fresh right-sized arrays)",
			cap(d.order), cap(d.stamp))
	}
	if len(d.order) != 3 || d.order[0] != 6 {
		t.Errorf("order = %v, want [6 7 8]", d.order)
	}
}

func TestDedupTableBounded(t *testing.T) {
	d := newDedupTable(4)
	for id := uint64(1); id <= 10; id++ {
		d.put(id, 0, []byte{byte(id)})
	}
	if d.len() != 4 {
		t.Fatalf("table len = %d, want cap 4", d.len())
	}
	if _, ok := d.get(1, 0); ok {
		t.Error("oldest entry not evicted")
	}
	if meta, ok := d.get(10, 0); !ok || meta[0] != 10 {
		t.Error("newest entry missing")
	}
	if _, ok := d.get(0, 0); ok {
		t.Error("id 0 must never hit")
	}
}
