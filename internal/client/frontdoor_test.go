package client

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/proto"
	"repro/internal/provider"
	"repro/internal/rpc"
	"repro/internal/tensor"
)

// gateConn counts read_segments wire calls and optionally parks them on a
// gate channel (close the gate to let them through). Every other RPC
// passes straight through, so metadata fetches never deadlock a test.
type gateConn struct {
	rpc.Conn
	gate  chan struct{}
	reads atomic.Int32
}

func (g *gateConn) Call(ctx context.Context, name string, req rpc.Message) (rpc.Message, error) {
	if name == proto.RPCReadSegments {
		g.reads.Add(1)
		select {
		case <-g.gate:
		case <-ctx.Done():
			return rpc.Message{}, ctx.Err()
		}
	}
	return g.Conn.Call(ctx, name, req)
}

// newGatedCluster is a single in-process provider behind a gateConn.
func newGatedCluster(t testing.TB, opts ...Option) (*Client, *gateConn) {
	t.Helper()
	net := rpc.NewInprocNet()
	p := provider.New(0, kvstore.NewMemKV(8))
	srv := rpc.NewServer()
	p.Register(srv)
	if err := net.Listen("a", srv); err != nil {
		t.Fatal(err)
	}
	raw, err := net.Dial("a")
	if err != nil {
		t.Fatal(err)
	}
	gc := &gateConn{Conn: raw, gate: make(chan struct{})}
	return New([]rpc.Conn{gc}, opts...), gc
}

// admit offers ref to sc as a read miss would, twice: a first touch only
// records it, the second admits it.
func admit(sc *segCache, ref segRef, b []byte) bool {
	sc.put(ref, b)
	return sc.put(ref, b)
}

// Regression for the oversize-entry bug: put used to evict the entire
// working set and then insert the oversized entry anyway, leaving
// size > max. An entry that cannot fit even an empty cache must be
// rejected without touching residents, however often it is touched.
func TestSegCacheRejectsOversize(t *testing.T) {
	sc := newSegCache(10)
	admit(sc, segRef{1, 0}, make([]byte, 4))
	admit(sc, segRef{1, 1}, make([]byte, 4))

	if admit(sc, segRef{2, 0}, make([]byte, 11)) {
		t.Fatal("oversized entry was admitted")
	}
	if _, ok := sc.get(segRef{2, 0}); ok {
		t.Fatal("oversized entry was inserted")
	}
	if _, ok := sc.get(segRef{1, 0}); !ok {
		t.Fatal("oversized put evicted resident entries")
	}
	if _, ok := sc.get(segRef{1, 1}); !ok {
		t.Fatal("oversized put evicted resident entries")
	}
	if sc.size != 8 {
		t.Fatalf("size = %d after rejected put, want 8", sc.size)
	}

	// Exactly max still fits, evicting residents FIFO as needed.
	if !admit(sc, segRef{3, 0}, make([]byte, 10)) {
		t.Fatal("max-sized entry rejected")
	}
	if _, ok := sc.get(segRef{3, 0}); !ok {
		t.Fatal("max-sized entry not resident")
	}
	if sc.size > sc.max {
		t.Fatalf("size = %d exceeds max %d", sc.size, sc.max)
	}
}

// A scan of distinct refs, more bytes than the cache holds, is a first
// touch of each: it admits nothing and leaves the resident hot set as it
// was. A FIFO that admits every miss would have evicted the hot set.
func TestSegCacheScanAdmitsNothing(t *testing.T) {
	sc := newSegCache(100)
	for v := 0; v < 5; v++ {
		admit(sc, segRef{1, graph.VertexID(v)}, make([]byte, 10))
	}
	for v := 0; v < 50; v++ { // 500 bytes, five times the bound
		if sc.put(segRef{2, graph.VertexID(v)}, make([]byte, 10)) {
			t.Fatalf("scan entry %d admitted on its first touch", v)
		}
	}
	for v := 0; v < 5; v++ {
		if _, ok := sc.get(segRef{1, graph.VertexID(v)}); !ok {
			t.Fatalf("hot entry %d evicted by the scan", v)
		}
	}
	if sc.size != 50 || sc.doorSize > sc.max {
		t.Fatalf("size %d (want 50), doorkeeper %d bytes (bound %d)", sc.size, sc.doorSize, sc.max)
	}
	// The doorkeeper holds only the last 100 bytes of touches, so a ref
	// that comes round after 500 is a first touch again: the scan repeated
	// admits nothing either.
	for v := 0; v < 50; v++ {
		if sc.put(segRef{2, graph.VertexID(v)}, make([]byte, 10)) {
			t.Fatalf("repeated scan admitted entry %d", v)
		}
	}
}

// A second touch admits, and a Store is a touch: a segment this client
// stored is admitted by its first read miss.
func TestSegCacheSecondTouchAdmits(t *testing.T) {
	sc := newSegCache(100)
	if sc.put(segRef{1, 0}, []byte{1}) {
		t.Fatal("first touch admitted")
	}
	if !sc.put(segRef{1, 0}, []byte{1}) {
		t.Fatal("second touch did not admit")
	}
	if b, ok := sc.get(segRef{1, 0}); !ok || len(b) != 1 {
		t.Fatalf("admitted entry not resident: %v %v", b, ok)
	}
	if sc.put(segRef{1, 0}, []byte{1}) || sc.touch(segRef{1, 0}, 1) {
		t.Fatal("a resident was admitted again")
	}
	if sc.touch(segRef{2, 0}, 1) {
		t.Fatal("store touch admitted")
	}
	if !sc.put(segRef{2, 0}, []byte{2}) {
		t.Fatal("read after a store touch did not admit")
	}

	// max <= 0 disables the cache outright.
	off := newSegCache(0)
	off.touch(segRef{1, 0}, 1)
	for i := 0; i < 3; i++ {
		if off.put(segRef{1, 0}, []byte{1}) {
			t.Fatal("disabled cache admitted an entry")
		}
	}
	if _, ok := off.get(segRef{1, 0}); ok || off.doorFIFO.Len() != 0 {
		t.Fatal("disabled cache kept an entry or a touch")
	}
}

// With WithSegCacheBytes(0) nothing is admitted, however often a model
// this client stored is read: every load crosses the wire.
func TestSegCacheOffAdmitsNothing(t *testing.T) {
	cli, gc := newGatedCluster(t, WithSegCacheBytes(0), WithRegistry(metrics.NewRegistry()))
	close(gc.gate) // counting only
	ctx := context.Background()
	f := flatten(t, 4)
	if err := cli.Store(ctx, metaFor(f, 9, 1, 0.5), segsFor(f, model.Materialize(f, 1))); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := cli.Load(ctx, 9); err != nil {
			t.Fatal(err)
		}
	}
	if n := gc.reads.Load(); n != 3 {
		t.Errorf("3 loads made %d wire reads, want 3", n)
	}
	if cli.cache.hits.Load() != 0 || cli.cache.doorFIFO.Len() != 0 {
		t.Errorf("disabled cache: %d hits, %d refs in the doorkeeper", cli.cache.hits.Load(), cli.cache.doorFIFO.Len())
	}
}

// Thundering herd: K concurrent loads of one model must collapse into a
// single provider round trip. The gate parks the leader's wire call until
// every other goroutine has joined the flight, so the coalescing window
// is deterministic rather than racy.
func TestThunderingHerdCoalesces(t *testing.T) {
	cli, gc := newGatedCluster(t, WithSegCacheBytes(0), WithRegistry(metrics.NewRegistry()))
	ctx := context.Background()
	f := flatten(t, 4)
	ws := model.Materialize(f, 1)
	if err := cli.Store(ctx, metaFor(f, 7, 1, 0.5), segsFor(f, ws)); err != nil {
		t.Fatal(err)
	}

	nv := f.Graph.NumVertices()
	vs := make([]graph.VertexID, nv)
	for i := range vs {
		vs[i] = graph.VertexID(i)
	}
	key := flightKey(7, vs)

	const K = 8
	var wg sync.WaitGroup
	errs := make([]error, K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d, err := cli.Load(ctx, 7)
			if err != nil {
				errs[i] = err
				return
			}
			for v := 0; v < nv; v++ {
				ts, err := tensor.DecodeSet(d.Segments[v])
				if err != nil {
					errs[i] = err
					return
				}
				for j, tt := range ts {
					if !tt.Equal(ws[v][j]) {
						t.Errorf("goroutine %d: vertex %d tensor %d corrupted", i, v, j)
						return
					}
				}
			}
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for cli.flights.Pending(key) < K {
		if time.Now().After(deadline) {
			t.Fatalf("herd never converged: pending=%d wire reads=%d",
				cli.flights.Pending(key), gc.reads.Load())
		}
		time.Sleep(time.Millisecond)
	}
	close(gc.gate)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("load %d: %v", i, err)
		}
	}
	if n := gc.reads.Load(); n != 1 {
		t.Errorf("wire read_segments calls = %d, want 1", n)
	}
	if n := cli.coalesced.Load(); n != K-1 {
		t.Errorf("client.coalesced_read = %d, want %d", n, K-1)
	}
}

// Over TCP a Load's segments are views into one plain allocation, the
// response read off the socket, handed over without a copy: the provider
// answers in vertex order, so the non-empty segments lie back to back.
// Each is capped at its own length, so an append to one reallocates
// instead of overwriting the next.
func TestLoadOverTCPOwnsExactSizeBuffer(t *testing.T) {
	cli := newTCPCluster(t, 1, WithSegCacheBytes(0), WithRegistry(metrics.NewRegistry()))
	ctx := context.Background()
	f := flatten(t, 4)
	ws := model.Materialize(f, 1)
	segs := segsFor(f, ws)
	if err := cli.Store(ctx, metaFor(f, 3, 1, 0.5), segs); err != nil {
		t.Fatal(err)
	}
	d, err := cli.Load(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	var next unsafe.Pointer // where the next non-empty segment must start
	for v, s := range d.Segments {
		if len(s) == 0 {
			continue
		}
		if cap(s) != len(s) {
			t.Errorf("vertex %d: len %d cap %d, want a capped view", v, len(s), cap(s))
		}
		start := unsafe.Pointer(unsafe.SliceData(s))
		if next != nil && start != next {
			t.Errorf("vertex %d does not follow the previous segment in one buffer", v)
		}
		next = unsafe.Add(start, len(s))
		ts, err := tensor.DecodeSet(s)
		if err != nil {
			t.Fatal(err)
		}
		for j, tt := range ts {
			if !tt.Equal(ws[v][j]) {
				t.Fatalf("vertex %d tensor %d corrupted", v, j)
			}
		}
	}
}

// Repeat loads are served from the client-wide segment cache: no wire
// reads, one cache hit per vertex. A model this client stored is cached
// from its first load; one another client stored, from its second.
func TestSegCacheServesRepeatLoads(t *testing.T) {
	cli, gc := newGatedCluster(t, WithRegistry(metrics.NewRegistry()))
	close(gc.gate) // counting only
	ctx := context.Background()
	f := flatten(t, 4)
	ws := model.Materialize(f, 1)
	if err := cli.Store(ctx, metaFor(f, 9, 1, 0.5), segsFor(f, ws)); err != nil {
		t.Fatal(err)
	}
	nv := f.Graph.NumVertices()

	// The first load runs the way a warm-ahead does: in the background,
	// its result dropped as soon as it returns. The cache keeps the
	// segments, so that costs the next load nothing.
	warmed := make(chan error, 1)
	go func() {
		_, err := cli.Load(ctx, 9)
		warmed <- err
	}()
	if err := <-warmed; err != nil {
		t.Fatal(err)
	}
	wireAfterFirst := gc.reads.Load()
	if m := cli.cache.misses.Load(); m != uint64(nv) {
		t.Errorf("segcache_miss after cold load = %d, want %d", m, nv)
	}

	d2, err := cli.Load(ctx, 9)
	if err != nil {
		t.Fatal(err)
	}
	if n := gc.reads.Load(); n != wireAfterFirst {
		t.Errorf("repeat load made %d extra wire reads, want 0", n-wireAfterFirst)
	}
	if h := cli.cache.hits.Load(); h != uint64(nv) {
		t.Errorf("segcache_hit after warm load = %d, want %d", h, nv)
	}
	for v := 0; v < nv; v++ {
		ts, err := tensor.DecodeSet(d2.Segments[v])
		if err != nil {
			t.Fatal(err)
		}
		for j, tt := range ts {
			if !tt.Equal(ws[v][j]) {
				t.Fatalf("cached vertex %d tensor %d corrupted", v, j)
			}
		}
	}

	// Model 10 is stored by another client on the same provider: this
	// client's first load is the segments' first touch and admits nothing,
	// the second admits them, the third hits.
	other := New([]rpc.Conn{gc.Conn}, WithRegistry(metrics.NewRegistry()))
	if err := other.Store(ctx, metaFor(f, 10, 2, 0.5), segsFor(f, model.Materialize(f, 2))); err != nil {
		t.Fatal(err)
	}
	for i, want := range []struct{ reads, hits int }{{1, 0}, {1, 0}, {0, nv}} {
		reads, hits := gc.reads.Load(), cli.cache.hits.Load()
		if _, err := cli.Load(ctx, 10); err != nil {
			t.Fatal(err)
		}
		if got := int(gc.reads.Load() - reads); got != want.reads {
			t.Errorf("load %d of a model another client stored: %d wire reads, want %d", i+1, got, want.reads)
		}
		if got := int(cli.cache.hits.Load() - hits); got != want.hits {
			t.Errorf("load %d of a model another client stored: %d cache hits, want %d", i+1, got, want.hits)
		}
	}
}
