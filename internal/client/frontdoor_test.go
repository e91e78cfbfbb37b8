package client

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// Regression for the oversize-entry bug: put used to evict the entire
// working set and then insert the oversized entry anyway, leaving
// size > max. An entry that cannot fit even an empty cache must be
// rejected without touching residents.
func TestSegCacheRejectsOversize(t *testing.T) {
	sc := newSegCache(10)
	sc.put(segRef{1, 0}, make([]byte, 4), 0, nil)
	sc.put(segRef{1, 1}, make([]byte, 4), 0, nil)

	sc.put(segRef{2, 0}, make([]byte, 11), 0, nil)
	if _, ok := sc.get(segRef{2, 0}, nil); ok {
		t.Fatal("oversized entry was inserted")
	}
	if _, ok := sc.get(segRef{1, 0}, nil); !ok {
		t.Fatal("oversized put evicted resident entries")
	}
	if _, ok := sc.get(segRef{1, 1}, nil); !ok {
		t.Fatal("oversized put evicted resident entries")
	}
	if sc.size != 8 {
		t.Fatalf("size = %d after rejected put, want 8", sc.size)
	}

	// Exactly max still fits, evicting residents FIFO as needed.
	sc.put(segRef{3, 0}, make([]byte, 10), 0, nil)
	if _, ok := sc.get(segRef{3, 0}, nil); !ok {
		t.Fatal("max-sized entry rejected")
	}
	if sc.size > sc.max {
		t.Fatalf("size = %d exceeds max %d", sc.size, sc.max)
	}

	// max <= 0 disables the cache outright.
	off := newSegCache(0)
	off.put(segRef{1, 0}, []byte{1}, 0, nil)
	if _, ok := off.get(segRef{1, 0}, nil); ok {
		t.Fatal("disabled cache admitted an entry")
	}
}

// The cache holds its own reference on a frame-backed entry, hands one to
// each reader's lease, and drops its own at eviction.
func TestSegCacheFrameAccounting(t *testing.T) {
	f := rpc.NewFrame(make([]byte, 4))
	sc := newSegCache(4)
	sc.put(segRef{1, 0}, make([]byte, 4), 0, f)
	if n := f.Refs(); n != 2 {
		t.Fatalf("refs after cached put = %d, want 2 (caller + cache)", n)
	}
	var l Lease
	if _, ok := sc.get(segRef{1, 0}, &l); !ok {
		t.Fatal("entry missing")
	}
	if n := f.Refs(); n != 3 {
		t.Fatalf("refs after leased get = %d, want 3", n)
	}
	sc.put(segRef{2, 0}, make([]byte, 4), 0, nil) // evicts {1,0}
	if n := f.Refs(); n != 2 {
		t.Fatalf("refs after eviction = %d, want 2 (cache ref dropped)", n)
	}
	l.Release()
	f.Release()
	if n := f.Refs(); n != 0 {
		t.Fatalf("refs after release = %d, want 0", n)
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
			defer d.Release()
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

// Over TCP every full read lands in pooled frames: the load's lease holds
// exactly one reference per frame, and Release returns every one.
func TestLoadLeaseReturnsFramesOverTCP(t *testing.T) {
	cli := newTCPCluster(t, 1, WithSegCacheBytes(0), WithRegistry(metrics.NewRegistry()))
	ctx := context.Background()
	f := flatten(t, 4)
	ws := model.Materialize(f, 1)
	if err := cli.Store(ctx, metaFor(f, 3, 1, 0.5), segsFor(f, ws)); err != nil {
		t.Fatal(err)
	}
	d, err := cli.Load(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	// The views must be valid while the lease is held.
	for v := 0; v < f.Graph.NumVertices(); v++ {
		ts, err := tensor.DecodeSet(d.Segments[v])
		if err != nil {
			t.Fatal(err)
		}
		for j, tt := range ts {
			if !tt.Equal(ws[v][j]) {
				t.Fatalf("vertex %d tensor %d corrupted under lease", v, j)
			}
		}
	}
	if len(d.lease.frames) == 0 {
		t.Fatal("TCP load took no pooled frames")
	}
	frames := append([]*rpc.Frame(nil), d.lease.frames...)
	for i, fr := range frames {
		if n := fr.Refs(); n != 1 {
			t.Errorf("frame %d refs = %d before release, want 1 (cache disabled)", i, n)
		}
	}
	d.Release()
	for i, fr := range frames {
		if n := fr.Refs(); n != 0 {
			t.Errorf("frame %d refs = %d after release, want 0", i, n)
		}
	}
	d.Release() // idempotent
}

// Repeat loads are served from the client-wide segment cache: no wire
// reads, one cache hit per vertex.
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
	// its lease released as soon as it returns. The cache holds its own
	// references, so that costs the next load nothing.
	warmed := make(chan error, 1)
	go func() {
		d, err := cli.Load(ctx, 9)
		d.Release()
		warmed <- err
	}()
	if err := <-warmed; err != nil {
		t.Fatal(err)
	}
	wireAfterFirst := gc.reads.Load()
	if m := cli.resolved.misses.Load(); m != uint64(nv) {
		t.Errorf("segcache_miss after cold load = %d, want %d", m, nv)
	}

	d2, err := cli.Load(ctx, 9)
	if err != nil {
		t.Fatal(err)
	}
	if n := gc.reads.Load(); n != wireAfterFirst {
		t.Errorf("repeat load made %d extra wire reads, want 0", n-wireAfterFirst)
	}
	if h := cli.resolved.hits.Load(); h != uint64(nv) {
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
	d2.Release()
}
