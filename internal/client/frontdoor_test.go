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
	sc.put(segRef{1, 0}, make([]byte, 4))
	sc.put(segRef{1, 1}, make([]byte, 4))

	sc.put(segRef{2, 0}, make([]byte, 11))
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
	sc.put(segRef{3, 0}, make([]byte, 10))
	if _, ok := sc.get(segRef{3, 0}); !ok {
		t.Fatal("max-sized entry rejected")
	}
	if sc.size > sc.max {
		t.Fatalf("size = %d exceeds max %d", sc.size, sc.max)
	}

	// max <= 0 disables the cache outright.
	off := newSegCache(0)
	off.put(segRef{1, 0}, []byte{1})
	if _, ok := off.get(segRef{1, 0}); ok {
		t.Fatal("disabled cache admitted an entry")
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

// Over TCP a Load's segments are views into one plain allocation of
// exactly the response's bulk size: nothing rounds it up to a pool size
// class, and nothing recycles it under the caller. The provider answers in
// vertex order, so each non-empty segment's capacity is the bytes from its
// start to the end of the response, and the last one's is its own length.
func TestLoadOverTCPOwnsExactSizeBuffer(t *testing.T) {
	cli := newTCPCluster(t, 1, WithSegCacheBytes(0), WithRegistry(metrics.NewRegistry()))
	ctx := context.Background()
	f := flatten(t, 4)
	ws := model.Materialize(f, 1)
	segs := segsFor(f, ws)
	total := 0
	for _, s := range segs {
		total += len(s)
	}
	if total&(total-1) == 0 {
		t.Fatalf("bulk size %d is a power of two; the test needs one that is not", total)
	}
	if err := cli.Store(ctx, metaFor(f, 3, 1, 0.5), segs); err != nil {
		t.Fatal(err)
	}
	d, err := cli.Load(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	rest := total
	for v, s := range d.Segments {
		if len(s) > 0 && cap(s) != rest {
			t.Errorf("vertex %d: len %d cap %d, want cap %d (to the end of a %d-byte response)",
				v, len(s), cap(s), rest, total)
		}
		rest -= len(s)
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
	if rest != 0 {
		t.Fatalf("segments cover %d of %d response bytes", total-rest, total)
	}
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
}
