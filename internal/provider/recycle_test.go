package provider

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dedup"
	"repro/internal/graph"
	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/ownermap"
	"repro/internal/proto"
	"repro/internal/rpc"
)

// storeRandom stores model id as a chain of len(sizes) vertices whose
// segments are random bytes of the given sizes, and returns the segments.
func storeRandom(t *testing.T, p *Provider, id ownermap.ModelID, rng *rand.Rand, sizes ...int) [][]byte {
	t.Helper()
	sigs := make([]uint64, len(sizes))
	for i := range sigs {
		sigs[i] = uint64(id)<<8 | uint64(i)
	}
	req, _ := storeReq(id, uint64(id), 0.5, chainGraph(sigs...))
	segs := make([][]byte, len(sizes))
	for v, n := range sizes {
		segs[v] = make([]byte, n)
		rng.Read(segs[v])
		req.Segments[v].Length = uint32(n)
	}
	if err := p.StoreModel(req, segs); err != nil {
		t.Fatal(err)
	}
	return segs
}

// casGateKV counts the chunk reads that arrive and parks each until gate
// closes.
type casGateKV struct {
	kvstore.KV
	arrived atomic.Int32
	gate    <-chan struct{}
}

func (g *casGateKV) Get(key string) ([]byte, bool, error) {
	if strings.HasPrefix(key, "cas/") {
		g.arrived.Add(1)
		<-g.gate
	}
	return g.KV.Get(key)
}

// Concurrent identical reads each execute and each hand back exactly the
// buffers they drew: every response carries a Release, and no pooled
// segment buffer appears in two responses.
func TestConcurrentReadsRecycleOwnBuffers(t *testing.T) {
	gate := make(chan struct{})
	kv := &casGateKV{KV: kvstore.NewMemKV(4), gate: gate}
	p := New(0, dedup.Wrap(kv, dedup.Options{}))
	reg := metrics.NewRegistry()
	p.SetMetricsRegistry(reg)
	sizes := []int{3*dedup.DefaultChunkSize + 5, 100, dedup.DefaultChunkSize}
	segs := storeRandom(t, p, 7, rand.New(rand.NewSource(1)), sizes...)
	want := bytes.Join(segs, nil)
	q := &proto.ReadSegmentsReq{Owner: 7, Vertices: []graph.VertexID{0, 1, 2}}

	const k = 8
	resps := make([]rpc.Message, k)
	var wg sync.WaitGroup
	for i := range resps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := p.handleReadSegments(context.Background(), rpc.Message{Meta: q.Encode()})
			if err != nil {
				t.Error(err)
			}
			resps[i] = resp
		}(i)
	}
	for start := time.Now(); kv.arrived.Load() < k; runtime.Gosched() { // every read parks on its first chunk
		if time.Since(start) > 5*time.Second {
			close(gate)
			wg.Wait()
			t.Fatalf("%d of %d concurrent reads reached the store", kv.arrived.Load(), k)
		}
	}
	close(gate)
	wg.Wait()
	if req, exec := reg.Counter("provider.read_request").Load(), reg.Counter("provider.read_exec").Load(); req != k || exec != k {
		t.Errorf("read_request %d read_exec %d, want %d each", req, exec, k)
	}
	owner := make(map[*byte]int) // pooled buffer → the response holding it
	for i, r := range resps {
		if !bytes.Equal(r.BulkFlat(), want) {
			t.Errorf("response %d holds other bytes than were stored", i)
		}
		if r.Release == nil {
			t.Errorf("response %d carries no Release", i)
		}
		for v, seg := range r.BulkVec {
			if sizes[v] < dedup.DefaultChunkSize {
				continue // the store's own buffer, never pooled
			}
			if j, ok := owner[&seg[0]]; ok {
				t.Errorf("responses %d and %d hold the same buffer", j, i)
			}
			owner[&seg[0]] = i
		}
	}
	for _, r := range resps {
		if r.Release != nil {
			r.Release()
		}
	}
}

// Recycle safety end to end: many concurrent identical read_segments
// calls over TCP, interleaved with reads of other owners whose buffers
// come from the same pool size classes, and every response is checked
// byte for byte once all calls have returned.
func TestReadSegmentsRecycleOverTCP(t *testing.T) {
	lsm, err := kvstore.OpenLSM(t.TempDir(), kvstore.LSMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer lsm.Close()
	p := New(0, dedup.Wrap(lsm, dedup.Options{}))
	rng := rand.New(rand.NewSource(2))
	const models = 6
	want := make(map[ownermap.ModelID][]byte, models)
	for id := ownermap.ModelID(1); id <= models; id++ {
		// 64 KiB + a tail up to 128 KiB: the buffered write path and the
		// writev path, in the same pool classes across models.
		sizes := []int{dedup.DefaultChunkSize + rng.Intn(dedup.DefaultChunkSize), 300, dedup.DefaultChunkSize + 7}
		if id%2 == 0 {
			sizes = sizes[:1]
		}
		want[id] = bytes.Join(storeRandom(t, p, id, rng, sizes...), nil)
		if id == 3 {
			if err := lsm.Flush(); err != nil { // some chunks behind value-log pointers, some in the memtable
				t.Fatal(err)
			}
		}
	}
	srv := rpc.NewServer()
	p.Register(srv)
	lis, addr, err := rpc.ListenAndServeTCP("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	pool := rpc.NewPool(addr, 16, rpc.DialTCP)
	defer pool.Close()

	const rounds, identical, others = 20, 8, 4
	type got struct {
		id   ownermap.ModelID
		resp rpc.Message
		err  error
	}
	results := make([]got, 0, rounds*(identical+others))
	var mu sync.Mutex
	for r := 0; r < rounds; r++ {
		hot := ownermap.ModelID(1 + r%models)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < identical+others; i++ {
			id := hot
			if i >= identical {
				id = ownermap.ModelID(1 + (r+i)%models)
			}
			vs := []graph.VertexID{0}
			if id%2 == 1 {
				vs = []graph.VertexID{0, 1, 2}
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				q := &proto.ReadSegmentsReq{Owner: id, Vertices: vs}
				resp, err := pool.Call(context.Background(), proto.RPCReadSegments, rpc.Message{Meta: q.Encode()})
				mu.Lock()
				results = append(results, got{id, resp, err})
				mu.Unlock()
			}()
		}
		close(start)
		wg.Wait()
	}
	for _, g := range results {
		if g.err != nil {
			t.Fatalf("read %d: %v", g.id, g.err)
		}
		if !bytes.Equal(g.resp.BulkFlat(), want[g.id]) {
			t.Fatalf("read %d returned bytes other than the model's", g.id)
		}
	}
}
