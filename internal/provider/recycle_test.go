package provider

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

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

// casGateKV parks every chunk read until gate closes.
type casGateKV struct {
	kvstore.KV
	gate <-chan struct{}
}

func (g *casGateKV) Get(key string) ([]byte, bool, error) {
	if strings.HasPrefix(key, "cas/") {
		<-g.gate
	}
	return g.KV.Get(key)
}

// A read served alone hands its pooled buffers back through Release; a
// flight several readers joined hands back none, leader included, while
// the coalescing counters count the waiters only.
func TestCollapsedReadNeverRecycled(t *testing.T) {
	gate := make(chan struct{})
	p := New(0, dedup.Wrap(&casGateKV{KV: kvstore.NewMemKV(4), gate: gate}, dedup.Options{}))
	reg := metrics.NewRegistry()
	p.SetMetricsRegistry(reg)
	segs := storeRandom(t, p, 7, rand.New(rand.NewSource(1)), 3*dedup.DefaultChunkSize+5, 100, dedup.DefaultChunkSize)
	want := bytes.Join(segs, nil)
	q := &proto.ReadSegmentsReq{Owner: 7, Vertices: []graph.VertexID{0, 1, 2}}
	read := func() rpc.Message {
		t.Helper()
		resp, err := p.handleReadSegments(context.Background(), rpc.Message{Meta: q.Encode()})
		if err != nil {
			t.Error(err)
		} else if !bytes.Equal(resp.BulkFlat(), want) {
			t.Error("read returned other bytes than were stored")
		}
		return resp
	}

	const k = 8
	resps := make([]rpc.Message, k)
	var wg sync.WaitGroup
	for i := range resps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i] = read()
		}(i)
	}
	for p.readFlights.Pending(readFlightKey(q)) != k {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()
	for i, r := range resps {
		if r.Release != nil {
			t.Errorf("response %d of a flight %d readers shared carries a Release", i, k)
		}
	}
	if exec, coal := reg.Counter("provider.read_exec").Load(), reg.Counter("provider.read_coalesced").Load(); exec != 1 || coal != k-1 {
		t.Errorf("read_exec %d read_coalesced %d, want 1 and %d", exec, coal, k-1)
	}

	if lone := read(); lone.Release == nil {
		t.Error("a read served alone carries no Release")
	} else {
		lone.Release()
	}
}

// Recycle safety end to end: many concurrent identical read_segments
// calls over TCP collapse on the provider, interleaved with reads of other
// owners whose buffers come from the same pool size classes, and every
// response is checked byte for byte once all calls have returned.
func TestReadSegmentsRecycleOverTCP(t *testing.T) {
	lsm, err := kvstore.OpenLSM(t.TempDir(), kvstore.LSMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer lsm.Close()
	p := New(0, dedup.Wrap(lsm, dedup.Options{}))
	reg := metrics.NewRegistry()
	p.SetMetricsRegistry(reg)
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
	if reg.Counter("provider.read_coalesced").Load() == 0 {
		t.Error("no read joined another's flight: the collapser was not exercised")
	}
}
