package client

import (
	"context"
	"net"
	"testing"

	"repro/internal/graph"
	"repro/internal/kvstore"
	"repro/internal/model"
	"repro/internal/ownermap"
	"repro/internal/proto"
	"repro/internal/provider"
	"repro/internal/rpc"
	"repro/internal/tensor"
)

// newTCPCluster starts n providers on real TCP listeners and returns a
// client wired to them — the deployment shape of cmd/evostore-server.
func newTCPCluster(t testing.TB, n int, opts ...Option) *Client {
	t.Helper()
	conns := make([]rpc.Conn, n)
	for i := 0; i < n; i++ {
		p := provider.New(i, kvstore.NewMemKV(8))
		srv := rpc.NewServer()
		p.Register(srv)
		lis, addr, err := rpc.ListenAndServeTCP("127.0.0.1:0", srv)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { lis.Close() })
		pool := rpc.NewPool(addr, 4, rpc.DialTCP)
		t.Cleanup(func() { pool.Close() })
		conns[i] = pool
	}
	return New(conns, opts...)
}

func flatten(t testing.TB, lastDim int) *model.Flat {
	t.Helper()
	f, err := model.Flatten(model.Sequential("m", 8,
		model.Dense{In: 8, Out: 8, Activation: "relu", UseBias: true},
		model.Dense{In: 8, Out: 8, Activation: "relu"},
		model.Dense{In: 8, Out: lastDim},
	))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func metaFor(f *model.Flat, id ownermap.ModelID, seq uint64, q float64) *proto.ModelMeta {
	return &proto.ModelMeta{
		Model:    id,
		Seq:      seq,
		Quality:  q,
		Graph:    f.Graph,
		OwnerMap: ownermap.New(id, seq, f.Graph.NumVertices()),
	}
}

func segsFor(f *model.Flat, ws model.WeightSet) [][]byte {
	segs := make([][]byte, f.Graph.NumVertices())
	for v := range segs {
		segs[v] = tensor.EncodeSet(ws[v])
	}
	return segs
}

func TestStoreLoadOverTCP(t *testing.T) {
	cli := newTCPCluster(t, 3)
	ctx := context.Background()
	f := flatten(t, 4)
	ws := model.Materialize(f, 1)

	if err := cli.Store(ctx, metaFor(f, 7, 1, 0.5), segsFor(f, ws)); err != nil {
		t.Fatal(err)
	}
	data, err := cli.Load(ctx, 7)
	if err != nil {
		t.Fatal(err)
	}
	if data.Meta.Model != 7 || !data.Meta.Graph.Equal(f.Graph) {
		t.Error("metadata mismatch over TCP")
	}
	for v := 0; v < f.Graph.NumVertices(); v++ {
		ts, err := tensor.DecodeSet(data.Segments[v])
		if err != nil {
			t.Fatal(err)
		}
		for i, tt := range ts {
			if !tt.Equal(ws[v][i]) {
				t.Fatalf("vertex %d tensor %d corrupted over TCP", v, i)
			}
		}
	}
}

func TestStoreValidatesShape(t *testing.T) {
	cli := newTCPCluster(t, 2)
	ctx := context.Background()
	f := flatten(t, 4)
	meta := metaFor(f, 1, 1, 0.5)
	if err := cli.Store(ctx, meta, make([][]byte, 2)); err == nil {
		t.Error("Store accepted wrong segment count")
	}
}

func TestDuplicateStoreRejected(t *testing.T) {
	cli := newTCPCluster(t, 2)
	ctx := context.Background()
	f := flatten(t, 4)
	ws := model.Materialize(f, 1)
	if err := cli.Store(ctx, metaFor(f, 5, 1, 0.5), segsFor(f, ws)); err != nil {
		t.Fatal(err)
	}
	if err := cli.Store(ctx, metaFor(f, 5, 2, 0.6), segsFor(f, ws)); err == nil {
		t.Error("duplicate model ID accepted")
	}
}

func TestQueryLCPAndPartialReadOverTCP(t *testing.T) {
	cli := newTCPCluster(t, 3)
	ctx := context.Background()
	f := flatten(t, 4)
	ws := model.Materialize(f, 1)
	if err := cli.Store(ctx, metaFor(f, 11, 1, 0.9), segsFor(f, ws)); err != nil {
		t.Fatal(err)
	}

	f2 := flatten(t, 9)
	res, found, err := cli.QueryLCP(ctx, f2.Graph, nil)
	if err != nil || !found {
		t.Fatalf("query: %v found=%v", err, found)
	}
	if res.Meta.Model != 11 || len(res.Prefix) != 3 {
		t.Fatalf("result = %+v", res)
	}

	meta, err := cli.GetMeta(ctx, 11)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := cli.LoadVertices(ctx, meta, res.Prefix)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Prefix {
		ts, err := tensor.DecodeSet(segs[v])
		if err != nil {
			t.Fatal(err)
		}
		for i, tt := range ts {
			if !tt.Equal(ws[v][i]) {
				t.Fatalf("prefix vertex %d tensor %d mismatch", v, i)
			}
		}
	}
	// Unrequested vertices stay nil.
	for v := range segs {
		requested := false
		for _, p := range res.Prefix {
			if graph.VertexID(v) == p {
				requested = true
			}
		}
		if !requested && segs[v] != nil {
			t.Errorf("vertex %d fetched without being requested", v)
		}
	}
}

func TestQueryLCPExclude(t *testing.T) {
	cli := newTCPCluster(t, 2)
	ctx := context.Background()
	f := flatten(t, 4)
	ws := model.Materialize(f, 1)
	cli.Store(ctx, metaFor(f, 3, 1, 0.5), segsFor(f, ws))

	_, found, err := cli.QueryLCP(ctx, f.Graph, []ownermap.ModelID{3})
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Error("excluded model returned as ancestor")
	}
}

func TestLoadVerticesOutOfRange(t *testing.T) {
	cli := newTCPCluster(t, 2)
	ctx := context.Background()
	f := flatten(t, 4)
	cli.Store(ctx, metaFor(f, 2, 1, 0.5), segsFor(f, model.Materialize(f, 1)))
	meta, err := cli.GetMeta(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.LoadVertices(ctx, meta, []graph.VertexID{99}); err == nil {
		t.Error("out-of-range vertex accepted")
	}
}

func TestHomeProviderDistribution(t *testing.T) {
	cli := newTCPCluster(t, 4)
	counts := make([]int, 4)
	for id := ownermap.ModelID(0); id < 100; id++ {
		counts[cli.HomeProvider(id)]++
	}
	for p, c := range counts {
		if c != 25 {
			t.Errorf("provider %d got %d/100 sequential IDs", p, c)
		}
	}
}

func TestStatsAndListAcrossProviders(t *testing.T) {
	cli := newTCPCluster(t, 3)
	ctx := context.Background()
	for id := ownermap.ModelID(1); id <= 6; id++ {
		f := flatten(t, 4+int(id))
		if err := cli.Store(ctx, metaFor(f, id, uint64(id), 0.5), segsFor(f, model.Materialize(f, uint64(id)))); err != nil {
			t.Fatal(err)
		}
	}
	ids, err := cli.ListModels(ctx)
	if err != nil || len(ids) != 6 {
		t.Fatalf("ListModels = %v, %v", ids, err)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Error("ListModels not sorted")
		}
	}
	st, err := cli.Stats(ctx)
	if err != nil || st.Models != 6 {
		t.Fatalf("Stats = %+v, %v", st, err)
	}
	if st.Segments == 0 || st.SegmentBytes == 0 {
		t.Errorf("Stats missing segment accounting: %+v", st)
	}
}

func TestRetireUnknownModel(t *testing.T) {
	cli := newTCPCluster(t, 2)
	if _, err := cli.Retire(context.Background(), 404); err == nil {
		t.Error("retiring unknown model succeeded")
	}
}

func TestProviderDownSurfacesError(t *testing.T) {
	// One healthy in-proc provider, one dialing a closed TCP port.
	inproc := rpc.NewInprocNet()
	p := provider.New(0, kvstore.NewMemKV(4))
	srv := rpc.NewServer()
	p.Register(srv)
	inproc.Listen("p0", srv)
	c0, _ := inproc.Dial("p0")

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := lis.Addr().String()
	lis.Close()
	dead := rpc.NewPool(deadAddr, 1, rpc.DialTCP)
	defer dead.Close()

	cli := New([]rpc.Conn{c0, dead})
	ctx := context.Background()

	// Stats must fail loudly, not silently undercount.
	if _, err := cli.Stats(ctx); err == nil {
		t.Error("Stats with dead provider succeeded")
	}
	// An LCP query against the healthy provider's catalog still works
	// (collective queries tolerate degraded members by design).
	f := flatten(t, 4)
	cli.Store(ctx, metaFor(f, 2, 1, 0.5), segsFor(f, model.Materialize(f, 1))) // home = 2%2 = 0 (healthy)
	res, found, err := cli.QueryLCP(ctx, f.Graph, nil)
	if err != nil || !found || res.Meta.Model != 2 {
		t.Errorf("degraded query: res=%+v found=%v err=%v", res, found, err)
	}
}

// TestQueryLCPDecodesOnlyWinner: the reduce decodes one catalog entry per
// query, the winner's, however many providers reply with a match. Over
// four in-process providers that each hold a match, a query allocates as
// much as over four of which only one does, where decoding every reply
// would cost three more entries' decodes.
func TestQueryLCPDecodesOnlyWinner(t *testing.T) {
	f := flatten(t, 4)
	other := flatten(t, 9) // shares no prefix with f once its root differs
	other.Graph.Vertices[0].ConfigSig ^= 1
	deploy := func(matches int) *Client {
		provs, cli := newHookCluster(t, 4, nil)
		for i, p := range provs {
			g := other.Graph
			if i < matches {
				g = f.Graph
			}
			id := ownermap.ModelID(i + 1)
			meta := &proto.ModelMeta{Model: id, Seq: 1, Quality: float64(i) / 10, Graph: g, OwnerMap: ownermap.New(id, 1, g.NumVertices())}
			req := &proto.StoreModelReq{Model: id, Seq: 1, Quality: meta.Quality, Graph: g, OwnerMap: meta.OwnerMap}
			if err := p.StoreModel(req, nil); err != nil {
				t.Fatal(err)
			}
		}
		return cli
	}
	ctx := context.Background()
	var allocs [2]float64
	for i, matches := range []int{1, 4} {
		cli := deploy(matches)
		res, found, err := cli.QueryLCP(ctx, f.Graph, nil)
		// The highest quality wins the tie on prefix length.
		if err != nil || !found || res.Meta.Model != ownermap.ModelID(matches) || len(res.Prefix) != f.Graph.NumVertices() {
			t.Fatalf("%d matching providers: found %v, %+v, %v", matches, found, res, err)
		}
		allocs[i] = testing.AllocsPerRun(50, func() { cli.QueryLCP(ctx, f.Graph, nil) })
	}
	winner := (&proto.LCPResult{Meta: metaFor(f, 1, 1, 0.5), Prefix: []graph.VertexID{0}}).Encode()
	entry := testing.AllocsPerRun(50, func() { proto.DecodeLCPResult(winner) })
	if raceEnabled {
		t.Skip("the race detector drops pooled scanners at random: allocations not checked")
	}
	if allocs[1] > allocs[0]+entry/2 {
		t.Fatalf("a query allocates %v times when one provider matches and %v when four do; decoding an entry takes %v",
			allocs[0], allocs[1], entry)
	}
}
