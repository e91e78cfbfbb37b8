package client

import (
	"context"
	"testing"

	"repro/internal/archgen"
	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/ownermap"
	"repro/internal/proto"
	"repro/internal/provider"
	"repro/internal/resilient"
	"repro/internal/rpc"
)

// BenchmarkLCPRoundTrip times one collective LCP query end to end: four
// providers on TCP loopback, each holding the home share of an
// archgen.Catalog(1, 2000) catalog, behind connection pools and the
// resilience middleware as a deployment wires them; queries cycle over
// 64 architectures the catalog has not seen. Client and providers share
// the process, so allocs/op counts both ends: the request and reply
// encodings, the query's decode on every provider, and the one winner's
// catalog entry the client decodes.
func BenchmarkLCPRoundTrip(b *testing.B) {
	const providers, models = 4, 2000
	cat, err := archgen.Catalog(1, models, archgen.SpaceOptions{})
	if err != nil {
		b.Fatal(err)
	}
	queries, err := archgen.Catalog(2, 64, archgen.SpaceOptions{})
	if err != nil {
		b.Fatal(err)
	}
	reg := metrics.NewRegistry()
	provs := make([]*provider.Provider, providers)
	conns := make([]rpc.Conn, providers)
	for i := range provs {
		provs[i] = provider.New(i, kvstore.NewMemKV(4))
		provs[i].SetMetricsRegistry(reg)
		srv := rpc.NewServer()
		provs[i].Register(srv)
		lis, addr, err := rpc.ListenAndServeTCP("127.0.0.1:0", srv)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { lis.Close() })
		pool := rpc.NewPool(addr, 4, rpc.DialTCP)
		b.Cleanup(func() { pool.Close() })
		conns[i] = pool
	}
	cli := New(resilient.WrapAll(conns, resilient.Options{Retryable: proto.Retryable, Registry: reg}), WithRegistry(reg))
	for i, f := range cat {
		id := ownermap.ModelID(i + 1)
		req := &proto.StoreModelReq{Model: id, Seq: uint64(i + 1), Quality: float64(i%3) / 2,
			Graph: f.Graph, OwnerMap: ownermap.New(id, uint64(i+1), f.Graph.NumVertices())}
		if err := provs[cli.HomeProvider(id)].StoreModel(req, nil); err != nil {
			b.Fatal(err)
		}
	}
	ctx := context.Background()
	for _, q := range queries { // build every share snapshot and pooled scanner
		if _, _, err := cli.QueryLCP(ctx, q.Graph, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cli.QueryLCP(ctx, queries[i%len(queries)].Graph, nil); err != nil {
			b.Fatal(err)
		}
	}
}
