package provider_test

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/kvstore"
	"repro/internal/nas"
	"repro/internal/ownermap"
	"repro/internal/proto"
	"repro/internal/provider"
)

// evolutionGraphs returns the graphs of the n candidates an aged evolution
// (population 100, sample 10, the paper's setting) draws over the default
// nas.Space, each reported back with its surrogate fitness. Every
// candidate past the first 100 mutates one cell of a population member,
// so the catalog's prefixes share far more than archgen's.
func evolutionGraphs(tb testing.TB, seed int64, n int) []*graph.Compact {
	tb.Helper()
	space := nas.NewSpace(0, 0, 0)
	fitness := nas.NewSurrogate(space, seed)
	evo := nas.NewEvolution(space, seed, 100, 10, n)
	gs := make([]*graph.Compact, 0, n)
	for c, ok := evo.Next(); ok; c, ok = evo.Next() {
		f, err := space.Decode(c.Seq)
		if err != nil {
			tb.Fatal(err)
		}
		gs = append(gs, f.Graph)
		c.Quality = fitness.Fitness(c.Seq)
		evo.Report(c)
	}
	return gs
}

// BenchmarkLCPQueryCatalog runs one provider-local LCP query over the home
// share of a provider holding archgen.Catalog(1, n) as in the tracked
// lcp-query deployment (four providers, R=3: a share of n/4 models), with
// archgen.Catalog(2, 512) queries. It reports the entries whose exact
// prefix was computed per query (exact/op) beside the share (scanned/op).
// The evolution2k case holds the first 2,000 candidates of one aged
// evolution (evolutionGraphs) the same way and asks with the next 512.
// The chains1k-full case is the bound order's worst case: a full scan (no
// table, as in the client's fallback round) of 1,000 near-identical
// 20-vertex chains over five ConfigSigs, where most entries' bounds reach
// the best size.
func BenchmarkLCPQueryCatalog(b *testing.B) {
	report := func(b *testing.B, p *provider.Provider, query func(i int)) {
		query(0) // builds the snapshot
		scanned0, exact0 := provider.LCPCounters(p)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			query(i)
		}
		b.StopTimer()
		scanned, exact := provider.LCPCounters(p)
		b.ReportMetric(float64(scanned-scanned0)/float64(b.N), "scanned/op")
		b.ReportMetric(float64(exact-exact0)/float64(b.N), "exact/op")
	}
	share := func(b *testing.B, p *provider.Provider, queries []*graph.Compact) {
		report(b, p, func(i int) {
			p.LCPQuery(&proto.LCPQueryReq{Graph: queries[i%len(queries)], Table: proto.TableName(0)})
		})
	}
	b.Run("chains1k-full", func(b *testing.B) {
		p := provider.New(0, kvstore.NewMemKV(4))
		for i := 0; i < 1000; i++ {
			sigs := make([]uint64, 20)
			for j := range sigs {
				sigs[j] = uint64(1 + (i*31+j*17)%5)
			}
			req, segs := provider.StoreReq(ownermap.ModelID(i+1), uint64(i+1), 0.5, provider.ChainGraph(sigs...))
			if err := p.StoreModel(req, segs); err != nil {
				b.Fatal(err)
			}
		}
		g := provider.ChainGraph(1, 2, 3, 4, 5, 1, 2, 3, 4, 5, 1, 2, 3, 4, 5, 1, 2, 3, 4, 5)
		report(b, p, func(int) { p.LCPQuery(&proto.LCPQueryReq{Graph: g}) })
	})
	b.Run("evolution2k", func(b *testing.B) {
		gs := evolutionGraphs(b, 1, 2000+512)
		share(b, provider.ShareProvider(b, gs[:2000], 1), gs[2000:])
	})

	queries := provider.CatalogGraphs(b, 2, 512)
	for _, n := range []int{2000, 20000, 60000} {
		var p *provider.Provider // built by the first run of the sub-benchmark
		b.Run(fmt.Sprintf("%dk", n/1000), func(b *testing.B) {
			if p == nil {
				p = provider.ShareProvider(b, provider.CatalogGraphs(b, 1, n), 1)
			}
			share(b, p, queries)
		})
	}
}
