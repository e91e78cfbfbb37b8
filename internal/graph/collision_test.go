package graph_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/archgen"
	"repro/internal/graph"
	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/ownermap"
	"repro/internal/proto"
	"repro/internal/provider"
)

// With prefix signatures narrowed to a few bits, bounds exceed LCP sizes
// all the time. The provider's confirm loop still answers every query as
// an exhaustive scan does (SizeAgainst stays the authority), under both
// tie rules and with exclusions, and pays for the collisions in walks: it
// walks more than one entry per query.
func TestLCPQueryUnderCollisions(t *testing.T) {
	for _, mask := range []uint64{3, 0xff} {
		t.Run(fmt.Sprintf("mask=%#x", mask), func(t *testing.T) {
			defer graph.NarrowSigs(mask)()
			checkUnderCollisions(t)
		})
	}
}

func checkUnderCollisions(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	random := func(n int) []*graph.Compact {
		gs := make([]*graph.Compact, n)
		for i := range gs {
			gs[i] = graph.RandomDAG(r, 1+r.Intn(20), 3)
		}
		return gs
	}
	archgenGraphs := func(seed int64, n int) []*graph.Compact {
		cat, err := archgen.Catalog(seed, n, archgen.SpaceOptions{})
		if err != nil {
			t.Fatal(err)
		}
		gs := make([]*graph.Compact, n)
		for i, f := range cat {
			gs[i] = f.Graph
		}
		return gs
	}
	for _, tc := range []struct {
		name             string
		catalog, queries []*graph.Compact
	}{
		{"random", random(300), random(40)},
		{"archgen", archgenGraphs(1, 300), archgenGraphs(2, 40)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := metrics.NewRegistry()
			p := provider.New(0, kvstore.NewMemKV(4))
			p.SetMetricsRegistry(reg)
			metas := make([]*proto.ModelMeta, len(tc.catalog))
			for i, g := range tc.catalog {
				id := ownermap.ModelID(i + 1)
				// Few qualities and scrambled sequence numbers, so that the
				// tie rules disagree.
				m := &proto.ModelMeta{Model: id, Seq: uint64(1 + r.Intn(1000)), Quality: float64(r.Intn(3)), Graph: g}
				err := p.StoreModel(&proto.StoreModelReq{Model: id, Seq: m.Seq, Quality: m.Quality, Graph: g,
					OwnerMap: ownermap.New(id, m.Seq, g.NumVertices())}, nil)
				if err != nil {
					t.Fatal(err)
				}
				metas[i] = m
			}
			// exhaustive answers with graph.LCP against every entry not
			// excluded.
			exhaustive := func(g *graph.Compact, recent bool, exclude []ownermap.ModelID) (*proto.ModelMeta, []graph.VertexID) {
				var best *proto.ModelMeta
				var bestPrefix []graph.VertexID
				for _, m := range metas {
					if slices.Contains(exclude, m.Model) {
						continue
					}
					prefix := graph.LCP(g, m.Graph)
					if len(prefix) > 0 && (best == nil || proto.LCPBeats(len(prefix), m, len(bestPrefix), best, recent)) {
						best, bestPrefix = m, prefix
					}
				}
				return best, bestPrefix
			}
			some := func() ownermap.ModelID { return ownermap.ModelID(1 + r.Intn(len(metas))) }
			queries := 0
			for qi, g := range tc.queries {
				for _, recent := range []bool{false, true} {
					excludes := [][]ownermap.ModelID{nil, {some(), some()}}
					if winner, _ := exhaustive(g, recent, nil); winner != nil {
						excludes = append(excludes, []ownermap.ModelID{winner.Model, some()})
					}
					for _, exclude := range excludes {
						want, wantPrefix := exhaustive(g, recent, exclude)
						res := p.LCPQuery(&proto.LCPQueryReq{Graph: g, PreferRecent: recent, Exclude: exclude})
						switch {
						case want == nil && res.Found():
							t.Fatalf("query %d PreferRecent=%v exclude %v: found model %d, the exhaustive scan none",
								qi, recent, exclude, res.Meta.Model)
						case want != nil && (!res.Found() || res.Meta.Model != want.Model || !slices.Equal(res.Prefix, wantPrefix)):
							t.Fatalf("query %d PreferRecent=%v exclude %v: found %+v, the exhaustive scan model %d with prefix %v",
								qi, recent, exclude, res, want.Model, wantPrefix)
						}
						queries++
					}
				}
			}
			exact := reg.Counter("provider.lcp_exact").Load()
			t.Logf("%d exact walks for %d queries", exact, queries)
			if exact <= uint64(queries) {
				t.Errorf("%d exact walks for %d queries: the narrowed signatures did not collide", exact, queries)
			}
		})
	}
}
