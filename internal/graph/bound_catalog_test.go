package graph_test

import (
	"testing"
	"testing/quick"

	"repro/internal/archgen"
	"repro/internal/graph"
)

// Property: on archgen catalogs, the architectures a provider stores, the
// index bounds every entry by exactly its LCP size with every query
// (graph.CheckByBound).
func TestQuickBoundCoversLCPOnCatalogs(t *testing.T) {
	s := &graph.LCPScanner{}
	f := func(seed int64) bool {
		catalog, err := archgen.Catalog(seed, 60, archgen.SpaceOptions{})
		if err != nil {
			t.Fatal(err)
		}
		gs := make([]*graph.Compact, len(catalog))
		for i, a := range catalog {
			gs[i] = a.Graph
		}
		if err := graph.CheckByBound(s, gs, gs[:10]); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
