package graph_test

import (
	"testing"
	"testing/quick"

	"repro/internal/archgen"
	"repro/internal/graph"
)

// Property: on archgen catalogs, the architectures a provider stores, the
// bound ByBound gives every entry is at least its exact LCP size with every
// query, and an entry it leaves out (bound zero) has no common prefix.
func TestQuickBoundCoversLCPOnCatalogs(t *testing.T) {
	f := func(seed int64) bool {
		catalog, err := archgen.Catalog(seed, 60, archgen.SpaceOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var arena graph.SigArena
		for _, a := range catalog {
			arena.Add(a.Graph)
		}
		for _, q := range catalog[:10] {
			s := graph.NewLCPScanner(q.Graph)
			bounds := make([]int, len(catalog))
			for _, r := range s.ByBound(&arena, nil) {
				bounds[r.Entry] = int(r.Bound)
			}
			for i, a := range catalog {
				if bounds[i] < s.SizeAgainst(a.Graph) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
