package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: bound is at least the exact LCP size on random pairs, and
// ByBound lists every entry with a non-zero bound, skipped ones excepted,
// highest bound first and in arena order within a bound.
func TestQuickBoundCoversLCP(t *testing.T) {
	f := func(seed int64, gn uint8, entries uint8) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomDAG(r, 1+int(gn%30), 3)
		var arena SigArena
		catalog := make([]*Compact, 1+int(entries%40))
		for i := range catalog {
			catalog[i] = randomDAG(r, 1+r.Intn(30), 3)
			arena.Add(catalog[i])
		}
		s := NewLCPScanner(g)
		bound := func(i int) int32 {
			lo := 0
			if i > 0 {
				lo = arena.ends[i-1]
			}
			return s.bound(arena.sigs[lo:arena.ends[i]])
		}
		for i, a := range catalog {
			if int(bound(i)) < s.SizeAgainst(a) {
				return false
			}
		}
		skip := func(i int) bool { return i%5 == 0 }
		ranked := s.ByBound(&arena, skip)
		listed := make(map[int]bool, len(ranked))
		for k, e := range ranked {
			i := int(e.Entry)
			if skip(i) || e.Bound != bound(i) || e.Bound == 0 {
				return false
			}
			if k > 0 && (e.Bound > ranked[k-1].Bound || e.Bound == ranked[k-1].Bound && e.Entry < ranked[k-1].Entry) {
				return false
			}
			listed[i] = true
		}
		for i := range catalog {
			if !skip(i) && bound(i) > 0 && !listed[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
