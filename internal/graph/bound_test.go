package graph

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// refBound is the per-entry bound the index gives an ancestor a against
// query g: the vertex IDs below both graphs' vertex counts whose ConfigSig
// is equal in both.
func refBound(g, a *Compact) int32 {
	n := int32(0)
	for v := 0; v < len(g.Vertices) && v < len(a.Vertices); v++ {
		if g.Vertices[v].ConfigSig == a.Vertices[v].ConfigSig {
			n++
		}
	}
	return n
}

// CheckByBound indexes catalog and ranks it with s against every query,
// with no skip list, with every third entry skipped (listed backwards, one
// of them twice) and with every entry skipped. It reports the first way
// ByBound departs from refBound: a listed entry that was skipped, whose
// bound is zero or differs from refBound, or that is listed twice; an
// entry with a non-zero reference bound left out; a bound above the one
// before it; or a reference bound below the entry's exact LCP size.
func CheckByBound(s *LCPScanner, catalog, queries []*Compact) error {
	x := NewSigIndex(len(catalog), func(i int) *Compact { return catalog[i] })
	var thirds, all []int32
	for i := len(catalog) - 1; i >= 0; i-- {
		if i%3 == 0 {
			thirds = append(thirds, int32(i))
		}
		all = append(all, int32(i))
	}
	if len(thirds) > 0 {
		thirds = append(thirds, thirds[0])
	}
	for qi, q := range queries {
		s.Reset(q)
		for _, skip := range [][]int32{nil, thirds, all} {
			skipped := make(map[int32]bool, len(skip))
			for _, e := range skip {
				skipped[e] = true
			}
			ranked := s.ByBound(x, skip)
			listed := make(map[int32]bool, len(ranked))
			for k, r := range ranked {
				switch {
				case skipped[r.Entry]:
					return fmt.Errorf("query %d, %d skipped: skipped entry %d listed", qi, len(skip), r.Entry)
				case r.Bound <= 0 || r.Bound != refBound(q, catalog[r.Entry]):
					return fmt.Errorf("query %d, %d skipped: entry %d has bound %d, the reference %d",
						qi, len(skip), r.Entry, r.Bound, refBound(q, catalog[r.Entry]))
				case listed[r.Entry]:
					return fmt.Errorf("query %d, %d skipped: entry %d listed twice", qi, len(skip), r.Entry)
				case k > 0 && r.Bound > ranked[k-1].Bound:
					return fmt.Errorf("query %d, %d skipped: bound %d after %d", qi, len(skip), r.Bound, ranked[k-1].Bound)
				}
				listed[r.Entry] = true
			}
			for i, a := range catalog {
				if !skipped[int32(i)] && refBound(q, a) > 0 && !listed[int32(i)] {
					return fmt.Errorf("query %d, %d skipped: entry %d with bound %d left out", qi, len(skip), i, refBound(q, a))
				}
			}
		}
		for i, a := range catalog {
			if size := s.SizeAgainst(a); int(refBound(q, a)) < size {
				return fmt.Errorf("query %d: entry %d has bound %d below its LCP size %d", qi, i, refBound(q, a), size)
			}
		}
	}
	return nil
}

// Property: on random DAGs, the index ranks every entry by exactly the
// reference bound, which is at least the exact LCP size. One scanner
// serves every catalog, as a provider's scanners serve one snapshot after
// another.
func TestQuickBoundCoversLCP(t *testing.T) {
	s := &LCPScanner{}
	f := func(seed int64, queries uint8, entries uint8) bool {
		r := rand.New(rand.NewSource(seed))
		catalog := make([]*Compact, int(entries%40))
		for i := range catalog {
			catalog[i] = randomDAG(r, 1+r.Intn(30), 3)
		}
		qs := make([]*Compact, 1+int(queries%4))
		for i := range qs {
			qs[i] = randomDAG(r, 1+r.Intn(30), 3)
		}
		if err := CheckByBound(s, catalog, qs); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// The same on 1,000 near-identical 20-vertex chains over five ConfigSigs
// (the provider benchmark's chains1k-full catalog), whose posting lists
// each hold about a fifth of the catalog.
func TestIndexBoundsOnChains(t *testing.T) {
	chains := func(n, length, salt int) []*Compact {
		out := make([]*Compact, n)
		for i := range out {
			sigs := make([]uint64, length-i%7)
			for j := range sigs {
				sigs[j] = uint64(1 + (i*31+j*17+salt)%5)
			}
			out[i] = chain(sigs...)
		}
		return out
	}
	queries := append(chains(6, 20, 3), chain(1, 2, 3, 4, 5, 1, 2, 3, 4, 5, 1, 2, 3, 4, 5, 1, 2, 3, 4, 5))
	if err := CheckByBound(&LCPScanner{}, chains(1000, 20, 0), queries); err != nil {
		t.Error(err)
	}
}
