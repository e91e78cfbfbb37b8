package graph

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// CheckByBound indexes catalog and ranks it with s against every query,
// with no skip list, with every third entry skipped (listed backwards, one
// of them twice) and with every entry skipped. It reports the first way
// ByBound departs from the exact LCP size (SizeAgainst): a listed entry
// that was skipped, whose bound is not above base or differs from its
// size, or that is listed twice; a bound above the one before it; a
// skipped entry reported plain; or an entry neither listed nor skipped
// that is not plain or whose size is not base.
func CheckByBound(s *LCPScanner, catalog, queries []*Compact) error {
	return checkBounds(s, catalog, queries, true)
}

// checkBounds is CheckByBound, which holds while no signatures collide.
// With exact false it asks only that the bounds cover the sizes: every
// listed bound at least its entry's size, and base at least every plain
// entry's.
func checkBounds(s *LCPScanner, catalog, queries []*Compact, exact bool) error {
	sigs := make([][]uint64, len(catalog))
	for i, a := range catalog {
		sigs[i] = PrefixSigs(a)
	}
	x := NewSigIndex(len(catalog), func(i int) []uint64 { return sigs[i] })
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
	// bad reports whether a bound departs from size: unequal, or below
	// it when collisions may raise bounds.
	bad := func(bound int32, size int) bool {
		return int(bound) < size || exact && int(bound) != size
	}
	for qi, q := range queries {
		s.Reset(q)
		sizes := make([]int, len(catalog))
		for i, a := range catalog {
			sizes[i] = s.SizeAgainst(a)
		}
		for _, skip := range [][]int32{nil, thirds, all} {
			skipped := make(map[int32]bool, len(skip))
			for _, e := range skip {
				skipped[e] = true
			}
			ranked, base := s.ByBound(x, skip)
			listed := make(map[int32]bool, len(ranked))
			for k, r := range ranked {
				switch {
				case skipped[r.Entry]:
					return fmt.Errorf("query %d, %d skipped: skipped entry %d listed", qi, len(skip), r.Entry)
				case r.Bound <= base || bad(r.Bound, sizes[r.Entry]):
					return fmt.Errorf("query %d, %d skipped: entry %d has bound %d (base %d), its LCP size %d",
						qi, len(skip), r.Entry, r.Bound, base, sizes[r.Entry])
				case listed[r.Entry]:
					return fmt.Errorf("query %d, %d skipped: entry %d listed twice", qi, len(skip), r.Entry)
				case k > 0 && r.Bound > ranked[k-1].Bound:
					return fmt.Errorf("query %d, %d skipped: bound %d after %d", qi, len(skip), r.Bound, ranked[k-1].Bound)
				}
				listed[r.Entry] = true
			}
			for i := range catalog {
				e := int32(i)
				switch {
				case skipped[e] && s.Plain(e):
					return fmt.Errorf("query %d, %d skipped: skipped entry %d is plain", qi, len(skip), i)
				case skipped[e] || listed[e]:
				case !s.Plain(e):
					return fmt.Errorf("query %d, %d skipped: entry %d neither listed, skipped nor plain", qi, len(skip), i)
				case bad(base, sizes[i]):
					return fmt.Errorf("query %d, %d skipped: plain entry %d has LCP size %d, base %d", qi, len(skip), i, sizes[i], base)
				}
			}
		}
	}
	return nil
}

// randomCatalog draws a catalog and queries of random DAGs, with the
// ConfigSigs drawn from three values so that ancestries repeat.
func randomCatalog(r *rand.Rand, entries, queries int) (catalog, qs []*Compact) {
	catalog = make([]*Compact, entries)
	for i := range catalog {
		catalog[i] = randomDAG(r, 1+r.Intn(30), 3)
	}
	qs = make([]*Compact, queries)
	for i := range qs {
		qs[i] = randomDAG(r, 1+r.Intn(30), 3)
	}
	return catalog, qs
}

// Property: on random DAGs, the index bounds every entry by exactly its
// LCP size. One scanner serves every catalog, as a provider's scanners
// serve one snapshot after another.
func TestQuickBoundCoversLCP(t *testing.T) {
	s := &LCPScanner{}
	f := func(seed int64, queries uint8, entries uint8) bool {
		catalog, qs := randomCatalog(rand.New(rand.NewSource(seed)), int(entries%40), 1+int(queries%4))
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

// With signatures narrowed to two bits, different ancestries collide all
// the time: the bounds still cover every LCP size.
func TestQuickBoundCoversLCPNarrowed(t *testing.T) {
	defer NarrowSigs(3)()
	s := &LCPScanner{}
	f := func(seed int64, queries uint8, entries uint8) bool {
		catalog, qs := randomCatalog(rand.New(rand.NewSource(seed)), int(entries%40), 1+int(queries%4))
		if err := checkBounds(s, catalog, qs, false); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// reencode returns g's encoding with its edge records shuffled and about
// a third of them repeated: an encoding Decode must normalize.
func reencode(r *rand.Rand, g *Compact) []byte {
	enc := g.Encode()
	edges := 0
	for _, out := range g.Out {
		edges += len(out)
	}
	off := len(enc) - 8*edges
	var recs [][]byte
	for i := off; i < len(enc); i += 8 {
		recs = append(recs, enc[i:i+8])
		if r.Intn(3) == 0 {
			recs = append(recs, enc[i:i+8])
		}
	}
	r.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	out := binary.LittleEndian.AppendUint32(append([]byte(nil), enc[:off-4]...), uint32(len(recs)))
	for _, rec := range recs {
		out = append(out, rec...)
	}
	return out
}

// Graphs decoded from unsorted and duplicate-edge encodings, and graphs
// with a self-loop or a cycle, are bounded exactly too. A decoded graph
// has its original's signatures, and the vertices on or after a cycle
// have none.
func TestBoundsOnIrregularGraphs(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	catalog, qs := randomCatalog(r, 40, 6)
	for i, g := range catalog[:20] {
		d, _, err := Decode(reencode(r, g))
		if err != nil {
			t.Fatal(err)
		}
		if !d.Equal(g) || fmt.Sprint(PrefixSigs(d)) != fmt.Sprint(PrefixSigs(g)) {
			t.Fatalf("entry %d decoded from a shuffled encoding differs from its original", i)
		}
		catalog = append(catalog, d)
	}
	// 0 → 1 → 2 → 3 → 4, plus a self-loop on 2 or an edge 3 → 1.
	for _, extra := range [][2]VertexID{{2, 2}, {3, 1}} {
		b := NewBuilder(5)
		for v := 0; v < 5; v++ {
			b.AddVertex(Vertex{ConfigSig: uint64(1 + v%3)})
			if v > 0 {
				b.AddEdge(VertexID(v-1), VertexID(v))
			}
		}
		b.AddEdge(extra[0], extra[1])
		g := b.Build()
		sigs := PrefixSigs(g)
		for v, sig := range sigs {
			if signed := v < int(extra[1]); signed != (sig != noSig) {
				t.Fatalf("graph with edge %v: vertex %d has signature %#x", extra, v, sig)
			}
		}
		catalog = append(catalog, g)
		qs = append(qs, g)
	}
	qs = append(qs, catalog[40], catalog[41])
	if err := CheckByBound(&LCPScanner{}, catalog, qs); err != nil {
		t.Error(err)
	}
}

// Swapping the ConfigSigs of a vertex and its predecessor changes the
// vertex's signature: the mixer is not commutative across its inputs.
func TestPrefixSigsOrderMatters(t *testing.T) {
	a, b := PrefixSigs(chain(1, 2)), PrefixSigs(chain(2, 1))
	if a[1] == b[1] {
		t.Errorf("chain(1, 2) and chain(2, 1) give vertex 1 the signature %#x", a[1])
	}
	// The same two predecessors in the other order of IDs.
	fork := func(first, second uint64) *Compact {
		b := NewBuilder(3)
		b.AddVertex(Vertex{ConfigSig: first})
		b.AddVertex(Vertex{ConfigSig: second})
		b.AddVertex(Vertex{ConfigSig: 9})
		b.AddEdge(0, 2)
		b.AddEdge(1, 2)
		return b.Build()
	}
	if x, y := PrefixSigs(fork(1, 2)), PrefixSigs(fork(2, 1)); x[2] == y[2] {
		t.Errorf("swapped predecessors give vertex 2 the signature %#x", x[2])
	}
}

// The same on 1,000 near-identical 20-vertex chains over five ConfigSigs
// (the provider benchmark's chains1k-full catalog).
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

// FuzzPrefixBound decodes a query and up to four catalog graphs, one after
// another, from the input: every bound must cover its entry's LCP size,
// and base every plain entry's.
func FuzzPrefixBound(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		var in []byte
		for j := 0; j < 1+i; j++ {
			in = randomDAG(r, 1+r.Intn(12), 3).AppendEncode(in)
		}
		f.Add(in)
	}
	f.Add(reencode(r, randomDAG(r, 8, 2)))
	s := &LCPScanner{}
	f.Fuzz(func(t *testing.T, in []byte) {
		var gs []*Compact
		for len(gs) < 5 {
			g, n, err := Decode(in)
			if err != nil {
				break
			}
			gs, in = append(gs, g), in[n:]
		}
		if len(gs) == 0 {
			return
		}
		if err := checkBounds(s, gs[1:], gs[:1], false); err != nil {
			t.Fatal(err)
		}
	})
}
