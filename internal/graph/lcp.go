package graph

// This file implements Algorithm 1 of the paper: finding the longest common
// directed-graph prefix (LCP) between a query graph G and a candidate
// ancestor graph A.
//
// The generalized prefix is the set of vertices V such that v ∈ V iff
// (1) the leaf-layer architecture of v is identical in G and A, and
// (2) all vertices whose outputs feed v are also in V.
// The algorithm expands a frontier from the root(s), counting for each
// vertex how many of its in-edges arrive from already-matched vertices in
// BOTH graphs; a vertex joins the prefix when the counter reaches
// max(in-degree in G, in-degree in A).

// LCP computes the longest common prefix between g (the query) and a (a
// candidate ancestor) and returns the matched vertex IDs of g in ascending
// order. The worst-case cost is O(min(|V_g|, |V_a|)) as a DAG has O(|V|)
// edges for the bounded-degree architectures considered here.
func LCP(g, a *Compact) []VertexID {
	s := NewLCPScanner(g)
	return s.Against(a)
}

// LCPSize returns only the size of the longest common prefix.
func LCPSize(g, a *Compact) int { return len(LCP(g, a)) }

// LCPScanner runs many LCP computations of one query graph against a
// catalog of ancestors, reusing scratch buffers between calls. Providers
// keep scanners across queries and point one at each query with Reset.
// A scanner is not safe for concurrent use.
type LCPScanner struct {
	g        *Compact
	visits   []uint32
	inPrefix []bool
	frontier []VertexID // the matched vertices, in the order the walk found them

	// ByBound's scratch: the query's prefix signatures (computed by the
	// first ByBound after Reset, in Kahn order through queue) and, by
	// index entry, the count of the last call: above zero for a listed
	// entry, -1 for a skipped one, 0 for a plain one. touched lists the
	// entries the last call moved off zero, which the next call clears.
	sigs    []uint64
	sigsOK  bool
	queue   []VertexID
	counts  []int32
	touched []int32
	at      []int32 // entries per count, then each count's first slot
	ranked  []Ranked
}

// NewLCPScanner prepares a scanner for query graph g.
func NewLCPScanner(g *Compact) *LCPScanner {
	s := &LCPScanner{}
	s.Reset(g)
	return s
}

// Reset points the scanner at query graph g, keeping its buffers.
func (s *LCPScanner) Reset(g *Compact) {
	n := g.NumVertices()
	s.g = g
	s.sigsOK = false
	if cap(s.visits) < n {
		s.visits = make([]uint32, n)
		s.inPrefix = make([]bool, n)
		s.frontier = make([]VertexID, 0, n)
	}
	s.visits = s.visits[:n]
	s.inPrefix = s.inPrefix[:n]
}

// Against computes the LCP of the scanner's query graph with ancestor a
// and returns the matched vertex IDs in ascending order. The returned slice
// is valid until the next call; callers that retain it must copy.
func (s *LCPScanner) Against(a *Compact) []VertexID {
	s.SizeAgainst(a)
	return s.Prefix()
}

// Prefix returns the prefix the last SizeAgainst or Against found, in
// ascending order, as Against would return it: a caller that walked the
// winner last needs no second walk. Valid until the next SizeAgainst or
// Against.
func (s *LCPScanner) Prefix() []VertexID {
	sortIDs(s.frontier)
	return s.frontier
}

// SizeAgainst computes only the LCP size, avoiding Against's final sort.
func (s *LCPScanner) SizeAgainst(a *Compact) int {
	g := s.g
	n := g.NumVertices()
	an := a.NumVertices()
	for i := 0; i < n; i++ {
		s.visits[i] = 0
		s.inPrefix[i] = false
	}
	s.frontier = s.frontier[:0]

	// Seed the frontier with matching roots. A root of G matches iff the
	// same ID is a root of A with identical leaf-layer configuration.
	for _, r := range g.Roots {
		if int(r) < an && len(a.In[r]) == 0 &&
			g.Vertices[r].ConfigSig == a.Vertices[r].ConfigSig {
			s.frontier = append(s.frontier, r)
			s.inPrefix[r] = true
		}
	}

	for head := 0; head < len(s.frontier); head++ {
		u := s.frontier[head]
		for _, v := range g.Out[u] {
			if int(v) >= an {
				continue // v does not exist in the ancestor
			}
			if g.Vertices[v].ConfigSig != a.Vertices[v].ConfigSig {
				continue // leaf-layer architectures differ
			}
			if !a.HasEdge(u, v) {
				continue // edge exists only in the query graph
			}
			s.visits[v]++
			need := uint32(len(g.In[v]))
			if an := uint32(len(a.In[v])); an > need {
				need = an
			}
			if s.visits[v] == need && !s.inPrefix[v] {
				s.inPrefix[v] = true
				s.frontier = append(s.frontier, v)
			}
		}
	}
	return len(s.frontier)
}

// A vertex's prefix signature hashes its ConfigSig, its in-degree, and
// each predecessor's ID and prefix signature in ascending ID order: a
// 64-bit digest of the vertex's whole ancestry. SizeAgainst admits v only
// when its visit count reaches the larger of its two in-degrees, which
// forces the same ConfigSig and the same predecessor IDs in both graphs,
// every predecessor already admitted. By induction from the roots every
// vertex of an LCP has equal prefix signatures in both graphs, and, unless
// two different ancestries collide in 64 bits, every vertex with equal
// signatures is in the LCP. A vertex that no topological order reaches (on
// or after a cycle) has no signature, noSig; SizeAgainst never admits one.
//
// The mixer is applied once per input, so the digest depends on the order
// of its inputs: a vertex and its predecessor with swapped ConfigSigs
// digest differently.
const noSig = 0

// sigMask narrows every prefix signature. It is all ones; tests narrow it
// to a few bits to make collisions common.
var sigMask = ^uint64(0)

// sigMix folds x into h through the splitmix64 finalizer, a bijection.
func sigMix(h, x uint64) uint64 {
	h ^= x
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// PrefixSigs returns the prefix signature of every vertex of g, noSig for
// the vertices no topological order reaches. Signatures live in memory
// only: they are recomputed from the graph wherever it is loaded.
func PrefixSigs(g *Compact) []uint64 {
	n := len(g.Vertices)
	sigs := make([]uint64, n)
	prefixSigs(g, sigs, make([]uint32, n), make([]VertexID, 0, n))
	return sigs
}

// prefixSigs fills sigs (one per vertex of g) in Kahn order, with deg (one
// per vertex) and queue as scratch, and returns queue.
func prefixSigs(g *Compact, sigs []uint64, deg []uint32, queue []VertexID) []VertexID {
	queue = queue[:0]
	for v := range g.Vertices {
		sigs[v] = noSig
		deg[v] = uint32(len(g.In[v]))
		if deg[v] == 0 {
			queue = append(queue, VertexID(v))
		}
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		h := sigMix(sigMix(0x9e3779b97f4a7c15, g.Vertices[v].ConfigSig), uint64(len(g.In[v])))
		for _, u := range g.In[v] {
			h = sigMix(sigMix(h, uint64(u)), sigs[u])
		}
		if h &= sigMask; h == noSig {
			h = 1
		}
		sigs[v] = h
		for _, w := range g.Out[v] {
			if deg[w]--; deg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	return queue
}

// SigIndex is an inverted index over a catalog of graphs, its entries
// numbered from 0: for each (vertex ID, prefix signature) pair, the
// ascending list of entries whose graph has that prefix signature at that
// vertex ID. It is immutable once built and may be read by any number of
// scanners at once.
type SigIndex struct {
	entries int
	keys    map[sigKey]int32 // each pair's list number
	starts  []int32          // list k is posts[starts[k]:starts[k+1]]
	posts   []int32
}

type sigKey struct{ v, sig uint64 }

// NewSigIndex indexes n entries, sigs(i) being the prefix signatures of
// entry i's graph (PrefixSigs).
func NewSigIndex(n int, sigs func(i int) []uint64) *SigIndex {
	x := &SigIndex{entries: n, keys: make(map[sigKey]int32)}
	var list []int32 // the list number of each (entry, signed vertex), in order
	var lens []int32
	for i := 0; i < n; i++ {
		for v, sig := range sigs(i) {
			if sig == noSig {
				continue
			}
			k := sigKey{uint64(v), sig}
			id, ok := x.keys[k]
			if !ok {
				id = int32(len(lens))
				x.keys[k] = id
				lens = append(lens, 0)
			}
			lens[id]++
			list = append(list, id)
		}
	}
	x.starts = make([]int32, len(lens)+1)
	for k, l := range lens {
		x.starts[k+1] = x.starts[k] + l
		lens[k] = x.starts[k] // now each list's next free slot
	}
	x.posts = make([]int32, len(list))
	t := 0
	for i := 0; i < n; i++ {
		for _, sig := range sigs(i) {
			if sig == noSig {
				continue
			}
			id := list[t]
			x.posts[lens[id]] = int32(i)
			lens[id]++
			t++
		}
	}
	return x
}

// Ranked is one index entry and its bound.
type Ranked struct {
	Entry, Bound int32
}

// ByBound bounds every entry of x against the query. An entry's bound is
// the number of the query's vertices whose (vertex ID, prefix signature)
// pair the entry's graph shares: exactly its SizeAgainst, unless two
// ancestries collide in 64 bits, which only raises a bound (see noSig).
// skip lists entries (in any order, repeats allowed) left out.
//
// A list that holds every entry adds to base instead of to each entry's
// count. ByBound returns the entries whose bound is above base, highest
// bound first, and base, which is the bound of every entry neither listed
// nor skipped (Plain reports those). A caller confirming in this order may
// stop at the first entry whose bound is below the best exact size it has
// found. The result, and Plain, are valid until the next call.
func (s *LCPScanner) ByBound(x *SigIndex, skip []int32) (ranked []Ranked, base int32) {
	g := s.g
	n := len(g.Vertices)
	if !s.sigsOK {
		if cap(s.sigs) < n {
			s.sigs = make([]uint64, n)
			s.queue = make([]VertexID, 0, n)
		}
		s.sigs = s.sigs[:n]
		s.queue = prefixSigs(g, s.sigs, s.visits, s.queue)
		s.sigsOK = true
	}
	counts := s.counts
	for _, e := range s.touched {
		counts[e] = 0
	}
	if len(counts) < x.entries {
		counts = make([]int32, x.entries)
		s.counts = counts
	}
	touched := s.touched[:0]
	for v, sig := range s.sigs {
		if sig == noSig {
			continue
		}
		k, ok := x.keys[sigKey{uint64(v), sig}]
		if !ok {
			continue
		}
		list := x.posts[x.starts[k]:x.starts[k+1]]
		if len(list) == x.entries {
			base++
			continue
		}
		for _, e := range list {
			if counts[e] == 0 {
				touched = append(touched, e)
			}
			counts[e]++
		}
	}
	for _, e := range skip {
		if counts[e] == 0 {
			touched = append(touched, e)
		}
		counts[e] = -1
	}
	s.touched = touched
	// Counts never exceed the query's vertex count, so the order is a
	// counting sort.
	if cap(s.at) < n+1 {
		s.at = make([]int32, n+1)
	}
	at := s.at[:n+1]
	clear(at)
	for _, e := range touched {
		if c := counts[e]; c > 0 {
			at[c]++
		}
	}
	total := int32(0)
	for c := n; c > 0; c-- {
		total, at[c] = total+at[c], total
	}
	if cap(s.ranked) < int(total) {
		s.ranked = make([]Ranked, total)
	}
	out := s.ranked[:total]
	for _, e := range touched {
		if c := counts[e]; c > 0 {
			out[at[c]] = Ranked{Entry: e, Bound: base + c}
			at[c]++
		}
	}
	return out, base
}

// Plain reports whether the last ByBound neither listed nor skipped entry
// e, whose bound is then that call's base.
func (s *LCPScanner) Plain(e int32) bool { return s.counts[e] == 0 }

// PrefixParamBytes sums the parameter bytes of the given prefix vertices of
// g; used to size the tensors transferred for transfer learning.
func PrefixParamBytes(g *Compact, prefix []VertexID) int64 {
	var n int64
	for _, v := range prefix {
		n += g.Vertices[v].ParamBytes
	}
	return n
}
