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

	// ByBound's scratch: counts is zero between calls.
	counts  []int32 // bound so far, by index entry
	touched []int32 // the entries counts moved off zero, in that order
	at      []int32 // entries per bound, then each bound's first slot
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

// SigIndex is an inverted index over a catalog of graphs, its entries
// numbered from 0: for each (vertex ID, ConfigSig) pair, the ascending list
// of entries whose graph has that ConfigSig at that vertex ID. It is
// immutable once built and may be read by any number of scanners at once.
type SigIndex struct {
	entries int
	keys    map[sigKey]int32 // each pair's list number
	starts  []int32          // list k is posts[starts[k]:starts[k+1]]
	posts   []int32
}

type sigKey struct{ v, sig uint64 }

// NewSigIndex indexes n entries, entry i being graph(i).
func NewSigIndex(n int, graph func(i int) *Compact) *SigIndex {
	x := &SigIndex{entries: n, keys: make(map[sigKey]int32)}
	var list []int32 // the list number of each (entry, vertex), in order
	var lens []int32
	for i := 0; i < n; i++ {
		for v, vx := range graph(i).Vertices {
			k := sigKey{uint64(v), vx.ConfigSig}
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
		for range graph(i).Vertices {
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

// ByBound bounds every entry of x and returns those whose bound is above
// zero, highest bound first; skip lists entries (in any order, repeats
// allowed) whose bound is taken as zero. An entry's bound is the number of
// vertex IDs below both its and the query's vertex counts whose ConfigSig
// is equal in both graphs: the number of the query's (vertex ID, ConfigSig)
// pairs whose list holds it. It is an upper bound on SizeAgainst because
// SizeAgainst admits a vertex to the prefix at most once, and only after
// checking exactly these two things (v exists in the ancestor, and its
// ConfigSig matches the query's). A caller scanning in this order may stop
// at the first entry whose bound is below the best exact size it has
// found: no later entry can reach that size. Which entries it walks before
// stopping does not depend on the order within one bound, as no entry of
// a bound can raise the best size above that bound. The result is valid
// until the next call.
func (s *LCPScanner) ByBound(x *SigIndex, skip []int32) []Ranked {
	if len(s.counts) < x.entries {
		s.counts = make([]int32, x.entries)
	}
	counts, touched := s.counts, s.touched[:0]
	for v := range s.g.Vertices {
		k, ok := x.keys[sigKey{uint64(v), s.g.Vertices[v].ConfigSig}]
		if !ok {
			continue
		}
		for _, e := range x.posts[x.starts[k]:x.starts[k+1]] {
			if counts[e] == 0 {
				touched = append(touched, e)
			}
			counts[e]++
		}
	}
	for _, e := range skip {
		counts[e] = 0
	}
	// Bounds never exceed the query's vertex count, so the order is a
	// counting sort.
	n := len(s.g.Vertices)
	if cap(s.at) < n+1 {
		s.at = make([]int32, n+1)
	}
	at := s.at[:n+1]
	clear(at)
	for _, e := range touched {
		at[counts[e]]++
	}
	total := int32(0)
	for b := n; b > 0; b-- {
		total, at[b] = total+at[b], total
	}
	if cap(s.ranked) < int(total) {
		s.ranked = make([]Ranked, total)
	}
	out := s.ranked[:total]
	for _, e := range touched {
		if b := counts[e]; b > 0 {
			out[at[b]] = Ranked{Entry: e, Bound: b}
			at[b]++
			counts[e] = 0
		}
	}
	s.touched = touched
	return out
}

// PrefixParamBytes sums the parameter bytes of the given prefix vertices of
// g; used to size the tensors transferred for transfer learning.
func PrefixParamBytes(g *Compact, prefix []VertexID) int64 {
	var n int64
	for _, v := range prefix {
		n += g.Vertices[v].ParamBytes
	}
	return n
}
