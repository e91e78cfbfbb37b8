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
// hold one scanner per query while iterating their local metadata.
type LCPScanner struct {
	g        *Compact
	sigs     []uint64 // g's ConfigSigs by vertex ID, for bound
	visits   []uint32
	inPrefix []bool
	frontier []VertexID // the matched vertices, in the order the walk found them
}

// NewLCPScanner prepares a scanner for query graph g.
func NewLCPScanner(g *Compact) *LCPScanner {
	n := g.NumVertices()
	s := &LCPScanner{
		g:        g,
		sigs:     make([]uint64, n),
		visits:   make([]uint32, n),
		inPrefix: make([]bool, n),
		frontier: make([]VertexID, 0, n),
	}
	for v := range g.Vertices {
		s.sigs[v] = g.Vertices[v].ConfigSig
	}
	return s
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

// SigArena holds the ConfigSig sequences of a catalog's graphs in one flat
// slice, entry after entry, so that ByBound can rank every entry in one
// sequential pass without touching the graphs. Its zero value is empty and
// ready to use.
type SigArena struct {
	sigs []uint64
	ends []int // entry i is sigs[ends[i-1]:ends[i]], with ends[-1] = 0
}

// Add appends g's ConfigSigs, in vertex-ID order, as the next entry.
func (a *SigArena) Add(g *Compact) {
	for v := range g.Vertices {
		a.sigs = append(a.sigs, g.Vertices[v].ConfigSig)
	}
	a.ends = append(a.ends, len(a.sigs))
}

// bound is an upper bound on SizeAgainst of an ancestor whose ConfigSigs,
// by vertex ID, are e: the number of vertex IDs v below both graphs' vertex
// counts whose ConfigSig is equal in both. It is sound because SizeAgainst
// admits a vertex to the prefix at most once, and only after checking
// exactly these two things (v exists in the ancestor, and its ConfigSig
// matches the query's).
func (s *LCPScanner) bound(e []uint64) int32 {
	q := s.sigs
	if len(e) < len(q) {
		q = q[:len(e)]
	}
	e = e[:len(q)]
	n := int32(0)
	for v, sig := range q {
		if e[v] == sig {
			n++
		}
	}
	return n
}

// Ranked is one arena entry and its bound.
type Ranked struct {
	Entry, Bound int32
}

// ByBound bounds every entry of a that skip (nil: none) does not reject and
// returns those whose bound is above zero, highest bound first and, within
// one bound, in arena order. A caller scanning in this order may stop at
// the first entry whose bound is below the best exact size it has found:
// no later entry can reach that size. Bounds never exceed the query's
// vertex count, so the order is a counting sort.
func (s *LCPScanner) ByBound(a *SigArena, skip func(i int) bool) []Ranked {
	n := len(s.sigs)
	bounds := make([]int32, len(a.ends))
	at := make([]int32, n+1) // entries per bound, then each bound's first slot
	lo := 0
	for i, hi := range a.ends {
		e := a.sigs[lo:hi]
		lo = hi
		b := int32(0)
		if skip == nil || !skip(i) {
			b = s.bound(e)
		}
		bounds[i] = b
		at[b]++
	}
	total := int32(0)
	for b := n; b > 0; b-- {
		total, at[b] = total+at[b], total
	}
	out := make([]Ranked, total)
	for i, b := range bounds {
		if b > 0 {
			out[at[b]] = Ranked{Entry: int32(i), Bound: b}
			at[b]++
		}
	}
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
