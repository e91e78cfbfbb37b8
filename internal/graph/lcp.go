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
	visits   []uint32
	inPrefix []bool
	frontier []VertexID // the matched vertices, in the order the walk found them
}

// NewLCPScanner prepares a scanner for query graph g.
func NewLCPScanner(g *Compact) *LCPScanner {
	n := g.NumVertices()
	return &LCPScanner{
		g:        g,
		visits:   make([]uint32, n),
		inPrefix: make([]bool, n),
		frontier: make([]VertexID, 0, n),
	}
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

// PrefixParamBytes sums the parameter bytes of the given prefix vertices of
// g; used to size the tensors transferred for transfer learning.
func PrefixParamBytes(g *Compact, prefix []VertexID) int64 {
	var n int64
	for _, v := range prefix {
		n += g.Vertices[v].ParamBytes
	}
	return n
}
