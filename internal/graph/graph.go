// Package graph implements EvoStore's compact leaf-layer architecture
// graphs and the longest-common-prefix (LCP) query of paper Algorithm 1.
//
// A Compact graph is the result of flattening a recursive DL model into its
// leaf layers: every vertex is one leaf layer, identified by a dense ID
// assigned in deterministic breadth-first order from the input. Because the
// flattening order is deterministic, two models that share a structural
// prefix assign identical IDs to the shared vertices, which lets Algorithm 1
// index both graphs with a single ID space exactly as the paper's pseudocode
// does.
package graph

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
)

// VertexID identifies a leaf layer inside one compact graph. IDs are dense:
// 0..len(Vertices)-1, assigned in flattening (BFS) order.
type VertexID uint32

// Vertex is one leaf layer of a flattened model.
type Vertex struct {
	// ConfigSig is a content hash of the leaf layer's architectural
	// configuration (kind + hyperparameters + parameter shapes), NOT of its
	// weights. Two vertices match for LCP purposes iff their ConfigSigs are
	// equal. Layer names deliberately do not contribute (paper §4.2:
	// identical names may describe different configs and vice versa).
	ConfigSig uint64
	// Name is the human-readable layer path ("block2/conv1"); informational.
	Name string
	// ParamBytes is the total size of this layer's parameter tensors. It is
	// carried in the graph so storage accounting and LCP-size decisions can
	// run without touching tensor data.
	ParamBytes int64
}

// Compact is the flattened leaf-layer architecture graph of one model.
type Compact struct {
	Vertices []Vertex
	// Out[v] lists the successors of v in ascending order.
	Out [][]VertexID
	// In[v] lists the predecessors of v in ascending order.
	In [][]VertexID
	// Roots lists vertices with no predecessors (model inputs), ascending.
	Roots []VertexID
}

// NumVertices returns the number of leaf layers.
func (g *Compact) NumVertices() int { return len(g.Vertices) }

// TotalParamBytes returns the summed parameter size over all vertices.
func (g *Compact) TotalParamBytes() int64 {
	var n int64
	for i := range g.Vertices {
		n += g.Vertices[i].ParamBytes
	}
	return n
}

// InDegree returns the number of predecessors of v.
func (g *Compact) InDegree(v VertexID) int { return len(g.In[v]) }

// HasEdge reports whether the edge u→v exists. Out lists are short and
// sorted, so the check scans up to the first successor not below v.
func (g *Compact) HasEdge(u, v VertexID) bool {
	for _, w := range g.Out[u] {
		if w >= v {
			return w == v
		}
	}
	return false
}

// Builder incrementally constructs a Compact graph. Vertices must be added
// in flattening order; edges may reference only existing vertices.
type Builder struct {
	g     Compact
	edges map[[2]VertexID]bool
}

// NewBuilder returns an empty Builder with capacity hints.
func NewBuilder(vertexHint int) *Builder {
	return &Builder{
		g: Compact{
			Vertices: make([]Vertex, 0, vertexHint),
			Out:      make([][]VertexID, 0, vertexHint),
			In:       make([][]VertexID, 0, vertexHint),
		},
		edges: make(map[[2]VertexID]bool, vertexHint*2),
	}
}

// AddVertex appends a vertex and returns its ID.
func (b *Builder) AddVertex(v Vertex) VertexID {
	id := VertexID(len(b.g.Vertices))
	b.g.Vertices = append(b.g.Vertices, v)
	b.g.Out = append(b.g.Out, nil)
	b.g.In = append(b.g.In, nil)
	return id
}

// AddEdge inserts the edge u→v. Duplicate edges are ignored. It panics on
// out-of-range IDs; the flattener controls both endpoints.
func (b *Builder) AddEdge(u, v VertexID) {
	n := VertexID(len(b.g.Vertices))
	if u >= n || v >= n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range, %d vertices", u, v, n))
	}
	key := [2]VertexID{u, v}
	if b.edges[key] {
		return
	}
	b.edges[key] = true
	b.g.Out[u] = append(b.g.Out[u], v)
	b.g.In[v] = append(b.g.In[v], u)
}

// Build finalizes and returns the graph. The Builder must not be used after
// Build.
func (b *Builder) Build() *Compact {
	g := &b.g
	for v := range g.Out {
		sortIDs(g.Out[v])
		sortIDs(g.In[v])
	}
	g.Roots = g.Roots[:0]
	for v := range g.Vertices {
		if len(g.In[v]) == 0 {
			g.Roots = append(g.Roots, VertexID(v))
		}
	}
	return g
}

func sortIDs(s []VertexID) { slices.Sort(s) }

// Validate checks structural invariants: dense IDs, sorted adjacency,
// In/Out symmetry, acyclicity, and root consistency.
func (g *Compact) Validate() error {
	n := len(g.Vertices)
	if len(g.Out) != n || len(g.In) != n {
		return fmt.Errorf("graph: adjacency length mismatch: %d vertices, %d out, %d in",
			n, len(g.Out), len(g.In))
	}
	for u := range g.Out {
		for i, v := range g.Out[u] {
			if int(v) >= n {
				return fmt.Errorf("graph: out edge %d→%d out of range", u, v)
			}
			if i > 0 && g.Out[u][i-1] >= v {
				return fmt.Errorf("graph: out list of %d not strictly ascending", u)
			}
			if !containsID(g.In[v], VertexID(u)) {
				return fmt.Errorf("graph: edge %d→%d missing from in-list", u, v)
			}
		}
	}
	for v := range g.In {
		for i, u := range g.In[v] {
			if int(u) >= n {
				return fmt.Errorf("graph: in edge %d←%d out of range", v, u)
			}
			if i > 0 && g.In[v][i-1] >= u {
				return fmt.Errorf("graph: in list of %d not strictly ascending", v)
			}
			if !containsID(g.Out[u], VertexID(v)) {
				return fmt.Errorf("graph: edge %d→%d missing from out-list", u, v)
			}
		}
	}
	for _, r := range g.Roots {
		if int(r) >= n || len(g.In[r]) != 0 {
			return fmt.Errorf("graph: bad root %d", r)
		}
	}
	roots := 0
	for v := range g.Vertices {
		if len(g.In[v]) == 0 {
			roots++
		}
	}
	if roots != len(g.Roots) {
		return fmt.Errorf("graph: %d zero-in-degree vertices but %d roots", roots, len(g.Roots))
	}
	if err := g.checkAcyclic(); err != nil {
		return err
	}
	return nil
}

func containsID(s []VertexID, x VertexID) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= x })
	return i < len(s) && s[i] == x
}

func (g *Compact) checkAcyclic() error {
	n := len(g.Vertices)
	indeg := make([]int, n)
	for v := range g.In {
		indeg[v] = len(g.In[v])
	}
	queue := make([]VertexID, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, VertexID(v))
		}
	}
	seen := 0
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		seen++
		for _, v := range g.Out[u] {
			indeg[v]--
			if indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	if seen != n {
		return fmt.Errorf("graph: cycle detected (%d of %d vertices reachable in topological order)", seen, n)
	}
	return nil
}

// Fingerprint returns a structural hash of the graph (config signatures and
// edges, not names). Two graphs with equal fingerprints have identical
// architecture with overwhelming probability; used to dedup catalogs.
func (g *Compact) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for v := range g.Vertices {
		binary.LittleEndian.PutUint64(buf[:], g.Vertices[v].ConfigSig)
		h.Write(buf[:])
		for _, w := range g.Out[v] {
			binary.LittleEndian.PutUint64(buf[:], uint64(v)<<32|uint64(w))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// Equal reports whether two graphs are architecturally identical: same
// vertex count, same per-vertex ConfigSig, same edges. Names and sizes are
// ignored, mirroring what LCP matching considers.
func (g *Compact) Equal(o *Compact) bool {
	if len(g.Vertices) != len(o.Vertices) {
		return false
	}
	for v := range g.Vertices {
		if g.Vertices[v].ConfigSig != o.Vertices[v].ConfigSig {
			return false
		}
		if len(g.Out[v]) != len(o.Out[v]) {
			return false
		}
		for i := range g.Out[v] {
			if g.Out[v][i] != o.Out[v][i] {
				return false
			}
		}
	}
	return true
}

// Clone returns a deep copy of the graph.
func (g *Compact) Clone() *Compact {
	c := &Compact{
		Vertices: append([]Vertex(nil), g.Vertices...),
		Out:      make([][]VertexID, len(g.Out)),
		In:       make([][]VertexID, len(g.In)),
		Roots:    append([]VertexID(nil), g.Roots...),
	}
	for v := range g.Out {
		c.Out[v] = append([]VertexID(nil), g.Out[v]...)
		c.In[v] = append([]VertexID(nil), g.In[v]...)
	}
	return c
}
