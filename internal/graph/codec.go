package graph

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Binary layout of an encoded Compact graph:
//
//	u32 magic "EVGR"
//	u32 vertex count
//	per vertex: u64 configSig | i64 paramBytes | u16 name len | name
//	u32 edge count
//	per edge: u32 src | u32 dst
//
// Little-endian throughout. Edges are emitted in (src, dst) order so the
// encoding is canonical: equal graphs encode to equal bytes.

const graphMagic = 0x52475645 // "EVGR"

// AppendEncode appends the binary encoding of g to dst.
func (g *Compact) AppendEncode(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, graphMagic)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(g.Vertices)))
	for i := range g.Vertices {
		v := &g.Vertices[i]
		dst = binary.LittleEndian.AppendUint64(dst, v.ConfigSig)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v.ParamBytes))
		if len(v.Name) > 0xffff {
			panic("graph: vertex name too long to encode")
		}
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(v.Name)))
		dst = append(dst, v.Name...)
	}
	edges := 0
	for u := range g.Out {
		edges += len(g.Out[u])
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(edges))
	for u := range g.Out {
		for _, v := range g.Out[u] {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(u))
			dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
		}
	}
	return dst
}

// Encode returns the binary encoding of g.
func (g *Compact) Encode() []byte { return g.AppendEncode(nil) }

// Decode parses an encoded graph and returns it with the number of bytes
// consumed.
//
// Decode builds the adjacency directly rather than replaying the edges
// through a Builder: all per-vertex lists are carved out of two shared
// backing arrays, and because AppendEncode emits edges in sorted (src, dst)
// order the lists come out sorted without any per-list sort. Graph decoding
// sits on the metadata read path of every Load, so its allocation count
// matters (see the allocs/op of `go test -bench Bulk ./internal/bulkbench`).
// Encodings with unsorted or duplicate edges (not produced by AppendEncode,
// but legal) are normalized after the fill.
func Decode(b []byte) (*Compact, int, error) {
	if len(b) < 8 {
		return nil, 0, io.ErrUnexpectedEOF
	}
	if binary.LittleEndian.Uint32(b) != graphMagic {
		return nil, 0, fmt.Errorf("graph: bad magic %#x", binary.LittleEndian.Uint32(b))
	}
	n := int(binary.LittleEndian.Uint32(b[4:]))
	if n > (len(b)-8)/18 { // every vertex takes at least 18 bytes
		return nil, 0, io.ErrUnexpectedEOF
	}
	off := 8
	g := &Compact{
		Vertices: make([]Vertex, n),
		Out:      make([][]VertexID, n),
		In:       make([][]VertexID, n),
	}
	for i := 0; i < n; i++ {
		if len(b) < off+18 {
			return nil, 0, io.ErrUnexpectedEOF
		}
		v := &g.Vertices[i]
		v.ConfigSig = binary.LittleEndian.Uint64(b[off:])
		v.ParamBytes = int64(binary.LittleEndian.Uint64(b[off+8:]))
		nameLen := int(binary.LittleEndian.Uint16(b[off+16:]))
		off += 18
		if len(b) < off+nameLen {
			return nil, 0, io.ErrUnexpectedEOF
		}
		v.Name = string(b[off : off+nameLen])
		off += nameLen
	}
	if len(b) < off+4 {
		return nil, 0, io.ErrUnexpectedEOF
	}
	edges := int(binary.LittleEndian.Uint32(b[off:]))
	off += 4
	if len(b) < off+8*edges {
		return nil, 0, io.ErrUnexpectedEOF
	}
	// Pass 1: bounds-check and count degrees.
	outDeg := make([]int32, n)
	inDeg := make([]int32, n)
	for i := 0; i < edges; i++ {
		u := binary.LittleEndian.Uint32(b[off+8*i:])
		v := binary.LittleEndian.Uint32(b[off+8*i+4:])
		if int(u) >= n || int(v) >= n {
			return nil, 0, fmt.Errorf("graph: edge (%d,%d) out of range in encoding", u, v)
		}
		outDeg[u]++
		inDeg[v]++
	}
	// Carve zero-length per-vertex lists out of shared backing arrays.
	outBack := make([]VertexID, edges)
	inBack := make([]VertexID, edges)
	o, in := 0, 0
	for v := 0; v < n; v++ {
		g.Out[v] = outBack[o : o : o+int(outDeg[v])]
		g.In[v] = inBack[in : in : in+int(inDeg[v])]
		o += int(outDeg[v])
		in += int(inDeg[v])
	}
	// Pass 2: fill. Edges arrive sorted by (src, dst), so Out lists fill in
	// ascending order and each In list sees its sources ascending too.
	sorted := true
	for i := 0; i < edges; i++ {
		u := binary.LittleEndian.Uint32(b[off+8*i:])
		v := binary.LittleEndian.Uint32(b[off+8*i+4:])
		if l := g.Out[u]; len(l) > 0 && l[len(l)-1] >= VertexID(v) {
			sorted = false
		}
		if l := g.In[v]; len(l) > 0 && l[len(l)-1] >= VertexID(u) {
			sorted = false
		}
		g.Out[u] = append(g.Out[u], VertexID(v))
		g.In[v] = append(g.In[v], VertexID(u))
	}
	off += 8 * edges
	if !sorted {
		g.normalizeAdjacency()
	}
	for v := 0; v < n; v++ {
		if len(g.In[v]) == 0 {
			g.Roots = append(g.Roots, VertexID(v))
		}
	}
	return g, off, nil
}

// normalizeAdjacency sorts every adjacency list and drops duplicate edges,
// restoring the Compact invariants for encodings that were not produced by
// AppendEncode's canonical edge order.
func (g *Compact) normalizeAdjacency() {
	dedup := func(s []VertexID) []VertexID {
		sortIDs(s)
		w := 0
		for i, x := range s {
			if i == 0 || x != s[w-1] {
				s[w] = x
				w++
			}
		}
		return s[:w]
	}
	for v := range g.Out {
		g.Out[v] = dedup(g.Out[v])
		g.In[v] = dedup(g.In[v])
	}
}
