package graph

import (
	"encoding/binary"
	"fmt"
	"io"
	"strings"
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

// EncodedSize returns the length of g's encoding, so a caller can size the
// buffer it encodes into exactly.
func (g *Compact) EncodedSize() int {
	n := 12 + 18*len(g.Vertices)
	for i := range g.Vertices {
		n += len(g.Vertices[i].Name)
	}
	for u := range g.Out {
		n += 8 * len(g.Out[u])
	}
	return n
}

// Encode returns the binary encoding of g.
func (g *Compact) Encode() []byte { return g.AppendEncode(make([]byte, 0, g.EncodedSize())) }

// Decode parses an encoded graph and returns it with the number of bytes
// consumed.
//
// Decode allocates a fixed number of times, whatever the vertex count: the
// graph, its vertices, one array of adjacency list headers (Out and In),
// one string holding every vertex name (each Name is a substring of it),
// the degree counts, one backing array for every adjacency list, and
// Roots. Because AppendEncode emits edges in sorted (src, dst) order the
// lists come out sorted without any per-list sort. Graph decoding sits on
// the metadata read path of every Load and on both ends of every LCP query,
// so its allocation count matters (TestDecodeAllocsFixed pins it).
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
	// Pass 1 over the vertices: bounds-check and total the name bytes.
	off, names := 8, 0
	for i := 0; i < n; i++ {
		if len(b) < off+18 {
			return nil, 0, io.ErrUnexpectedEOF
		}
		nameLen := int(binary.LittleEndian.Uint16(b[off+16:]))
		off += 18 + nameLen
		names += nameLen
	}
	if len(b) < off+4 {
		return nil, 0, io.ErrUnexpectedEOF
	}
	eoff := off + 4
	edges := int(binary.LittleEndian.Uint32(b[off:]))
	if (len(b)-eoff)/8 < edges {
		return nil, 0, io.ErrUnexpectedEOF
	}
	// Pass 2: copy every name into one string, then give each vertex its
	// substring.
	var sb strings.Builder
	sb.Grow(names)
	for i, off := 0, 8; i < n; i++ {
		nameLen := int(binary.LittleEndian.Uint16(b[off+16:]))
		sb.Write(b[off+18 : off+18+nameLen])
		off += 18 + nameLen
	}
	all := sb.String()
	lists := make([][]VertexID, 2*n)
	g := &Compact{Vertices: make([]Vertex, n), Out: lists[:n:n], In: lists[n:]}
	for i, off, at := 0, 8, 0; i < n; i++ {
		v := &g.Vertices[i]
		v.ConfigSig = binary.LittleEndian.Uint64(b[off:])
		v.ParamBytes = int64(binary.LittleEndian.Uint64(b[off+8:]))
		nameLen := int(binary.LittleEndian.Uint16(b[off+16:]))
		v.Name = all[at : at+nameLen]
		off += 18 + nameLen
		at += nameLen
	}
	// Pass 1 over the edges: bounds-check and count degrees.
	deg := make([]int32, 2*n)
	outDeg, inDeg := deg[:n], deg[n:]
	for i := 0; i < edges; i++ {
		u := binary.LittleEndian.Uint32(b[eoff+8*i:])
		v := binary.LittleEndian.Uint32(b[eoff+8*i+4:])
		if int(u) >= n || int(v) >= n {
			return nil, 0, fmt.Errorf("graph: edge (%d,%d) out of range in encoding", u, v)
		}
		outDeg[u]++
		inDeg[v]++
	}
	// Carve zero-length per-vertex lists out of one shared backing array:
	// the Out lists fill its first half, the In lists its second.
	back := make([]VertexID, 2*edges)
	o, in := 0, edges
	for v := 0; v < n; v++ {
		g.Out[v] = back[o : o : o+int(outDeg[v])]
		g.In[v] = back[in : in : in+int(inDeg[v])]
		o += int(outDeg[v])
		in += int(inDeg[v])
	}
	// Pass 2: fill. Edges arrive sorted by (src, dst), so Out lists fill in
	// ascending order and each In list sees its sources ascending too.
	sorted := true
	for i := 0; i < edges; i++ {
		u := binary.LittleEndian.Uint32(b[eoff+8*i:])
		v := binary.LittleEndian.Uint32(b[eoff+8*i+4:])
		if l := g.Out[u]; len(l) > 0 && l[len(l)-1] >= VertexID(v) {
			sorted = false
		}
		if l := g.In[v]; len(l) > 0 && l[len(l)-1] >= VertexID(u) {
			sorted = false
		}
		g.Out[u] = append(g.Out[u], VertexID(v))
		g.In[v] = append(g.In[v], VertexID(u))
	}
	if !sorted {
		g.normalizeAdjacency()
	}
	roots := 0
	for v := 0; v < n; v++ {
		if len(g.In[v]) == 0 {
			roots++
		}
	}
	if roots > 0 {
		g.Roots = make([]VertexID, 0, roots)
		for v := 0; v < n; v++ {
			if len(g.In[v]) == 0 {
				g.Roots = append(g.Roots, VertexID(v))
			}
		}
	}
	return g, eoff + 8*edges, nil
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
