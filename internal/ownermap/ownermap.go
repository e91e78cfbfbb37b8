// Package ownermap implements EvoStore's lightweight lineage metadata.
//
// An owner map assigns every leaf-layer vertex of a model to its owner: the
// most recent ancestor in the transfer-learning lineage that modified the
// vertex's tensors. A model created from scratch owns all of its vertices.
// A derived model inherits its ancestor's owner map and overwrites the
// entries of the vertices it modified with itself.
//
// Reading a model therefore consults exactly one owner map regardless of
// lineage depth, and the map doubles as provenance: the set of distinct
// owners is exactly the set of ancestors that contributed tensors, and the
// owners' global sequence numbers order the chain of transfer-learning
// operations that produced the model.
//
// Each entry is 16 bytes (64-bit owner ID + 64-bit sequence number),
// matching the paper's "128 bits per leaf layer".
package ownermap

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"repro/internal/graph"
)

// ModelID identifies a model in the repository.
type ModelID uint64

// Entry records ownership of one vertex.
type Entry struct {
	// Owner is the model that most recently modified this vertex's tensors.
	Owner ModelID
	// Seq is the owner's global sequence number: a repository-wide
	// monotonically increasing stamp assigned when the owner was stored.
	// It provides the global ordering of owners the paper uses for
	// provenance (§4.1, "Owner Maps as a Foundation for Provenance").
	Seq uint64
}

// Map is the owner map of one model: Entries[v] covers vertex v of the
// model's compact architecture graph.
type Map struct {
	Entries []Entry
}

// New returns an owner map for a from-scratch model: every one of n
// vertices is owned by the model itself.
func New(self ModelID, seq uint64, n int) *Map {
	m := &Map{Entries: make([]Entry, n)}
	for i := range m.Entries {
		m.Entries[i] = Entry{Owner: self, Seq: seq}
	}
	return m
}

// Derive builds the owner map of a derived model: the ancestor's map is
// inherited on the vertices listed in inherited (which must be the longest
// common prefix), and the derived model owns everything else. The derived
// model's graph has n vertices; prefix vertices beyond the ancestor map's
// range are rejected.
func Derive(ancestor *Map, self ModelID, seq uint64, n int, inherited []graph.VertexID) (*Map, error) {
	m := &Map{Entries: make([]Entry, n)}
	for i := range m.Entries {
		m.Entries[i] = Entry{Owner: self, Seq: seq}
	}
	for _, v := range inherited {
		if int(v) >= n {
			return nil, fmt.Errorf("ownermap: inherited vertex %d outside derived graph of %d vertices", v, n)
		}
		if int(v) >= len(ancestor.Entries) {
			return nil, fmt.Errorf("ownermap: inherited vertex %d outside ancestor map of %d entries", v, len(ancestor.Entries))
		}
		m.Entries[v] = ancestor.Entries[v]
	}
	return m, nil
}

// Len returns the number of vertices covered.
func (m *Map) Len() int { return len(m.Entries) }

// OwnerOf returns the owner of vertex v.
func (m *Map) OwnerOf(v graph.VertexID) (Entry, error) {
	if int(v) >= len(m.Entries) {
		return Entry{}, fmt.Errorf("ownermap: vertex %d out of range (%d entries)", v, len(m.Entries))
	}
	return m.Entries[v], nil
}

// MarkOwned sets the derived model as the owner of additional vertices
// (used when training modifies vertices after the initial Derive).
func (m *Map) MarkOwned(self ModelID, seq uint64, vs ...graph.VertexID) {
	for _, v := range vs {
		m.Entries[v] = Entry{Owner: self, Seq: seq}
	}
}

// OwnedBy returns the vertices owned by the given model, ascending.
func (m *Map) OwnedBy(id ModelID) []graph.VertexID {
	var out []graph.VertexID
	for v, e := range m.Entries {
		if e.Owner == id {
			out = append(out, graph.VertexID(v))
		}
	}
	return out
}

// Owners returns the distinct owners referenced by the map together with
// the vertices each owns. This is the provenance primitive: the owners are
// exactly the ancestors that contributed tensors to the model.
func (m *Map) Owners() []OwnerGroup {
	// The distinct-owner count is the lineage depth — small in practice —
	// so a linear scan beats a map, and carving every Vertices list out of
	// one shared backing array keeps this metadata-read-path helper at a
	// constant handful of allocations (see the allocs/op of
	// `go test -bench Bulk ./internal/bulkbench`).
	out := make([]OwnerGroup, 0, 4)
	find := func(owner ModelID) int {
		for i := range out {
			if out[i].Owner == owner {
				return i
			}
		}
		return -1
	}
	for _, e := range m.Entries {
		if find(e.Owner) < 0 {
			out = append(out, OwnerGroup{Owner: e.Owner, Seq: e.Seq})
		}
	}
	counts := make([]int, len(out))
	for _, e := range m.Entries {
		counts[find(e.Owner)]++
	}
	backing := make([]graph.VertexID, len(m.Entries))
	off := 0
	for i := range out {
		out[i].Vertices = backing[off:off : off+counts[i]]
		off += counts[i]
	}
	for v, e := range m.Entries {
		i := find(e.Owner)
		out[i].Vertices = append(out[i].Vertices, graph.VertexID(v))
	}
	// Ascending sequence number = oldest ancestor first: the chain of
	// transfer-learning operations in the order they happened.
	slices.SortFunc(out, func(a, b OwnerGroup) int {
		switch {
		case a.Seq < b.Seq:
			return -1
		case a.Seq > b.Seq:
			return 1
		default:
			return 0
		}
	})
	return out
}

// OwnerGroup is one distinct owner and the vertices it owns in the map.
type OwnerGroup struct {
	Owner    ModelID
	Seq      uint64
	Vertices []graph.VertexID
}

// Lineage returns the distinct owner model IDs ordered oldest→newest. For a
// model derived through a chain of transfer-learning operations this is the
// contributing-ancestor chain ending in the model itself.
func (m *Map) Lineage() []ModelID {
	groups := m.Owners()
	out := make([]ModelID, len(groups))
	for i, g := range groups {
		out[i] = g.Owner
	}
	return out
}

// InheritedFraction returns the fraction of vertices not owned by self —
// the share of the model that was transferred rather than retrained.
func (m *Map) InheritedFraction(self ModelID) float64 {
	if len(m.Entries) == 0 {
		return 0
	}
	inherited := 0
	for _, e := range m.Entries {
		if e.Owner != self {
			inherited++
		}
	}
	return float64(inherited) / float64(len(m.Entries))
}

// Clone deep-copies the map.
func (m *Map) Clone() *Map {
	return &Map{Entries: append([]Entry(nil), m.Entries...)}
}

// Equal reports whether two maps are identical.
func (m *Map) Equal(o *Map) bool {
	if len(m.Entries) != len(o.Entries) {
		return false
	}
	for i := range m.Entries {
		if m.Entries[i] != o.Entries[i] {
			return false
		}
	}
	return true
}

// SizeBytes returns the serialized size: 16 bytes per leaf layer plus an
// 8-byte header.
func (m *Map) SizeBytes() int { return 8 + 16*len(m.Entries) }

// AppendEncode appends the binary encoding to dst.
func (m *Map) AppendEncode(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(m.Entries)))
	for _, e := range m.Entries {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(e.Owner))
		dst = binary.LittleEndian.AppendUint64(dst, e.Seq)
	}
	return dst
}

// Encode returns the binary encoding of the map.
func (m *Map) Encode() []byte { return m.AppendEncode(make([]byte, 0, m.SizeBytes())) }

// Decode parses an encoded owner map, returning it and the bytes consumed.
func Decode(b []byte) (*Map, int, error) {
	if len(b) < 8 {
		return nil, 0, io.ErrUnexpectedEOF
	}
	n := binary.LittleEndian.Uint64(b)
	if n > uint64(len(b)-8)/16 {
		return nil, 0, io.ErrUnexpectedEOF
	}
	m := &Map{Entries: make([]Entry, n)}
	off := 8
	for i := range m.Entries {
		m.Entries[i].Owner = ModelID(binary.LittleEndian.Uint64(b[off:]))
		m.Entries[i].Seq = binary.LittleEndian.Uint64(b[off+8:])
		off += 16
	}
	return m, off, nil
}

// MostRecentCommonOwner returns the owner with the highest sequence number
// that appears in both maps, answering the paper's "most recent common
// ancestor of a DL model pair" query. ok is false when the maps share no
// owner.
func MostRecentCommonOwner(a, b *Map) (Entry, bool) {
	inA := make(map[ModelID]uint64, len(a.Entries))
	for _, e := range a.Entries {
		inA[e.Owner] = e.Seq
	}
	var best Entry
	ok := false
	for _, e := range b.Entries {
		if _, shared := inA[e.Owner]; shared {
			if !ok || e.Seq > best.Seq {
				best = e
				ok = true
			}
		}
	}
	return best, ok
}
