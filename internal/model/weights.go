package model

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// WeightSet holds the materialized parameter tensors of a flattened model,
// indexed by vertex ID. Vertices of parameter-free leaves have empty slots.
type WeightSet [][]*tensor.Tensor

// Materialize allocates and deterministically fills all parameter tensors
// of f. Tensors are seeded per (seed, vertex, tensor index) so that two
// materializations with the same seed are bit-identical — this is how tests
// and benchmarks simulate "the same trained weights".
func Materialize(f *Flat, seed uint64) WeightSet {
	ws := make(WeightSet, len(f.Leaves))
	for v := range f.Leaves {
		leaf := &f.Leaves[v]
		if len(leaf.Specs) == 0 {
			continue
		}
		ts := make([]*tensor.Tensor, len(leaf.Specs))
		for i, spec := range leaf.Specs {
			t := tensor.New(leaf.Name+"/"+spec.Name, spec.DType, spec.Shape...)
			t.FillSeeded(seed ^ uint64(v)<<20 ^ uint64(i)<<40 ^ 0xe5f05e1)
			ts[i] = t
		}
		ws[v] = ts
	}
	return ws
}

// Clone deep-copies the weight set.
func (ws WeightSet) Clone() WeightSet {
	out := make(WeightSet, len(ws))
	for v, ts := range ws {
		if ts == nil {
			continue
		}
		cs := make([]*tensor.Tensor, len(ts))
		for i, t := range ts {
			cs[i] = t.Clone()
		}
		out[v] = cs
	}
	return out
}

// SizeBytes returns the total tensor payload in the set.
func (ws WeightSet) SizeBytes() int64 {
	var n int64
	for _, ts := range ws {
		for _, t := range ts {
			n += int64(t.SizeBytes())
		}
	}
	return n
}

// VertexEqual reports whether vertex v's tensors are bit-identical in both
// sets. Missing/empty slots compare equal to each other.
func (ws WeightSet) VertexEqual(o WeightSet, v graph.VertexID) bool {
	a, b := ws.slot(v), o.slot(v)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

func (ws WeightSet) slot(v graph.VertexID) []*tensor.Tensor {
	if int(v) >= len(ws) {
		return nil
	}
	return ws[v]
}

// Equal reports whether both sets hold identical tensors on all vertices.
func (ws WeightSet) Equal(o WeightSet) bool {
	n := len(ws)
	if len(o) > n {
		n = len(o)
	}
	for v := 0; v < n; v++ {
		if !ws.VertexEqual(o, graph.VertexID(v)) {
			return false
		}
	}
	return true
}

// PerturbVertex simulates a training update on vertex v's tensors.
func (ws WeightSet) PerturbVertex(v graph.VertexID, seed uint64) {
	for i, t := range ws.slot(v) {
		t.Perturb(seed ^ uint64(v)<<16 ^ uint64(i))
	}
}

// EncodeVertex consolidates vertex v's tensors into one segment.
func (ws WeightSet) EncodeVertex(v graph.VertexID) []byte {
	return tensor.EncodeSet(ws.slot(v))
}

// DecodeVertexInto decodes a consolidated segment into vertex v's slot,
// validating against the leaf's specs. The decoded tensors are deep copies
// (they do not alias seg).
func (ws WeightSet) DecodeVertexInto(f *Flat, v graph.VertexID, seg []byte) error {
	ts, err := tensor.DecodeSet(seg)
	if err != nil {
		return fmt.Errorf("model: vertex %d: %w", v, err)
	}
	specs := f.Leaves[v].Specs
	if len(ts) != len(specs) {
		return fmt.Errorf("model: vertex %d: segment has %d tensors, specs want %d", v, len(ts), len(specs))
	}
	out := make([]*tensor.Tensor, len(ts))
	for i, t := range ts {
		if t.DType != specs[i].DType || t.NumElements() != tensor.NumElements(specs[i].Shape) {
			return fmt.Errorf("model: vertex %d tensor %d: got %s, spec %s", v, i, t, specs[i])
		}
		out[i] = t.Clone()
	}
	ws[v] = out
	return nil
}
