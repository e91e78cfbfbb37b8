package model

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func mustFlatten(t *testing.T, m *Model) *Flat {
	t.Helper()
	f, err := Flatten(m)
	if err != nil {
		t.Fatalf("Flatten(%s): %v", m.Name, err)
	}
	if err := f.Graph.Validate(); err != nil {
		t.Fatalf("flattened graph invalid: %v", err)
	}
	return f
}

func TestSequentialFlatten(t *testing.T) {
	m := Sequential("mlp", 16,
		Dense{In: 16, Out: 32, Activation: "relu", UseBias: true},
		Dense{In: 32, Out: 8, Activation: "softmax", UseBias: true},
	)
	f := mustFlatten(t, m)
	if f.NumLeaves() != 3 { // input + 2 dense
		t.Fatalf("NumLeaves = %d, want 3", f.NumLeaves())
	}
	// IDs must follow BFS order: input=0, dense0=1, dense1=2.
	if f.Leaves[0].Layer.Kind() != "input" || f.Leaves[1].Layer.Kind() != "dense" {
		t.Errorf("BFS order broken: %v %v", f.Leaves[0].Layer.Kind(), f.Leaves[1].Layer.Kind())
	}
	if !f.Graph.HasEdge(0, 1) || !f.Graph.HasEdge(1, 2) {
		t.Error("edges missing in flattened chain")
	}
	// Dense with bias: kernel 16*32*4 + bias 32*4 bytes.
	want := int64(16*32*4 + 32*4)
	if got := f.Graph.Vertices[1].ParamBytes; got != want {
		t.Errorf("vertex 1 ParamBytes = %d, want %d", got, want)
	}
}

func TestValidateErrors(t *testing.T) {
	m := New("empty")
	if err := m.Validate(); err == nil {
		t.Error("Validate accepted model with no inputs")
	}
	m2 := New("noout")
	m2.Input("in", 4)
	if err := m2.Validate(); err == nil {
		t.Error("Validate accepted model with no outputs")
	}
	m3 := New("orphan")
	in := m3.Input("in", 4)
	_ = in
	orphan := m3.Apply(Dense{In: 4, Out: 4}, "dangling")
	m3.SetOutputs(orphan)
	if err := m3.Validate(); err == nil {
		t.Error("Validate accepted non-input node without inputs")
	}
}

func TestApplyPanicsOnForeignNode(t *testing.T) {
	a := New("a")
	b := New("b")
	inA := a.Input("in", 4)
	defer func() {
		if recover() == nil {
			t.Error("Apply accepted node from another model")
		}
	}()
	b.Apply(Dense{In: 4, Out: 4}, "d", inA)
}

// TestFigure2Submodels reproduces the paper's Figure 2 / §4.2 argument:
// flattening submodels into leaf layers lengthens the common prefix.
//
// Grandparent = 1 → 2 → [A: 3 → 4] → 5
// Parent      = 1 → 2 → [A': 3 → 4'] → 5'
// Without decomposition, A ≠ A' would end the match at {1,2}. With leaf
// flattening, leaf 3 inside the submodel still matches: LCP = {1,2,3}.
func TestFigure2Submodels(t *testing.T) {
	subA := func(second Layer) *Model {
		s := New("A")
		in := s.Input("ain", 8)
		l3 := s.Apply(Dense{In: 8, Out: 8, Activation: "relu"}, "l3", in)
		l4 := s.Apply(second, "l4", l3)
		s.SetOutputs(l4)
		return s
	}
	build := func(sub *Model, last Layer) *Model {
		m := New("top")
		in := m.Input("l1", 8)
		l2 := m.Apply(Dense{In: 8, Out: 8, Activation: "relu"}, "l2", in)
		a := m.Apply(Submodel{M: sub}, "A", l2)
		l5 := m.Apply(last, "l5", a)
		m.SetOutputs(l5)
		return m
	}
	gp := build(subA(Dense{In: 8, Out: 8, Activation: "tanh"}), Dense{In: 8, Out: 4})
	par := build(subA(Dense{In: 8, Out: 16, Activation: "tanh"}), Dense{In: 16, Out: 4})

	fgp := mustFlatten(t, gp)
	fpar := mustFlatten(t, par)

	// Both flatten to 5 leaves: input, l2, A/l3, A/l4, l5.
	if fgp.NumLeaves() != 5 || fpar.NumLeaves() != 5 {
		t.Fatalf("leaves: gp=%d par=%d, want 5", fgp.NumLeaves(), fpar.NumLeaves())
	}
	// The submodel's inner input node must NOT appear as a leaf.
	for _, l := range fgp.Leaves {
		if l.Name == "A/ain" {
			t.Error("submodel input node leaked into flattened graph")
		}
	}
	lcp := graph.LCP(fpar.Graph, fgp.Graph)
	if len(lcp) != 3 {
		t.Fatalf("LCP with decomposed submodels = %v, want 3 vertices {input,l2,A/l3}", lcp)
	}
	if fpar.Leaves[lcp[2]].Name != "A/l3" {
		t.Errorf("third prefix leaf = %q, want A/l3", fpar.Leaves[lcp[2]].Name)
	}
}

func TestNestedSubmodelDepth2(t *testing.T) {
	inner := New("inner")
	iin := inner.Input("iin", 4)
	inner.SetOutputs(inner.Apply(Dense{In: 4, Out: 4}, "d", iin))

	mid := New("mid")
	min := mid.Input("min", 4)
	mid.SetOutputs(mid.Apply(Submodel{M: inner}, "inner", min))

	top := New("top")
	tin := top.Input("tin", 4)
	out := top.Apply(Submodel{M: mid}, "mid", tin)
	top.SetOutputs(out)

	f := mustFlatten(t, top)
	if f.NumLeaves() != 2 {
		t.Fatalf("NumLeaves = %d, want 2 (input + inner dense)", f.NumLeaves())
	}
	if f.Leaves[1].Name != "mid/inner/d" {
		t.Errorf("nested leaf name = %q, want mid/inner/d", f.Leaves[1].Name)
	}
}

func TestForkJoinFlatten(t *testing.T) {
	m := New("fork")
	in := m.Input("in", 8)
	a := m.Apply(Dense{In: 8, Out: 8}, "a", in)
	b := m.Apply(Dense{In: 8, Out: 8, Activation: "relu"}, "b", in)
	j := m.Apply(Add{}, "join", a, b)
	m.SetOutputs(j)
	f := mustFlatten(t, m)
	if f.NumLeaves() != 4 {
		t.Fatalf("NumLeaves = %d, want 4", f.NumLeaves())
	}
	join := graph.VertexID(3)
	if f.Graph.InDegree(join) != 2 {
		t.Errorf("join in-degree = %d, want 2", f.Graph.InDegree(join))
	}
}

func TestFlattenDeterministicIDs(t *testing.T) {
	build := func(outDim int) *Flat {
		m := Sequential("m", 8,
			Dense{In: 8, Out: 16},
			Activation{Fn: "relu"},
			Dense{In: 16, Out: outDim},
		)
		f, err := Flatten(m)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	a := build(4)
	b := build(10) // differs only in the last layer
	lcp := graph.LCP(b.Graph, a.Graph)
	if len(lcp) != 3 {
		t.Fatalf("shared prefix = %v, want first 3 vertices", lcp)
	}
	for i := 0; i < 3; i++ {
		if a.Graph.Vertices[i].ConfigSig != b.Graph.Vertices[i].ConfigSig {
			t.Errorf("vertex %d sig differs between identical prefixes", i)
		}
	}
}

func TestConfigSigIgnoresName(t *testing.T) {
	a := Dense{In: 4, Out: 4, Activation: "relu"}
	b := Dense{In: 4, Out: 4, Activation: "relu"}
	if a.ConfigSig() != b.ConfigSig() {
		t.Error("identical configs produced different sigs")
	}
	c := Dense{In: 4, Out: 4, Activation: "tanh"}
	if a.ConfigSig() == c.ConfigSig() {
		t.Error("different activations produced same sig")
	}
	d := Dense{In: 4, Out: 4, Activation: "relu", UseBias: true}
	if a.ConfigSig() == d.ConfigSig() {
		t.Error("bias flag ignored by sig")
	}
}

func TestLayerSigsDistinct(t *testing.T) {
	layers := []LeafLayer{
		Input{Dim: 8},
		Dense{In: 8, Out: 8},
		Conv2D{InCh: 3, OutCh: 8, KH: 3, KW: 3, Stride: 1},
		BatchNorm{Dim: 8},
		LayerNorm{Dim: 8},
		Embedding{Vocab: 100, Dim: 8},
		MultiHeadAttention{Dim: 8, Heads: 2},
		Activation{Fn: "relu"},
		Dropout{Rate100: 50},
		MaxPool2D{K: 2},
		AvgPool2D{K: 2},
		FlattenOp{},
		Add{},
		Concat{},
		Identity{},
	}
	seen := make(map[uint64]string)
	for _, l := range layers {
		s := l.ConfigSig()
		if prev, dup := seen[s]; dup {
			t.Errorf("sig collision between %s and %s", prev, l.Kind())
		}
		seen[s] = l.Kind()
	}
}

func TestParamSpecs(t *testing.T) {
	mha := MultiHeadAttention{Dim: 16, Heads: 4}
	specs := mha.ParamSpecs()
	if len(specs) != 4 {
		t.Fatalf("MHA specs = %d, want 4", len(specs))
	}
	if ParamBytes(mha) != int64(16*48*4+48*4+16*16*4+16*4) {
		t.Errorf("MHA ParamBytes = %d", ParamBytes(mha))
	}
	bn := BatchNorm{Dim: 10}
	if ParamBytes(bn) != 4*10*4 {
		t.Errorf("BatchNorm ParamBytes = %d", ParamBytes(bn))
	}
	if ParamBytes(Dropout{Rate100: 20}) != 0 {
		t.Error("Dropout should be parameter-free")
	}
}

func TestMaterializeDeterministic(t *testing.T) {
	m := Sequential("m", 8, Dense{In: 8, Out: 8, UseBias: true}, BatchNorm{Dim: 8})
	f := mustFlatten(t, m)
	a := Materialize(f, 7)
	b := Materialize(f, 7)
	if !a.Equal(b) {
		t.Error("same seed produced different weights")
	}
	c := Materialize(f, 8)
	if a.Equal(c) {
		t.Error("different seeds produced identical weights")
	}
	if a.SizeBytes() != f.TotalParamBytes() {
		t.Errorf("weights size %d != graph param bytes %d", a.SizeBytes(), f.TotalParamBytes())
	}
}

func TestPerturbVertexChangesOnlyThatVertex(t *testing.T) {
	m := Sequential("m", 8, Dense{In: 8, Out: 8}, Dense{In: 8, Out: 8})
	f := mustFlatten(t, m)
	ws := Materialize(f, 1)
	orig := ws.Clone()
	ws.PerturbVertex(1, 99)
	if ws.VertexEqual(orig, 1) {
		t.Error("perturbed vertex unchanged")
	}
	if !ws.VertexEqual(orig, 2) {
		t.Error("unperturbed vertex changed")
	}
}

func TestEncodeDecodeVertexRoundtrip(t *testing.T) {
	m := Sequential("m", 8, Dense{In: 8, Out: 8, UseBias: true})
	f := mustFlatten(t, m)
	ws := Materialize(f, 3)
	seg := ws.EncodeVertex(1)
	ws2 := make(WeightSet, len(ws))
	if err := ws2.DecodeVertexInto(f, 1, seg); err != nil {
		t.Fatalf("DecodeVertexInto: %v", err)
	}
	if !ws.VertexEqual(ws2, 1) {
		t.Error("vertex roundtrip mismatch")
	}
	// Wrong vertex: specs of vertex 0 (input, no params) reject the segment.
	if err := ws2.DecodeVertexInto(f, 0, seg); err == nil {
		t.Error("DecodeVertexInto accepted mismatched specs")
	}
}

func TestSubmodelInputArityMismatch(t *testing.T) {
	sub := New("sub")
	i1 := sub.Input("i1", 4)
	i2 := sub.Input("i2", 4)
	sub.SetOutputs(sub.Apply(Add{}, "add", i1, i2))

	top := New("top")
	in := top.Input("in", 4)
	n := top.Apply(Submodel{M: sub}, "sub", in) // only 1 input for 2-ary submodel
	top.SetOutputs(n)
	if _, err := Flatten(top); err == nil {
		t.Error("Flatten accepted submodel arity mismatch")
	}
}

func TestMultiInputSubmodel(t *testing.T) {
	sub := New("sub")
	i1 := sub.Input("i1", 4)
	i2 := sub.Input("i2", 4)
	sub.SetOutputs(sub.Apply(Concat{}, "cat", i1, i2))

	top := New("top")
	in := top.Input("in", 4)
	a := top.Apply(Dense{In: 4, Out: 4}, "a", in)
	b := top.Apply(Dense{In: 4, Out: 4, Activation: "relu"}, "b", in)
	s := top.Apply(Submodel{M: sub}, "merge", a, b)
	top.SetOutputs(s)

	f := mustFlatten(t, top)
	// Leaves: in, a, b, merge/cat = 4.
	if f.NumLeaves() != 4 {
		t.Fatalf("NumLeaves = %d, want 4", f.NumLeaves())
	}
	cat := graph.VertexID(3)
	if f.Graph.InDegree(cat) != 2 {
		t.Errorf("concat in-degree = %d, want 2", f.Graph.InDegree(cat))
	}
}

// randomNested builds a random model with nested submodels, driven by a
// deterministic choice stream.
func randomNested(r *rand.Rand, depth int) *Model {
	m := New("rnd")
	cur := m.Input("in", 8)
	n := 1 + r.Intn(5)
	for i := 0; i < n; i++ {
		switch r.Intn(4) {
		case 0:
			cur = m.Apply(Dense{In: 8, Out: 8, Activation: "relu"}, fmt.Sprintf("d%d", i), cur)
		case 1:
			cur = m.Apply(LayerNorm{Dim: 8}, fmt.Sprintf("ln%d", i), cur)
		case 2:
			br := m.Apply(Dense{In: 8, Out: 8}, fmt.Sprintf("br%d", i), cur)
			cur = m.Apply(Add{}, fmt.Sprintf("add%d", i), cur, br)
		default:
			if depth > 0 {
				sub := randomNested(r, depth-1)
				cur = m.Apply(Submodel{M: sub}, fmt.Sprintf("sub%d", i), cur)
			} else {
				cur = m.Apply(Activation{Fn: "relu"}, fmt.Sprintf("act%d", i), cur)
			}
		}
	}
	m.SetOutputs(cur)
	return m
}

// countLeaves recursively counts the leaf-layer placements a model will
// flatten to (submodel inputs bind away, everything else is a leaf).
func countLeaves(m *Model, topLevel bool) int {
	n := 0
	for _, node := range m.Nodes() {
		switch l := node.Layer.(type) {
		case Input:
			if topLevel {
				n++
			}
		case Submodel:
			n += countLeaves(l.M, false)
		default:
			n++
		}
	}
	return n
}

// Property: flattening a random nested model yields exactly one vertex per
// leaf placement, a valid DAG, and byte sizes that match the layer specs.
func TestQuickFlattenInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := randomNested(r, 2)
		flat, err := Flatten(m)
		if err != nil {
			return false
		}
		if err := flat.Graph.Validate(); err != nil {
			return false
		}
		if flat.NumLeaves() != countLeaves(m, true) {
			return false
		}
		var specBytes int64
		for _, leaf := range flat.Leaves {
			specBytes += ParamBytes(leaf.Layer)
		}
		return specBytes == flat.TotalParamBytes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: materialized weights always satisfy their specs.
func TestQuickMaterializeMatchesSpecs(t *testing.T) {
	f := func(seed int64, wseed uint64) bool {
		r := rand.New(rand.NewSource(seed))
		flat, err := Flatten(randomNested(r, 1))
		if err != nil {
			return false
		}
		ws := Materialize(flat, wseed)
		for v, leaf := range flat.Leaves {
			if len(ws[v]) != len(leaf.Specs) {
				return false
			}
			for i, spec := range leaf.Specs {
				tt := ws[v][i]
				if tt.DType != spec.DType || int64(tt.SizeBytes()) != spec.SizeBytes() {
					return false
				}
				if err := tt.Validate(); err != nil {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
