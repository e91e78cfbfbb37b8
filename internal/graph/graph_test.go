package graph

import (
	"encoding/binary"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// chain builds a linear graph with the given per-vertex config signatures.
func chain(sigs ...uint64) *Compact {
	b := NewBuilder(len(sigs))
	for i, s := range sigs {
		b.AddVertex(Vertex{ConfigSig: s, ParamBytes: 10})
		if i > 0 {
			b.AddEdge(VertexID(i-1), VertexID(i))
		}
	}
	return b.Build()
}

func TestBuilderBasics(t *testing.T) {
	g := chain(1, 2, 3)
	if g.NumVertices() != 3 {
		t.Fatalf("NumVertices = %d", g.NumVertices())
	}
	if len(g.Roots) != 1 || g.Roots[0] != 0 {
		t.Fatalf("Roots = %v", g.Roots)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 2) || g.HasEdge(0, 2) {
		t.Error("edge set wrong")
	}
	if g.InDegree(0) != 0 || g.InDegree(2) != 1 {
		t.Error("in-degrees wrong")
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if g.TotalParamBytes() != 30 {
		t.Errorf("TotalParamBytes = %d", g.TotalParamBytes())
	}
}

func TestBuilderDedupsEdges(t *testing.T) {
	b := NewBuilder(2)
	b.AddVertex(Vertex{ConfigSig: 1})
	b.AddVertex(Vertex{ConfigSig: 2})
	b.AddEdge(0, 1)
	b.AddEdge(0, 1)
	g := b.Build()
	if len(g.Out[0]) != 1 {
		t.Errorf("duplicate edge stored: %v", g.Out[0])
	}
}

func TestValidateDetectsCycle(t *testing.T) {
	b := NewBuilder(2)
	b.AddVertex(Vertex{ConfigSig: 1})
	b.AddVertex(Vertex{ConfigSig: 2})
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	g := b.Build()
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted a cycle")
	}
}

func TestEqualAndFingerprint(t *testing.T) {
	a := chain(1, 2, 3)
	b := chain(1, 2, 3)
	c := chain(1, 2, 4)
	if !a.Equal(b) || a.Fingerprint() != b.Fingerprint() {
		t.Error("identical graphs compared unequal")
	}
	if a.Equal(c) || a.Fingerprint() == c.Fingerprint() {
		t.Error("different graphs compared equal")
	}
	// Names must not affect architecture equality.
	d := chain(1, 2, 3)
	d.Vertices[1].Name = "renamed"
	if !a.Equal(d) {
		t.Error("Equal considered names")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := chain(1, 2, 3)
	c := a.Clone()
	c.Vertices[0].ConfigSig = 99
	c.Out[0] = append(c.Out[0], 2)
	if a.Vertices[0].ConfigSig == 99 || len(a.Out[0]) != 1 {
		t.Error("Clone shares storage with original")
	}
}

// --- LCP: paper Figure 2 scenario -----------------------------------------
//
// Grandparent: 1→2→3→4→5 (submodel A={3,4} already flattened).
// Parent:      1→2→3→4'→5' where 4',5' differ ⇒ LCP(parent,gp) = {1,2,3}.
// Child:       same as parent except layer 6 (here the last) differs
//              ⇒ LCP(child,parent) = {1,2,3,4,5}.

func TestLCPFigure2Chain(t *testing.T) {
	gp := chain(1, 2, 3, 4, 5)
	parent := chain(1, 2, 3, 40, 50, 60, 70)
	child := chain(1, 2, 3, 40, 50, 61, 70)

	if got := LCP(parent, gp); len(got) != 3 {
		t.Errorf("LCP(parent, grandparent) = %v, want {0,1,2}", got)
	}
	if got := LCP(child, parent); len(got) != 5 {
		t.Errorf("LCP(child, parent) = %v, want first 5", got)
	}
	// Even if a later layer matched again, the prefix must stop at the
	// first mismatch (prefix-closure): vertex 6 matches (70) but its
	// predecessor 5 does not (61 vs 60), so it stays excluded.
	got := LCP(child, parent)
	for _, v := range got {
		if v == 6 {
			t.Error("prefix included vertex past a mismatched predecessor")
		}
	}
}

func TestLCPIdentityCoversWholeGraph(t *testing.T) {
	g := diamond()
	got := LCP(g, g)
	if len(got) != g.NumVertices() {
		t.Errorf("LCP(g,g) = %d vertices, want %d", len(got), g.NumVertices())
	}
}

// diamond: 0→1, 0→2, 1→3, 2→3 — a fork-join as in branchy architectures.
func diamond() *Compact {
	b := NewBuilder(4)
	b.AddVertex(Vertex{ConfigSig: 10, ParamBytes: 1})
	b.AddVertex(Vertex{ConfigSig: 11, ParamBytes: 1})
	b.AddVertex(Vertex{ConfigSig: 12, ParamBytes: 1})
	b.AddVertex(Vertex{ConfigSig: 13, ParamBytes: 1})
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(1, 3)
	b.AddEdge(2, 3)
	return b.Build()
}

func TestLCPForkJoinRequiresAllInputs(t *testing.T) {
	g := diamond()
	// Ancestor identical except branch vertex 2 differs. The join vertex 3
	// matches architecturally but one of its inputs is outside the prefix,
	// so it must be excluded: prefix = {0, 1}.
	a := diamond()
	a.Vertices[2].ConfigSig = 99
	got := LCP(g, a)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("LCP = %v, want [0 1]", got)
	}
}

func TestLCPInDegreeMismatch(t *testing.T) {
	// Ancestor has an extra edge 0→3: the join vertex needs
	// max(in_G, in_A) = 3 visits but can only get 2 ⇒ excluded.
	g := diamond()
	b := NewBuilder(4)
	for _, v := range g.Vertices {
		b.AddVertex(v)
	}
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(1, 3)
	b.AddEdge(2, 3)
	b.AddEdge(0, 3)
	a := b.Build()
	got := LCP(g, a)
	if len(got) != 3 {
		t.Errorf("LCP = %v, want {0,1,2}", got)
	}
	for _, v := range got {
		if v == 3 {
			t.Error("join vertex included despite in-degree mismatch")
		}
	}
}

func TestLCPRootMismatch(t *testing.T) {
	g := chain(1, 2, 3)
	a := chain(9, 2, 3)
	if got := LCP(g, a); len(got) != 0 {
		t.Errorf("LCP with mismatched root = %v, want empty", got)
	}
}

func TestLCPEmptyAncestor(t *testing.T) {
	g := chain(1, 2)
	a := NewBuilder(0).Build()
	if got := LCP(g, a); len(got) != 0 {
		t.Errorf("LCP against empty graph = %v", got)
	}
}

func TestLCPAncestorShorter(t *testing.T) {
	g := chain(1, 2, 3, 4, 5)
	a := chain(1, 2, 3)
	if got := LCP(g, a); len(got) != 3 {
		t.Errorf("LCP = %v, want 3 vertices", got)
	}
}

func TestLCPQueryShorter(t *testing.T) {
	g := chain(1, 2)
	a := chain(1, 2, 3, 4)
	if got := LCP(g, a); len(got) != 2 {
		t.Errorf("LCP = %v, want 2 vertices", got)
	}
}

func TestScannerReuseMatchesOneShot(t *testing.T) {
	g := chain(1, 2, 3, 4)
	s := NewLCPScanner(g)
	ancestors := []*Compact{
		chain(1, 2, 3, 4),
		chain(1, 2, 9),
		chain(5),
		chain(1, 2, 3, 4, 5, 6),
	}
	for i, a := range ancestors {
		want := LCP(g, a)
		got := append([]VertexID(nil), s.Against(a)...)
		if len(got) != len(want) {
			t.Errorf("ancestor %d: scanner %v vs one-shot %v", i, got, want)
		}
		if s.SizeAgainst(a) != len(want) {
			t.Errorf("ancestor %d: SizeAgainst = %d, want %d", i, s.SizeAgainst(a), len(want))
		}
	}
}

func TestPrefixParamBytes(t *testing.T) {
	g := chain(1, 2, 3)
	if got := PrefixParamBytes(g, []VertexID{0, 2}); got != 20 {
		t.Errorf("PrefixParamBytes = %d, want 20", got)
	}
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	g := diamond()
	g.Vertices[1].Name = "block/conv"
	enc := g.Encode()
	back, n, err := Decode(enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if n != len(enc) {
		t.Fatalf("consumed %d of %d", n, len(enc))
	}
	if !g.Equal(back) {
		t.Error("architecture mismatch after roundtrip")
	}
	if back.Vertices[1].Name != "block/conv" {
		t.Error("name lost in roundtrip")
	}
	if back.Vertices[0].ParamBytes != 1 {
		t.Error("param bytes lost in roundtrip")
	}
	if err := back.Validate(); err != nil {
		t.Errorf("decoded graph invalid: %v", err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	enc := diamond().Encode()
	for cut := 0; cut < len(enc); cut += 3 {
		if _, _, err := Decode(enc[:cut]); err == nil {
			t.Fatalf("Decode accepted truncation at %d", cut)
		}
	}
	// A vertex count the payload cannot hold is rejected before it sizes
	// an allocation.
	binary.LittleEndian.PutUint32(enc[4:], 0xffffffff)
	if _, _, err := Decode(enc); err != io.ErrUnexpectedEOF {
		t.Fatalf("absurd vertex count: %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestDecodeBadMagic(t *testing.T) {
	enc := diamond().Encode()
	enc[0] ^= 0xff
	if _, _, err := Decode(enc); err == nil {
		t.Error("Decode accepted bad magic")
	}
}

// randomDAG builds a random layered DAG for property tests. Edges only go
// from lower to higher IDs so the result is acyclic by construction.
func randomDAG(r *rand.Rand, n int, sigRange uint64) *Compact {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddVertex(Vertex{ConfigSig: 1 + r.Uint64()%sigRange, ParamBytes: int64(r.Intn(100))})
	}
	for v := 1; v < n; v++ {
		// Every vertex gets at least one predecessor so there is one root.
		b.AddEdge(VertexID(r.Intn(v)), VertexID(v))
		if r.Intn(3) == 0 {
			b.AddEdge(VertexID(r.Intn(v)), VertexID(v))
		}
	}
	return b.Build()
}

// Property: the LCP is prefix-closed (all predecessors of a member are
// members) and every member has matching config in both graphs.
func TestQuickLCPPrefixClosed(t *testing.T) {
	f := func(seed int64, gn, an uint8) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomDAG(r, 2+int(gn%30), 4)
		a := randomDAG(r, 2+int(an%30), 4)
		prefix := LCP(g, a)
		in := make(map[VertexID]bool, len(prefix))
		for _, v := range prefix {
			in[v] = true
		}
		for _, v := range prefix {
			if g.Vertices[v].ConfigSig != a.Vertices[v].ConfigSig {
				return false
			}
			for _, u := range g.In[v] {
				if !in[u] {
					return false
				}
			}
			// Predecessors in the ancestor must also be prefix members.
			for _, u := range a.In[v] {
				if !in[u] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: LCP size never exceeds min(|V_g|, |V_a|), and LCP(g,g) = |V_g|.
func TestQuickLCPBounds(t *testing.T) {
	f := func(seed int64, gn uint8) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomDAG(r, 2+int(gn%40), 3)
		a := randomDAG(r, 2+int(gn%40), 3)
		n := LCPSize(g, a)
		min := g.NumVertices()
		if a.NumVertices() < min {
			min = a.NumVertices()
		}
		if n > min {
			return false
		}
		return LCPSize(g, g) == g.NumVertices()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: encode/decode roundtrip preserves architecture equality.
func TestQuickCodecRoundtrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomDAG(r, 1+int(n%50), 10)
		back, used, err := Decode(g.Encode())
		return err == nil && used == len(g.Encode()) && g.Equal(back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkLCPChain100(b *testing.B) {
	g := randomDAG(rand.New(rand.NewSource(1)), 100, 5)
	a := randomDAG(rand.New(rand.NewSource(2)), 100, 5)
	s := NewLCPScanner(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SizeAgainst(a)
	}
}

func BenchmarkLCPScannerCatalog(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	g := randomDAG(r, 60, 4)
	catalog := make([]*Compact, 256)
	for i := range catalog {
		catalog[i] = randomDAG(r, 60, 4)
	}
	s := NewLCPScanner(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		best := 0
		for _, a := range catalog {
			if n := s.SizeAgainst(a); n > best {
				best = n
			}
		}
	}
}

func TestWriteDOT(t *testing.T) {
	g := diamond()
	g.Vertices[1].Name = `block "a"\x`
	var sb strings.Builder
	if err := g.WriteDOT(&sb, "m", []VertexID{0, 1}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "digraph") || !strings.Contains(out, "n0 -> n1") {
		t.Errorf("DOT output malformed:\n%s", out)
	}
	if !strings.Contains(out, "fillcolor=lightblue") {
		t.Error("highlight missing")
	}
	if strings.Count(out, "fillcolor") != 2 {
		t.Errorf("want exactly 2 highlighted vertices:\n%s", out)
	}
	// Quotes in names must be escaped.
	if strings.Contains(out, `block "a"`) {
		t.Error("unescaped quote in DOT label")
	}
}

// namedDAG is randomDAG with a name on every vertex.
func namedDAG(seed int64, n int) *Compact {
	g := randomDAG(rand.New(rand.NewSource(seed)), n, 10)
	for i := range g.Vertices {
		g.Vertices[i].Name = strings.Repeat("layer/", 1+i%3) + string(rune('a'+i%26))
	}
	return g
}

// TestDecodeAllocsFixed pins Decode's allocation count: the same at 10 and
// at 200 vertices, names included, and the decoded graph re-encodes to
// the bytes it came from, EncodedSize of them.
func TestDecodeAllocsFixed(t *testing.T) {
	var counts []float64
	for _, n := range []int{10, 200} {
		g := namedDAG(int64(n), n)
		enc := g.Encode()
		if g.EncodedSize() != len(enc) {
			t.Fatalf("%d vertices: EncodedSize %d, encoding %d bytes", n, g.EncodedSize(), len(enc))
		}
		back, used, err := Decode(enc)
		if err != nil || used != len(enc) || string(back.Encode()) != string(enc) {
			t.Fatalf("%d vertices: roundtrip failed (%v, %d of %d bytes)", n, err, used, len(enc))
		}
		for i := range g.Vertices {
			if back.Vertices[i] != g.Vertices[i] {
				t.Fatalf("%d vertices: vertex %d decoded as %+v, want %+v", n, i, back.Vertices[i], g.Vertices[i])
			}
		}
		counts = append(counts, testing.AllocsPerRun(50, func() { Decode(enc) }))
	}
	if counts[0] != counts[1] || counts[0] > 7 {
		t.Fatalf("Decode allocates %v times at 10 vertices and %v at 200; want the same, at most 7", counts[0], counts[1])
	}
}
