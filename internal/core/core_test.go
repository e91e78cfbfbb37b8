package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/kvstore"
	"repro/internal/model"
	"repro/internal/provider"
	"repro/internal/rpc"
)

func openRepo(t testing.TB, providers int) *Repository {
	t.Helper()
	r, err := Open(Options{Providers: providers})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// mlp builds a sequential model whose last layer width is a parameter, so
// related candidates share a long prefix.
func mlp(t testing.TB, depth, width, lastWidth int) *model.Flat {
	t.Helper()
	layers := make([]model.Layer, 0, depth)
	in := width
	for i := 0; i < depth-1; i++ {
		layers = append(layers, model.Dense{In: in, Out: width, Activation: "relu", UseBias: true})
		in = width
	}
	layers = append(layers, model.Dense{In: in, Out: lastWidth, Activation: "softmax", UseBias: true})
	f, err := model.Flatten(model.Sequential("mlp", width, layers...))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestStoreLoadRoundtrip(t *testing.T) {
	repo := openRepo(t, 3)
	ctx := context.Background()
	f := mlp(t, 4, 16, 8)
	ws := model.Materialize(f, 42)

	id, err := repo.Store(ctx, f, ws, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	meta, got, err := repo.Load(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Model != id || meta.Quality != 0.9 {
		t.Errorf("meta = %+v", meta)
	}
	if !f.Graph.Equal(meta.Graph) {
		t.Error("architecture lost in roundtrip")
	}
	if !ws.Equal(got) {
		t.Error("weights mismatch after load")
	}
	// From-scratch model owns everything.
	if lin := meta.OwnerMap.Lineage(); len(lin) != 1 || lin[0] != id {
		t.Errorf("lineage = %v", lin)
	}
}

func TestBestAncestorOnEmptyRepo(t *testing.T) {
	repo := openRepo(t, 2)
	f := mlp(t, 3, 8, 4)
	_, found, err := repo.BestAncestor(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Error("found ancestor in empty repository")
	}
}

func TestDeriveTransferAndLoad(t *testing.T) {
	repo := openRepo(t, 4)
	ctx := context.Background()

	// Root model.
	fRoot := mlp(t, 5, 16, 8)
	wsRoot := model.Materialize(fRoot, 1)
	rootID, err := repo.Store(ctx, fRoot, wsRoot, 0.7)
	if err != nil {
		t.Fatal(err)
	}

	// Derived candidate: same prefix, different last layer.
	fChild := mlp(t, 5, 16, 12)
	anc, found, err := repo.BestAncestor(ctx, fChild)
	if err != nil || !found {
		t.Fatalf("BestAncestor: found=%v err=%v", found, err)
	}
	if anc.Meta.Model != rootID {
		t.Fatalf("ancestor = %d, want %d", anc.Meta.Model, rootID)
	}
	// Prefix: input + 4 hidden dense layers (the last differs) = 5 vertices.
	if len(anc.Prefix) != 5 {
		t.Fatalf("prefix = %v", anc.Prefix)
	}

	wsChild := model.Materialize(fChild, 2)
	if err := repo.TransferPrefix(ctx, fChild, wsChild, anc); err != nil {
		t.Fatal(err)
	}
	// Transferred vertices must now equal the root's weights.
	for _, v := range anc.Prefix {
		if !wsChild.VertexEqual(wsRoot, v) {
			t.Errorf("vertex %d not transferred", v)
		}
	}

	// "Train" only the non-frozen tail.
	last := graph.VertexID(fChild.Graph.NumVertices() - 1)
	wsChild.PerturbVertex(last, 99)

	childID, err := repo.StoreDerived(ctx, fChild, wsChild, 0.8, anc, nil)
	if err != nil {
		t.Fatal(err)
	}

	// The child's owner map must attribute the prefix to the root.
	meta, got, err := repo.Load(ctx, childID)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range anc.Prefix {
		e, _ := meta.OwnerMap.OwnerOf(v)
		if e.Owner != rootID {
			t.Errorf("vertex %d owner = %d, want root %d", v, e.Owner, rootID)
		}
	}
	if !got.Equal(wsChild) {
		t.Error("derived model weights mismatch after load")
	}
	if lin, _ := repo.Lineage(ctx, childID); len(lin) != 2 || lin[0] != rootID || lin[1] != childID {
		t.Errorf("lineage = %v", lin)
	}
}

func TestAutoDiffDetectsTrainedVertices(t *testing.T) {
	repo := openRepo(t, 2)
	ctx := context.Background()
	f := mlp(t, 4, 8, 4)
	rootID, err := repo.Store(ctx, f, model.Materialize(f, 1), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	_ = rootID

	// Identical architecture: whole graph is the prefix.
	anc, found, err := repo.BestAncestor(ctx, f)
	if err != nil || !found {
		t.Fatal("ancestor not found")
	}
	if len(anc.Prefix) != f.Graph.NumVertices() {
		t.Fatalf("prefix = %d vertices, want all %d", len(anc.Prefix), f.Graph.NumVertices())
	}
	ws := model.Materialize(f, 2)
	if err := repo.TransferPrefix(ctx, f, ws, anc); err != nil {
		t.Fatal(err)
	}
	// Train vertices 2 and 3 only.
	ws.PerturbVertex(2, 7)
	ws.PerturbVertex(3, 8)
	childID, err := repo.StoreDerived(ctx, f, ws, 0.6, anc, nil)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := repo.GetMeta(ctx, childID)
	if err != nil {
		t.Fatal(err)
	}
	// Vertices 0,1 inherited; 2,3 owned by the child.
	for v := 0; v < meta.OwnerMap.Len(); v++ {
		e, _ := meta.OwnerMap.OwnerOf(graph.VertexID(v))
		wantChild := v == 2 || v == 3
		if (e.Owner == childID) != wantChild {
			t.Errorf("vertex %d owner = %d (child=%d)", v, e.Owner, childID)
		}
	}
}

func TestStoreDerivedRejectsFrozenOutsidePrefix(t *testing.T) {
	repo := openRepo(t, 2)
	ctx := context.Background()
	f := mlp(t, 4, 8, 4)
	if _, err := repo.Store(ctx, f, model.Materialize(f, 1), 0.5); err != nil {
		t.Fatal(err)
	}
	f2 := mlp(t, 4, 8, 6)
	anc, _, err := repo.BestAncestor(ctx, f2)
	if err != nil {
		t.Fatal(err)
	}
	ws := model.Materialize(f2, 2)
	last := graph.VertexID(f2.Graph.NumVertices() - 1) // differs → outside prefix
	if _, err := repo.StoreDerived(ctx, f2, ws, 0.1, anc, []graph.VertexID{last}); err == nil {
		t.Error("accepted frozen vertex outside the prefix")
	}
}

// TestFigure2EndToEnd walks the grandparent→parent→child chain of Figure 2
// through the whole stack and checks dedup accounting: 13 unique stored
// layers instead of 21.
func TestFigure2EndToEnd(t *testing.T) {
	repo := openRepo(t, 4)
	ctx := context.Background()

	gpF := mlp(t, 7, 8, 4) // 8 vertices: input + 7 dense
	gpWS := model.Materialize(gpF, 1)
	gpID, err := repo.Store(ctx, gpF, gpWS, 0.5)
	if err != nil {
		t.Fatal(err)
	}

	derive := func(f *model.Flat, seed uint64, q float64, train []graph.VertexID) (ModelID, *Ancestor) {
		anc, found, err := repo.BestAncestor(ctx, f)
		if err != nil || !found {
			t.Fatalf("ancestor: %v found=%v", err, found)
		}
		ws := model.Materialize(f, seed)
		if err := repo.TransferPrefix(ctx, f, ws, anc); err != nil {
			t.Fatal(err)
		}
		for _, v := range train {
			ws.PerturbVertex(v, seed)
		}
		id, err := repo.StoreDerived(ctx, f, ws, q, anc, nil)
		if err != nil {
			t.Fatal(err)
		}
		return id, anc
	}

	// Parent: differs from grandparent in the 4th dense layer onward.
	parF := mlp(t, 7, 8, 4)
	// Mutate: rebuild with a different mid layer by perturbing after transfer:
	// simpler: parent same arch, trains last 4 vertices.
	parID, parAnc := derive(parF, 2, 0.6, []graph.VertexID{4, 5, 6, 7})
	if parAnc.Meta.Model != gpID {
		t.Fatalf("parent's ancestor = %d", parAnc.Meta.Model)
	}

	// Child derives from parent (higher quality wins ties): trains last 2.
	childF := mlp(t, 7, 8, 4)
	childID, childAnc := derive(childF, 3, 0.7, []graph.VertexID{6, 7})
	if childAnc.Meta.Model != parID {
		t.Fatalf("child's ancestor = %d, want parent %d", childAnc.Meta.Model, parID)
	}

	// Owner map of child: {0..3} grandparent, {4,5} parent, {6,7} child.
	meta, err := repo.GetMeta(ctx, childID)
	if err != nil {
		t.Fatal(err)
	}
	for v, want := range []ModelID{gpID, gpID, gpID, gpID, parID, parID, childID, childID} {
		e, _ := meta.OwnerMap.OwnerOf(graph.VertexID(v))
		if e.Owner != want {
			t.Errorf("child vertex %d owner = %d, want %d", v, e.Owner, want)
		}
	}

	// Storage: 8 (gp) + 4 (parent) + 2 (child) = 14 segments, not 24.
	st, err := repo.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Segments != 14 {
		t.Errorf("segments = %d, want 14", st.Segments)
	}
	if st.Models != 3 {
		t.Errorf("models = %d", st.Models)
	}

	// Provenance: MRCA of parent and child is the grandparent? No —
	// child inherits parent-owned vertices, so MRCA(parent,child)=parent.
	mrca, ok, err := repo.CommonAncestor(ctx, parID, childID)
	if err != nil || !ok || mrca != parID {
		t.Errorf("MRCA = %d ok=%v err=%v, want %d", mrca, ok, err, parID)
	}
	// OwnerOf: vertex 4 of the child belongs to the parent.
	owner, err := repo.OwnerOf(ctx, childID, 4)
	if err != nil || owner != parID {
		t.Errorf("OwnerOf(child, 4) = %d, want %d", owner, parID)
	}
}

func TestRetireKeepsSharedTensorsAlive(t *testing.T) {
	repo := openRepo(t, 4)
	ctx := context.Background()

	f := mlp(t, 4, 8, 4)
	rootID, err := repo.Store(ctx, f, model.Materialize(f, 1), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	anc, _, err := repo.BestAncestor(ctx, f)
	if err != nil {
		t.Fatal(err)
	}
	ws := model.Materialize(f, 2)
	if err := repo.TransferPrefix(ctx, f, ws, anc); err != nil {
		t.Fatal(err)
	}
	last := graph.VertexID(f.Graph.NumVertices() - 1)
	ws.PerturbVertex(last, 9)
	childID, err := repo.StoreDerived(ctx, f, ws, 0.6, anc, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Retire the root: only its unshared tensors may be freed; everything
	// the child inherits must survive. The child perturbed exactly the last
	// vertex, so the root's copy of that vertex is unshared — one segment
	// may (and must) be freed, no more.
	freedRoot, err := repo.Retire(ctx, rootID)
	if err != nil {
		t.Fatal(err)
	}
	if freedRoot != 1 {
		t.Errorf("retiring root freed %d segments, want exactly the 1 unshared one", freedRoot)
	}
	// The root's metadata is gone...
	if _, err := repo.GetMeta(ctx, rootID); err == nil {
		t.Error("retired model still has metadata")
	}
	// ...but the child still loads completely.
	_, got, err := repo.Load(ctx, childID)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(ws) {
		t.Error("child corrupted by root retirement")
	}

	// Retiring the child frees everything (root segments reach zero too).
	freedChild, err := repo.Retire(ctx, childID)
	if err != nil {
		t.Fatal(err)
	}
	wantFreed := uint64(f.Graph.NumVertices() + 1) // root's n-1 shared + own tensors... compute below
	_ = wantFreed
	st, err := repo.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Segments != 0 || st.SegmentBytes != 0 || st.Models != 0 {
		t.Errorf("repository not empty after all retirements: %+v (freedChild=%d)", st, freedChild)
	}
}

func TestRetireTwiceFails(t *testing.T) {
	repo := openRepo(t, 2)
	ctx := context.Background()
	f := mlp(t, 3, 8, 4)
	id, err := repo.Store(ctx, f, model.Materialize(f, 1), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repo.Retire(ctx, id); err != nil {
		t.Fatal(err)
	}
	if _, err := repo.Retire(ctx, id); err == nil {
		t.Error("double retire succeeded")
	}
}

func TestLoadUnknownModelFails(t *testing.T) {
	repo := openRepo(t, 2)
	if _, _, err := repo.Load(context.Background(), 12345); err == nil {
		t.Error("loading unknown model succeeded")
	}
}

func TestQualityTieBreakInLCP(t *testing.T) {
	repo := openRepo(t, 3)
	ctx := context.Background()
	f := mlp(t, 4, 8, 4)
	// Two identical-architecture models with different quality.
	if _, err := repo.Store(ctx, f, model.Materialize(f, 1), 0.3); err != nil {
		t.Fatal(err)
	}
	id2, err := repo.Store(ctx, f, model.Materialize(f, 2), 0.9)
	if err != nil {
		t.Fatal(err)
	}
	anc, found, err := repo.BestAncestor(ctx, f)
	if err != nil || !found {
		t.Fatal(err)
	}
	if anc.Meta.Model != id2 {
		t.Errorf("best ancestor = %d (q=%v), want higher-quality %d", anc.Meta.Model, anc.Meta.Quality, id2)
	}
}

func TestConcurrentWorkers(t *testing.T) {
	repo := openRepo(t, 4)
	ctx := context.Background()

	// Seed a root per worker-family.
	fRoot := mlp(t, 5, 16, 8)
	if _, err := repo.Store(ctx, fRoot, model.Materialize(fRoot, 0), 0.5); err != nil {
		t.Fatal(err)
	}

	const workers = 8
	const rounds = 5
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < rounds; i++ {
				f := mlp(t, 5, 16, 8+r.Intn(8))
				ws := model.Materialize(f, uint64(w*1000+i))
				anc, found, err := repo.BestAncestor(ctx, f)
				if err != nil {
					errCh <- fmt.Errorf("w%d: query: %w", w, err)
					return
				}
				var id ModelID
				if found {
					if err := repo.TransferPrefix(ctx, f, ws, anc); err != nil {
						errCh <- fmt.Errorf("w%d: transfer: %w", w, err)
						return
					}
					last := graph.VertexID(f.Graph.NumVertices() - 1)
					ws.PerturbVertex(last, uint64(i))
					id, err = repo.StoreDerived(ctx, f, ws, r.Float64(), anc, nil)
				} else {
					id, err = repo.Store(ctx, f, ws, r.Float64())
				}
				if err != nil {
					errCh <- fmt.Errorf("w%d: store: %w", w, err)
					return
				}
				// Loading what we stored must round-trip.
				if _, got, err := repo.Load(ctx, id); err != nil || !got.Equal(ws) {
					errCh <- fmt.Errorf("w%d: load mismatch (err=%v)", w, err)
					return
				}
			}
			errCh <- nil
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestGCInvariantRandomLineage drives a random store/derive/retire workload
// and checks the central GC invariant at the end: after retiring every
// model, no segments (and no bytes) remain anywhere.
func TestGCInvariantRandomLineage(t *testing.T) {
	repo := openRepo(t, 5)
	ctx := context.Background()
	r := rand.New(rand.NewSource(7))

	live := make(map[ModelID]model.WeightSet)
	var liveIDs []ModelID

	for step := 0; step < 60; step++ {
		switch {
		case len(liveIDs) == 0 || r.Intn(4) == 0: // new root
			f := mlp(t, 3+r.Intn(4), 8, 4+r.Intn(8))
			ws := model.Materialize(f, r.Uint64())
			id, err := repo.Store(ctx, f, ws, r.Float64())
			if err != nil {
				t.Fatal(err)
			}
			live[id] = ws
			liveIDs = append(liveIDs, id)
		case r.Intn(3) == 0 && len(liveIDs) > 0: // retire random live model
			i := r.Intn(len(liveIDs))
			id := liveIDs[i]
			if _, err := repo.Retire(ctx, id); err != nil {
				t.Fatal(err)
			}
			delete(live, id)
			liveIDs = append(liveIDs[:i], liveIDs[i+1:]...)
		default: // derive from whatever LCP finds
			f := mlp(t, 3+r.Intn(4), 8, 4+r.Intn(8))
			ws := model.Materialize(f, r.Uint64())
			anc, found, err := repo.BestAncestor(ctx, f)
			if err != nil {
				t.Fatal(err)
			}
			var id ModelID
			if found {
				if err := repo.TransferPrefix(ctx, f, ws, anc); err != nil {
					t.Fatal(err)
				}
				ws.PerturbVertex(graph.VertexID(f.Graph.NumVertices()-1), r.Uint64())
				id, err = repo.StoreDerived(ctx, f, ws, r.Float64(), anc, nil)
			} else {
				id, err = repo.Store(ctx, f, ws, r.Float64())
			}
			if err != nil {
				t.Fatal(err)
			}
			live[id] = ws
			liveIDs = append(liveIDs, id)
		}

		// Every live model must load byte-identically at every step.
		if step%10 == 9 {
			for id, want := range live {
				_, got, err := repo.Load(ctx, id)
				if err != nil {
					t.Fatalf("step %d: load %d: %v", step, id, err)
				}
				if !got.Equal(want) {
					t.Fatalf("step %d: model %d corrupted", step, id)
				}
			}
		}
	}

	// Drain: retire everything; the repository must end empty.
	for _, id := range liveIDs {
		if _, err := repo.Retire(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	st, err := repo.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Models != 0 || st.Segments != 0 || st.SegmentBytes != 0 || st.LiveRefs != 0 {
		t.Errorf("leak after full drain: %+v", st)
	}
}

func TestLSMBackedRepository(t *testing.T) {
	dir := t.TempDir()
	repo, err := Open(Options{
		Providers: 2,
		Backend: func(i int) kvstore.KV {
			kv, err := kvstore.OpenLSM(fmt.Sprintf("%s/p%d", dir, i), kvstore.LSMOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return kv
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	ctx := context.Background()
	f := mlp(t, 4, 16, 8)
	ws := model.Materialize(f, 3)
	id, err := repo.Store(ctx, f, ws, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := repo.Load(ctx, id)
	if err != nil || !got.Equal(ws) {
		t.Errorf("LSM-backed roundtrip failed: %v", err)
	}
}

func TestBestAncestorRecentPrefersNewest(t *testing.T) {
	repo := openRepo(t, 3)
	ctx := context.Background()
	f := mlp(t, 4, 8, 4)
	// Older model has higher quality; recency selection must still pick
	// the newer one on an LCP tie (quality selection picks the older).
	oldID, err := repo.Store(ctx, f, model.Materialize(f, 1), 0.99)
	if err != nil {
		t.Fatal(err)
	}
	newID, err := repo.Store(ctx, f, model.Materialize(f, 2), 0.10)
	if err != nil {
		t.Fatal(err)
	}
	byQuality, found, err := repo.BestAncestor(ctx, f)
	if err != nil || !found || byQuality.Meta.Model != oldID {
		t.Errorf("quality selection picked %v (found=%v err=%v), want %d",
			byQuality.Meta.Model, found, err, oldID)
	}
	byRecency, found, err := repo.BestAncestorRecent(ctx, f)
	if err != nil || !found || byRecency.Meta.Model != newID {
		t.Errorf("recency selection picked %v (found=%v err=%v), want %d",
			byRecency.Meta.Model, found, err, newID)
	}
	// A longer prefix still dominates recency: store an older model with a
	// longer matching architecture and query with that architecture.
	f2 := mlp(t, 6, 8, 4)
	longID, err := repo.Store(ctx, f2, model.Materialize(f2, 3), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Newer short model:
	if _, err := repo.Store(ctx, f, model.Materialize(f, 4), 0.5); err != nil {
		t.Fatal(err)
	}
	res, found, err := repo.BestAncestorRecent(ctx, f2)
	if err != nil || !found || res.Meta.Model != longID {
		t.Errorf("recency beat prefix length: picked %v, want %d", res.Meta.Model, longID)
	}
}

// TestConcurrentDeriveVsRetire races workers deriving from the catalog
// against a reaper retiring models. The repository must never corrupt a
// stored model: every successfully stored model loads byte-identically,
// and the final drain leaves zero segments.
func TestConcurrentDeriveVsRetire(t *testing.T) {
	repo := openRepo(t, 4)
	ctx := context.Background()
	f := mlp(t, 5, 8, 4)

	// Seed some roots.
	var mu sync.Mutex
	live := make(map[ModelID]model.WeightSet)
	for i := 0; i < 4; i++ {
		ws := model.Materialize(f, uint64(i))
		id, err := repo.Store(ctx, f, ws, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		live[id] = ws
	}

	var derivers, reaper sync.WaitGroup
	errCh := make(chan error, 12)
	stop := make(chan struct{})

	// Derivers.
	for w := 0; w < 6; w++ {
		derivers.Add(1)
		go func(w int) {
			defer derivers.Done()
			for i := 0; i < 25; i++ {
				var exclude []ModelID
				ok := false
				for attempt := 0; attempt < 8 && !ok; attempt++ {
					ws := model.Materialize(f, uint64(w*1000+i))
					anc, found, err := repo.BestAncestorExcluding(ctx, f, exclude)
					if err != nil {
						errCh <- err
						return
					}
					if !found {
						id, err := repo.Store(ctx, f, ws, 0.5)
						if err != nil {
							errCh <- err
							return
						}
						mu.Lock()
						live[id] = ws
						mu.Unlock()
						break
					}
					if err := repo.TransferPrefix(ctx, f, ws, anc); err != nil {
						exclude = append(exclude, anc.Meta.Model)
						continue // raced a retirement; retry
					}
					ws.PerturbVertex(graph.VertexID(f.Graph.NumVertices()-1), uint64(i))
					id, err := repo.StoreDerived(ctx, f, ws, 0.5, anc, nil)
					if err != nil {
						exclude = append(exclude, anc.Meta.Model)
						continue
					}
					mu.Lock()
					live[id] = ws
					mu.Unlock()
					ok = true
				}
			}
		}(w)
	}

	// Reaper: retires random live models while derivers run.
	reaper.Add(1)
	go func() {
		defer reaper.Done()
		r := rand.New(rand.NewSource(99))
		for {
			select {
			case <-stop:
				return
			default:
			}
			mu.Lock()
			var ids []ModelID
			for id := range live {
				ids = append(ids, id)
			}
			if len(ids) > 3 {
				victim := ids[r.Intn(len(ids))]
				delete(live, victim)
				mu.Unlock()
				if _, err := repo.Retire(ctx, victim); err != nil {
					errCh <- fmt.Errorf("retire %d: %w", victim, err)
					return
				}
				continue
			}
			mu.Unlock()
		}
	}()

	// Let the reaper race the derivers for their whole run, then stop it.
	derivers.Wait()
	close(stop)
	reaper.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Every live model must load byte-identically.
	mu.Lock()
	defer mu.Unlock()
	for id, want := range live {
		_, got, err := repo.Load(ctx, id)
		if err != nil {
			t.Fatalf("load %d: %v", id, err)
		}
		if !got.Equal(want) {
			t.Fatalf("model %d corrupted under concurrency", id)
		}
	}
	// Drain and verify no leaks.
	for id := range live {
		if _, err := repo.Retire(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	st, err := repo.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Segments != 0 || st.LiveRefs != 0 {
		t.Errorf("leak after drain: %+v", st)
	}
}

// TestAttachOverTCP drives the full transfer-learning loop against
// providers on real TCP listeners — the cmd/evostore-server deployment
// shape.
func TestAttachOverTCP(t *testing.T) {
	const providers = 3
	conns := make([]rpc.Conn, providers)
	for i := 0; i < providers; i++ {
		p := provider.New(i, kvstore.NewMemKV(8))
		srv := rpc.NewServer()
		p.Register(srv)
		lis, addr, err := rpc.ListenAndServeTCP("127.0.0.1:0", srv)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { lis.Close() })
		pool := rpc.NewPool(addr, 4, rpc.DialTCP)
		t.Cleanup(func() { pool.Close() })
		conns[i] = pool
	}
	repo := Attach(conns)
	ctx := context.Background()

	f := mlp(t, 5, 16, 8)
	ws := model.Materialize(f, 1)
	rootID, err := repo.Store(ctx, f, ws, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	f2 := mlp(t, 5, 16, 12)
	anc, found, err := repo.BestAncestor(ctx, f2)
	if err != nil || !found || anc.Meta.Model != rootID {
		t.Fatalf("ancestor over TCP: %v found=%v", err, found)
	}
	ws2 := model.Materialize(f2, 2)
	if err := repo.TransferPrefix(ctx, f2, ws2, anc); err != nil {
		t.Fatal(err)
	}
	ws2.PerturbVertex(graph.VertexID(f2.Graph.NumVertices()-1), 9)
	childID, err := repo.StoreDerived(ctx, f2, ws2, 0.8, anc, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := repo.Load(ctx, childID)
	if err != nil || !got.Equal(ws2) {
		t.Fatalf("TCP roundtrip failed: %v", err)
	}
	if lin, _ := repo.Lineage(ctx, childID); len(lin) != 2 {
		t.Errorf("lineage over TCP = %v", lin)
	}
	if _, err := repo.Retire(ctx, rootID); err != nil {
		t.Fatal(err)
	}
	if _, got, err := repo.Load(ctx, childID); err != nil || !got.Equal(ws2) {
		t.Fatalf("child lost after TCP retirement: %v", err)
	}
}

// slowPutKV stretches every Put, and with it the time a provider spends
// between publishing a model's catalog entry and finishing its payloads.
type slowPutKV struct{ kvstore.KV }

func (s slowPutKV) Put(key string, value []byte) error {
	time.Sleep(200 * time.Microsecond)
	return s.KV.Put(key, value)
}

// Two workers fine-tune one shared lineage, each always deriving from the
// newest model — so each is regularly handed the model the other is still
// storing. Every transfer must succeed: a provider does not answer an LCP
// query with a model whose segments it cannot serve yet, and at R > 1 a
// replica that is still writing them sends the reader to one that is done.
func TestSharedLineageConcurrentDerive(t *testing.T) {
	for _, replicas := range []int{1, 3} {
		t.Run(fmt.Sprintf("R=%d", replicas), func(t *testing.T) {
			repo, err := Open(Options{
				Providers: 4,
				Replicas:  replicas,
				Backend:   func(int) kvstore.KV { return slowPutKV{kvstore.NewMemKV(16)} },
			})
			if err != nil {
				t.Fatal(err)
			}
			defer repo.Close()
			ctx := context.Background()
			f := mlp(t, 6, 16, 8)
			if _, err := repo.Store(ctx, f, model.Materialize(f, 0), 0.5); err != nil {
				t.Fatal(err)
			}

			const workers, rounds = 2, 40
			errs := make(chan error, workers)
			for w := 0; w < workers; w++ {
				go func(w int) {
					for i := 0; i < rounds; i++ {
						anc, found, err := repo.BestAncestorRecent(ctx, f)
						if err != nil || !found {
							errs <- fmt.Errorf("w%d round %d: query: found=%v err=%v", w, i, found, err)
							return
						}
						ws := model.Materialize(f, uint64(w*rounds+i+1))
						if err := repo.TransferPrefix(ctx, f, ws, anc); err != nil {
							errs <- fmt.Errorf("w%d round %d: %w", w, i, err)
							return
						}
						ws.PerturbVertex(graph.VertexID(f.Graph.NumVertices()-1), uint64(i))
						if _, err := repo.StoreDerived(ctx, f, ws, 0.5, anc, nil); err != nil {
							errs <- fmt.Errorf("w%d round %d: store: %w", w, i, err)
							return
						}
					}
					errs <- nil
				}(w)
			}
			for w := 0; w < workers; w++ {
				if err := <-errs; err != nil {
					t.Error(err)
				}
			}
		})
	}
}
