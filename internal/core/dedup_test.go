package core

import (
	"context"
	"testing"

	"repro/internal/model"
)

func openDedupRepo(t testing.TB, opts Options) *Repository {
	t.Helper()
	r, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// nudge flips two bytes at the start of every tensor of up to n parameter
// vertices — a change confined to each tensor's first chunk — and returns
// how many vertices changed.
func nudge(ws model.WeightSet, n int) int {
	changed := 0
	for v := range ws {
		if len(ws[v]) == 0 || changed == n {
			continue
		}
		for _, tns := range ws[v] {
			if len(tns.Data) >= 16 {
				tns.Data[0] ^= 0x7f
				tns.Data[8] ^= 0x33
			}
		}
		changed++
	}
	return changed
}

// derive fine-tunes the latest stored model of architecture f: transfer
// the prefix, nudge touch vertices, store derived with automatic diff.
func derive(t *testing.T, repo *Repository, f *model.Flat, touch int) (ModelID, model.WeightSet) {
	t.Helper()
	ctx := context.Background()
	anc, found, err := repo.BestAncestorRecent(ctx, f)
	if err != nil || !found {
		t.Fatalf("BestAncestorRecent: found=%v err=%v", found, err)
	}
	ws := model.Materialize(f, 0) // placeholder; the prefix overwrites it
	if err := repo.TransferPrefix(ctx, f, ws, anc); err != nil {
		t.Fatal(err)
	}
	if got := nudge(ws, touch); got != touch {
		t.Fatalf("nudged %d vertices, want %d", got, touch)
	}
	id, err := repo.StoreDerived(ctx, f, ws, 0.9, anc, nil)
	if err != nil {
		t.Fatal(err)
	}
	return id, ws.Clone()
}

// dedupMLP has 256 KiB weight tensors: each stored segment spans several
// 64 KiB chunks, so a derived segment that changed only its first chunk
// shares the rest with its ancestor's. Chunks are shared within one
// provider's store, so the tests below run a single provider.
func dedupMLP(t *testing.T) *model.Flat { return mlp(t, 4, 256, 16) }

// A dedup deployment must be invisible to readers: a derived model loads
// back bit-identical, and the chunks its modified tensors share with the
// ancestor's are stored once, so the lineage takes fewer bytes than raw.
func TestDedupDerivedLoadRoundtrip(t *testing.T) {
	ctx := context.Background()
	f := dedupMLP(t)
	base := model.Materialize(f, 1)

	run := func(t *testing.T, opts Options) uint64 {
		repo := openDedupRepo(t, opts)
		baseID, err := repo.Store(ctx, f, base.Clone(), 0.8)
		if err != nil {
			t.Fatal(err)
		}
		childID, want := derive(t, repo, f, 2)
		for id, wantWS := range map[ModelID]model.WeightSet{baseID: base, childID: want} {
			_, got, err := repo.Load(ctx, id)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(wantWS) {
				t.Fatalf("model %d restored with wrong weights", id)
			}
		}
		st, err := repo.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return st.SegmentBytes
	}
	rawBytes := run(t, Options{Providers: 1})
	dedupBytes := run(t, Options{Providers: 1, Dedup: true})
	if dedupBytes >= rawBytes {
		t.Fatalf("dedup stored %d bytes, raw %d — no chunk was shared", dedupBytes, rawBytes)
	}
}

// Retiring an ancestor before its derived child frees the ancestor's
// modified segments but not the chunks the child's segments share with
// them; retiring the child then drains every chunk.
func TestDedupRetireAncestorFirst(t *testing.T) {
	ctx := context.Background()
	repo := openDedupRepo(t, Options{Providers: 1, Dedup: true})
	f := dedupMLP(t)
	base := model.Materialize(f, 1)
	baseID, err := repo.Store(ctx, f, base.Clone(), 0.8)
	if err != nil {
		t.Fatal(err)
	}
	childID, want := derive(t, repo, f, 2)

	if _, err := repo.Retire(ctx, baseID); err != nil {
		t.Fatal(err)
	}
	// The child's inherited tensors are pinned and its shared chunks still
	// referenced: still loadable, bit-identical.
	_, got, err := repo.Load(ctx, childID)
	if err != nil {
		t.Fatalf("child unloadable after ancestor retire: %v", err)
	}
	if !got.Equal(want) {
		t.Fatal("child restored with wrong weights after ancestor retire")
	}
	st, err := repo.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.SegmentBytes == 0 {
		t.Fatal("pinned ancestor segments were freed early")
	}
	// Retiring the child releases the last references, draining the stores
	// completely.
	if _, err := repo.Retire(ctx, childID); err != nil {
		t.Fatal(err)
	}
	if st, err = repo.Stats(ctx); err != nil {
		t.Fatal(err)
	}
	if st.SegmentBytes != 0 {
		t.Fatalf("%d segment bytes stranded after retiring the whole lineage", st.SegmentBytes)
	}
}
