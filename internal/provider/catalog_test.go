package provider

import (
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/kvstore"
	"repro/internal/ownermap"
)

// digestsEqual compares every field repair relies on, including the
// journal bookkeeping Converged() abstracts over: a reopened provider must
// be indistinguishable from the one that wrote the catalog.
func digestsEqual(t *testing.T, before, after *Provider, id ownermap.ModelID) {
	t.Helper()
	db, da := before.Digest(id), after.Digest(id)
	if db.Present != da.Present || db.Retired != da.Retired || db.Seq != da.Seq ||
		db.MetaHash != da.MetaHash || db.RefHash != da.RefHash ||
		db.SegHash != da.SegHash || db.LiveRefs != da.LiveRefs {
		t.Errorf("model %d: digest diverged across reopen:\n before %+v\n after  %+v", id, db, da)
	}
	if db.Journal != da.Journal || db.Trimmed != da.Trimmed {
		t.Errorf("model %d: journal bookkeeping diverged: before (%d, %v), after (%d, %v)",
			id, db.Journal, db.Trimmed, da.Journal, da.Trimmed)
	}
}

// catalogWorkload drives a representative mutation mix: from-scratch
// stores with ReqIDs (journaled), an IncRef, a partial DecRef that frees a
// segment, and a retire. It returns the surviving model IDs.
func catalogWorkload(t *testing.T, p *Provider) []ownermap.ModelID {
	t.Helper()
	g := chainGraph(1, 2, 3)
	for i := 1; i <= 4; i++ {
		req, segs := storeReq(ownermap.ModelID(i), uint64(i), 0.5, g)
		req.ReqID = uint64(100 + i)
		if err := p.StoreModel(req, segs); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.incRef(1, []graph.VertexID{0, 1}, 201); err != nil {
		t.Fatal(err)
	}
	if _, err := p.decRef(2, []graph.VertexID{2}, 202); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Retire(3); err != nil {
		t.Fatal(err)
	}
	return []ownermap.ModelID{1, 2, 3, 4}
}

func TestDurableCatalogReopenEquivalence(t *testing.T) {
	dir := t.TempDir()
	kv, err := kvstore.OpenLSM(dir, kvstore.LSMOptions{FlushBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewDurable(0, kv)
	if err != nil {
		t.Fatal(err)
	}
	ids := catalogWorkload(t, p)
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}

	kv2, err := kvstore.OpenLSM(dir, kvstore.LSMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer kv2.Close()
	p2, err := NewDurable(0, kv2)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		digestsEqual(t, p, p2, id)
	}
	// Semantic spot checks on top of the digest comparison.
	if meta, err := p2.GetMeta(1); err != nil || meta.Seq != 1 {
		t.Errorf("GetMeta(1) after reopen: %+v, %v", meta, err)
	}
	if got := p2.RefCount(1, 0); got != 2 {
		t.Errorf("RefCount(1, 0) after reopen = %d, want 2 (store +1, incRef +1)", got)
	}
	if _, _, err := p2.ReadSegments(1, []graph.VertexID{0, 2}); err != nil {
		t.Errorf("segments unreadable after reopen: %v", err)
	}
	if _, err := p2.Retire(3); err == nil {
		t.Error("retire of an already-retired model accepted after reopen: tombstone lost")
	}
	// The journaled ReqIDs must still dedup repair replays after reopen.
	if err := p2.incRef(1, []graph.VertexID{0, 1}, 201); err != nil {
		t.Fatal(err)
	}
	if got := p2.RefCount(1, 0); got != 2 {
		t.Errorf("replayed ReqID mutated refcount to %d: journal seen-set lost across reopen", got)
	}
}

// TestDurableCatalogSurvivesAbandonedStore is the kill -9 shape: the first
// store handle is never closed — its WAL buffer simply stops existing —
// and the directory is reopened cold. Because every catalog mutation ends
// in a WAL fsync, the acknowledged state must be complete anyway.
func TestDurableCatalogSurvivesAbandonedStore(t *testing.T) {
	dir := t.TempDir()
	kv, err := kvstore.OpenLSM(dir, kvstore.LSMOptions{FlushBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewDurable(0, kv)
	if err != nil {
		t.Fatal(err)
	}
	ids := catalogWorkload(t, p)
	// No Close: abandon kv mid-flight, as a killed process would.

	kv2, err := kvstore.OpenLSM(dir, kvstore.LSMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer kv2.Close()
	p2, err := NewDurable(0, kv2)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		digestsEqual(t, p, p2, id)
	}
}

// TestDurableCatalogEvictDrops: a migration eviction must remove every
// persisted record, or a later restart resurrects a model the placement
// table moved elsewhere.
func TestDurableCatalogEvictDrops(t *testing.T) {
	kv := kvstore.NewMemKV(4)
	p, err := NewDurable(0, kv)
	if err != nil {
		t.Fatal(err)
	}
	g := chainGraph(1, 2)
	req, segs := storeReq(1, 1, 0.5, g)
	req.ReqID = 11
	if err := p.StoreModel(req, segs); err != nil {
		t.Fatal(err)
	}
	// Model 1's home under a 4-member table is provider 1, so provider 0
	// may evict it once the guard is armed.
	p.SetPlacement(4, 1)
	if _, err := p.Evict(1); err != nil {
		t.Fatal(err)
	}

	p2, err := NewDurable(0, kv)
	if err != nil {
		t.Fatal(err)
	}
	if d := p2.Digest(1); d.Present || d.Retired || d.LiveRefs != 0 || d.Journal != 0 {
		t.Errorf("evicted model resurrected by catalog replay: %+v", d)
	}
	if st := p2.Stats(); st.Models != 0 || st.Segments != 0 {
		t.Errorf("evicted state leaked into reopen: %+v", st)
	}
}

// TestDurableCatalogReopenUnderLoad hammers one durable provider from many
// goroutines (meaningful under -race: the catalog write-through shares the
// provider lock) and then replays the catalog, requiring digest
// equivalence for every model that survived.
func TestDurableCatalogReopenUnderLoad(t *testing.T) {
	kv := kvstore.NewMemKV(16)
	p, err := NewDurable(0, kv)
	if err != nil {
		t.Fatal(err)
	}
	g := chainGraph(1, 2, 3)
	const workers = 8
	const perWorker = 12
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := ownermap.ModelID(w*perWorker + i + 1)
				req, segs := storeReq(id, uint64(id), 0.5, g)
				req.ReqID = uint64(10_000 + int(id))
				if err := p.StoreModel(req, segs); err != nil {
					t.Errorf("store %d: %v", id, err)
					return
				}
				switch i % 3 {
				case 0:
					if err := p.incRef(id, []graph.VertexID{0}, uint64(20_000+int(id))); err != nil {
						t.Errorf("incRef %d: %v", id, err)
					}
				case 1:
					if _, err := p.decRef(id, []graph.VertexID{1}, uint64(30_000+int(id))); err != nil {
						t.Errorf("decRef %d: %v", id, err)
					}
				case 2:
					if _, err := p.Retire(id); err != nil {
						t.Errorf("retire %d: %v", id, err)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	p2, err := NewDurable(0, kv)
	if err != nil {
		t.Fatal(err)
	}
	for id := ownermap.ModelID(1); id <= workers*perWorker; id++ {
		digestsEqual(t, p, p2, id)
	}
	if b, a := p.Stats(), p2.Stats(); b.Models != a.Models || b.Segments != a.Segments || b.LiveRefs != a.LiveRefs {
		t.Errorf("stats diverged across reopen: before %+v, after %+v", b, a)
	}
}

// TestDurableCatalogNilOnPlainProvider: a provider built with New has no
// catalog store, and every mutation path must tolerate that (the catalog
// helpers are no-ops).
func TestDurableCatalogNilOnPlainProvider(t *testing.T) {
	p := New(0, kvstore.NewMemKV(4))
	g := chainGraph(1, 2)
	req, segs := storeReq(1, 1, 0.5, g)
	if err := p.StoreModel(req, segs); err != nil {
		t.Fatal(err)
	}
	if err := p.IncRef(1, []graph.VertexID{0}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Retire(1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.DecRef(1, []graph.VertexID{0, 0, 1}); err != nil {
		t.Fatal(err)
	}
	// And nothing was persisted: the backing store holds only payloads
	// (all freed by now), no cat/ records.
	n := 0
	kvAny := p.kv
	if err := kvAny.Scan("cat/", func(string, []byte) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("plain provider persisted %d catalog records", n)
	}
}

func TestDurableCatalogJournalWindowPersists(t *testing.T) {
	// Push one owner's journal far past its persisted window start so the
	// incremental [lo, hi) reconciliation exercises deletions of old delta
	// keys, then verify replay agrees with memory.
	kv := kvstore.NewMemKV(4)
	p, err := NewDurable(0, kv)
	if err != nil {
		t.Fatal(err)
	}
	g := chainGraph(1, 2)
	req, segs := storeReq(1, 1, 0.5, g)
	req.ReqID = 1
	if err := p.StoreModel(req, segs); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := p.incRef(1, []graph.VertexID{0}, uint64(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	p2, err := NewDurable(0, kv)
	if err != nil {
		t.Fatal(err)
	}
	digestsEqual(t, p, p2, 1)
	if got := p2.RefCount(1, 0); got != 51 {
		t.Errorf("RefCount after replay = %d, want 51", got)
	}
	// Every journaled ReqID must dedup after replay.
	for i := 0; i < 50; i++ {
		if err := p2.incRef(1, []graph.VertexID{0}, uint64(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := p2.RefCount(1, 0); got != 51 {
		t.Errorf("RefCount after replaying seen ReqIDs = %d, want 51 (journal dedup lost)", got)
	}
	// The persisted delta keys must cover exactly the in-memory window —
	// no leaked garbage below the trim point.
	deltas := 0
	if err := kv.Scan(catJrnPrefix, func(string, []byte) bool { deltas++; return true }); err != nil {
		t.Fatal(err)
	}
	p.mu.RLock()
	want := len(p.journals[1].deltas)
	p.mu.RUnlock()
	if deltas != want {
		t.Errorf("persisted journal deltas = %d, want %d (in-memory window)", deltas, want)
	}
}

// parkedSyncKV is a durable backend whose Sync announces itself on entered
// and then waits for release.
type parkedSyncKV struct {
	kvstore.KV
	entered, release chan struct{}
}

func (k *parkedSyncKV) Sync() error {
	k.entered <- struct{}{}
	<-k.release
	return nil
}

// TestIncRefSyncsOutsideProviderLock: an IncRef waiting for the disk must not
// hold the provider-wide lock. With the fsync under the lock (the parent
// commit), the GetMeta below blocks until the Sync is released.
func TestIncRefSyncsOutsideProviderLock(t *testing.T) {
	kv := &parkedSyncKV{KV: kvstore.NewMemKV(4), entered: make(chan struct{}), release: make(chan struct{})}
	p, err := NewDurable(0, kv)
	if err != nil {
		t.Fatal(err)
	}
	req, segs := storeReq(1, 1, 0.5, chainGraph(1, 2, 3))
	stored := make(chan error, 1)
	go func() { stored <- p.StoreModel(req, segs) }()
	<-kv.entered
	kv.release <- struct{}{}
	if err := <-stored; err != nil {
		t.Fatal(err)
	}

	incDone := make(chan error, 1)
	go func() { incDone <- p.IncRef(1, []graph.VertexID{0, 1}) }()
	<-kv.entered // the IncRef is parked in Sync

	metaDone := make(chan error, 1)
	go func() {
		_, err := p.GetMeta(1)
		metaDone <- err
	}()
	select {
	case err := <-metaDone:
		if err != nil {
			t.Errorf("GetMeta beside a parked IncRef: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Error("GetMeta waited for an IncRef's Sync: the fsync runs under the provider lock")
	}
	kv.release <- struct{}{}
	if err := <-incDone; err != nil {
		t.Fatal(err)
	}
	if got := p.RefCount(1, 0); got != 2 {
		t.Errorf("RefCount(1, 0) = %d, want 2", got)
	}
}
