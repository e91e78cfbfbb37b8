package provider

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dedup"
	"repro/internal/graph"
	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/ownermap"
	"repro/internal/placement"
	"repro/internal/proto"
	"repro/internal/rpc"
	"repro/internal/wire"
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
func catalogWorkload(t testing.TB, p *Provider) []ownermap.ModelID {
	t.Helper()
	g := chainGraph(1, 2, 3)
	for i := 1; i <= 4; i++ {
		req, segs := storeReq(ownermap.ModelID(i), uint64(i), 0.5, g)
		req.ReqID = uint64(100 + i)
		if err := p.StoreModel(req, segs); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.refDelta(one(1, 0, 1), 201, false); err != nil {
		t.Fatal(err)
	}
	if _, err := p.refDelta(one(2, 2), 202, true); err != nil {
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
	// Models 1, 2 and 4 tie on prefix and quality; the lowest ID wins.
	if res := p2.LCPQuery(&proto.LCPQueryReq{Graph: chainGraph(1, 2, 3)}); !res.Found() || res.Meta.Model != 1 {
		t.Errorf("LCP query after reopen: %+v, want model 1", res)
	}
	if _, _, err := p2.ReadSegments(1, []graph.VertexID{0, 2}); err != nil {
		t.Errorf("segments unreadable after reopen: %v", err)
	}
	if _, err := p2.Retire(3); err == nil {
		t.Error("retire of an already-retired model accepted after reopen: tombstone lost")
	}
	// The journaled ReqIDs must still dedup repair replays after reopen.
	if _, err := p2.refDelta(one(1, 0, 1), 201, false); err != nil {
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
					if _, err := p.refDelta(one(id, 0), uint64(20_000+int(id)), false); err != nil {
						t.Errorf("incRef %d: %v", id, err)
					}
				case 1:
					if _, err := p.refDelta(one(id, 1), uint64(30_000+int(id)), true); err != nil {
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
// catalog store, and every mutation path must tolerate that (commit
// persists and syncs nothing).
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

// TestDurableCatalogOpensUnchunkedStore pins what a directory written by
// a provider that stored without content-addressed chunks does when it is
// reopened through dedup.Wrap and Recover: it opens, its raw values read
// back as themselves, and retiring every model drains every segment and
// chunk.
func TestDurableCatalogOpensUnchunkedStore(t *testing.T) {
	dir := t.TempDir()
	kv, err := kvstore.OpenLSM(dir, kvstore.LSMOptions{FlushBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewDurable(0, kv)
	if err != nil {
		t.Fatal(err)
	}
	// Model 1 holds a segment of more than one chunk and a short one;
	// model 2 only short ones.
	big := bytes.Repeat([]byte("0123456789abcdef"), (dedup.DefaultChunkSize+1000)/16)
	want := map[ownermap.ModelID][][]byte{}
	for id, sizes := range map[ownermap.ModelID][]int{1: {len(big), 100}, 2: {40, 60}} {
		g := chainGraph(1, 2)
		req, _ := storeReq(id, uint64(id), 0.5, g)
		segs := make([][]byte, len(sizes))
		for v, n := range sizes {
			segs[v] = append([]byte{byte(id), byte(v)}, big[:n-2]...)
			req.Segments[v].Length = uint32(n)
		}
		if err := p.StoreModel(req, segs); err != nil {
			t.Fatal(err)
		}
		want[id] = segs
	}
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}

	kv2, err := kvstore.OpenLSM(dir, kvstore.LSMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer kv2.Close()
	cas := dedup.Wrap(kv2, dedup.Options{})
	if err := cas.Recover(); err != nil {
		t.Fatalf("recovering chunk refcounts over an unchunked store: %v", err)
	}
	p2, err := NewDurable(0, cas)
	if err != nil {
		t.Fatal(err)
	}
	vs := []graph.VertexID{0, 1}
	for id, segs := range want {
		_, got, err := p2.ReadSegments(id, vs)
		if err != nil {
			t.Fatalf("model %d unreadable after reopen: %v", id, err)
		}
		for v := range segs {
			if !bytes.Equal(got[v], segs[v]) {
				t.Fatalf("model %d vertex %d: read %d bytes, want the %d stored", id, v, len(got[v]), len(segs[v]))
			}
		}
	}
	for id := range want {
		if _, err := p2.Retire(id); err != nil {
			t.Fatal(err)
		}
		if _, err := p2.DecRef(id, vs); err != nil {
			t.Fatal(err)
		}
	}
	// Only the catalog's own records (tombstones, journals) may remain.
	var left int
	if err := kv2.Scan("", func(k string, v []byte) bool {
		if !strings.HasPrefix(k, "cat/") {
			left += len(v)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if st := p2.Stats(); left != 0 || st.Segments != 0 || st.LiveRefs != 0 {
		t.Fatalf("after retiring every model: %d segment/chunk bytes left, stats %+v", left, st)
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
		if _, err := p.refDelta(one(1, 0), uint64(1000+i), false); err != nil {
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
		if _, err := p2.refDelta(one(1, 0), uint64(1000+i), false); err != nil {
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

// meteredKV is a durable backend that counts its cat/ Puts (also by
// record prefix) and Deletes and its Syncs, parks the first Sync after
// park is set until release, and fails the next Put under failPut.
type meteredKV struct {
	kvstore.KV
	park             atomic.Bool
	entered, release chan struct{}

	mu                sync.Mutex
	puts, dels, syncs int
	prefixPuts        map[string]int // "cat/r/", "cat/j/", ...
	failPut           string         // key prefix; cleared by the Put it fails
}

func newMeteredKV() *meteredKV {
	return &meteredKV{KV: kvstore.NewMemKV(4), entered: make(chan struct{}), release: make(chan struct{}),
		prefixPuts: make(map[string]int)}
}

func (k *meteredKV) count(key string, n *int) {
	if strings.HasPrefix(key, "cat/") {
		k.mu.Lock()
		*n++
		k.mu.Unlock()
	}
}

func (k *meteredKV) Put(key string, value []byte) error {
	k.count(key, &k.puts)
	k.mu.Lock()
	if strings.HasPrefix(key, "cat/") {
		k.prefixPuts[key[:strings.IndexByte(key[4:], '/')+5]]++
	}
	fail := k.failPut != "" && strings.HasPrefix(key, k.failPut)
	if fail {
		k.failPut = ""
	}
	k.mu.Unlock()
	if fail {
		return errors.New("meteredKV: injected Put failure")
	}
	return k.KV.Put(key, value)
}

func (k *meteredKV) Delete(key string) error {
	k.count(key, &k.dels)
	return k.KV.Delete(key)
}

func (k *meteredKV) Sync() error {
	k.mu.Lock()
	k.syncs++
	k.mu.Unlock()
	if k.park.CompareAndSwap(true, false) {
		k.entered <- struct{}{}
		<-k.release
	}
	return nil
}

func (k *meteredKV) reset() {
	k.mu.Lock()
	k.puts, k.dels, k.syncs = 0, 0, 0
	clear(k.prefixPuts)
	k.mu.Unlock()
}

// TestMutationsSyncOutsideProviderLock runs each of the six catalog
// mutations on a durable provider and checks what it writes: exactly one
// Sync per acknowledged mutation, made without the provider lock held (a
// GetMeta beside the parked Sync returns), and the number of cat/ Puts and
// Deletes. An inc_ref or dec_ref message of three owner groups is one
// commit too: one Sync, and one cat/r/, one cat/j/ and one cat/jm/ Put per
// owner. A message with a missing vertex or a wrong-epoch owner in its
// last group is rejected whole: no counter, journal or record of the
// groups before it changes, and nothing is synced.
//
// The counts are those of the per-handler persistence this write path
// replaced, but for two rows where a record no longer changes: a dec_ref
// that freed a segment of a still-cataloged owner also rewrote cat/m/ (4
// Puts), to drop the freed segment's size from a table nothing read; and
// repair_apply rewrote cat/m/ on every apply, so a merge of a missed inc
// was 4 Puts.
func TestMutationsSyncOutsideProviderLock(t *testing.T) {
	g := chainGraph(1, 2, 3)
	store := func(p *Provider, id ownermap.ModelID) error {
		req, segs := storeReq(id, uint64(id), 0.5, g)
		req.ReqID = 100 + uint64(id)
		return p.StoreModel(req, segs)
	}
	missedStore := func(p *Provider) error {
		req, segs := storeReq(2, 2, 0.5, g)
		meta := &proto.ModelMeta{Model: 2, Seq: 2, Quality: 0.5, Graph: g, OwnerMap: req.OwnerMap}
		_, err := p.RepairApply(&proto.RepairApplyReq{
			Model:    2,
			Meta:     meta.Encode(),
			Deltas:   []proto.RefDelta{{ReqID: 102, Vertices: []graph.VertexID{0, 1, 2}}},
			Segments: req.Segments,
		}, segs)
		return err
	}
	storeMore := func(p *Provider) error {
		for _, id := range []ownermap.ModelID{2, 3} {
			if err := store(p, id); err != nil {
				return err
			}
		}
		return nil
	}
	threeOwners := func(vs ...graph.VertexID) []proto.RefGroup {
		return []proto.RefGroup{{Owner: 1, Vertices: vs}, {Owner: 2, Vertices: vs}, {Owner: 3, Vertices: vs}}
	}
	perOwner := map[string]int{"cat/r/": 3, "cat/j/": 3, "cat/jm/": 3}
	errAny := errors.New("any rejection")
	for _, tc := range []struct {
		name       string
		setup      func(p *Provider) error
		mutate     func(p *Provider) error
		puts, dels int
		prefixPuts map[string]int // checked when set
		// reject, when set, is the rejection the mutation must return
		// (errAny: any): then nothing is written or synced, and models 1-3
		// keep their digests.
		reject error
	}{
		// cat/m/, cat/r/, one cat/j/ delta and cat/jm/.
		{"store", nil, func(p *Provider) error { return store(p, 2) }, 4, 0, nil, nil},
		// cat/r/, one delta, cat/jm/.
		{"inc_ref", nil, func(p *Provider) error {
			_, err := p.refDelta(one(1, 0, 1), 201, false)
			return err
		}, 3, 0, nil, nil},
		// One message pinning vertices of three owners.
		{"inc_ref 3 owners", storeMore, func(p *Provider) error {
			_, err := p.refDelta(threeOwners(0, 1), 203, false)
			return err
		}, 9, 0, perOwner, nil},
		// One message freeing vertex 2 of three owners that stay cataloged.
		{"dec_ref 3 owners", storeMore, func(p *Provider) error {
			_, err := p.refDelta(threeOwners(2), 204, true)
			return err
		}, 9, 0, perOwner, nil},
		// A missing vertex in the last group rejects the whole message:
		// the first two owners keep their counts and journals.
		{"inc_ref 3 owners, last missing a vertex", storeMore, func(p *Provider) error {
			gs := threeOwners(0)
			gs[2].Vertices = []graph.VertexID{0, 9}
			_, err := p.refDelta(gs, 205, false)
			return err
		}, 0, 0, nil, errAny},
		// Model 1's replica set under a 4-member table at R=3 is {1, 2, 3}:
		// provider 0 holds models 2 and 3 but not 1, the last owner named.
		{"dec_ref 3 owners, last wrong-epoch", func(p *Provider) error {
			p.SetPlacement(4, 3)
			return storeMore(p)
		}, func(p *Provider) error {
			gs := threeOwners(2)
			gs[0], gs[2] = gs[2], gs[0]
			_, err := p.refDelta(gs, 206, true)
			return err
		}, 0, 0, nil, placement.ErrWrongEpoch},
		// Frees vertex 2 of model 1, which stays cataloged: cat/r/, one
		// delta, cat/jm/ (cat/m/ used to be rewritten too).
		{"dec_ref", nil, func(p *Provider) error {
			_, err := p.refDelta(one(1, 2), 202, true)
			return err
		}, 3, 0, nil, nil},
		// cat/t/ written, cat/m/ deleted.
		{"retire", nil, func(p *Provider) error { _, err := p.Retire(1); return err }, 1, 1, nil, nil},
		// A store this replica missed: cat/m/, cat/r/, one delta, cat/jm/.
		{"repair_apply store", nil, missedStore, 4, 0, nil, nil},
		// An inc this replica missed: cat/r/, one delta, cat/jm/ (cat/m/
		// used to be rewritten too).
		{"repair_apply inc", nil, func(p *Provider) error {
			_, err := p.RepairApply(&proto.RepairApplyReq{
				Model:  1,
				Deltas: []proto.RefDelta{{ReqID: 301, Vertices: []graph.VertexID{0}}},
			}, nil)
			return err
		}, 3, 0, nil, nil},
		// Model 1's home under a 4-member table is provider 1, so provider 0
		// may evict it: cat/t/, cat/m/, cat/r/, the one delta and cat/jm/.
		{"evict", func(p *Provider) error { p.SetPlacement(4, 1); return nil },
			func(p *Provider) error { _, err := p.Evict(1); return err }, 0, 5, nil, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			kv := newMeteredKV()
			p, err := NewDurable(0, kv)
			if err != nil {
				t.Fatal(err)
			}
			if err := store(p, 1); err != nil {
				t.Fatal(err)
			}
			if tc.setup != nil {
				if err := tc.setup(p); err != nil {
					t.Fatal(err)
				}
			}
			kv.reset()
			wantSyncs := 1
			if tc.reject != nil {
				wantSyncs = 0
				digests := func() [3]proto.ModelDigest { return [3]proto.ModelDigest{p.Digest(1), p.Digest(2), p.Digest(3)} }
				before := digests()
				err := tc.mutate(p)
				if err == nil || (tc.reject != errAny && !errors.Is(err, tc.reject)) {
					t.Fatalf("mutation returned %v, want a rejection (%v)", err, tc.reject)
				}
				if after := digests(); after != before {
					t.Errorf("a rejected mutation changed models 1-3:\n before %+v\n after  %+v", before, after)
				}
			} else {
				kv.park.Store(true)
				done := make(chan error, 1)
				go func() { done <- tc.mutate(p) }()
				select {
				case <-kv.entered: // the mutation is parked in its Sync
				case err := <-done:
					t.Fatalf("mutation returned without a Sync: %v", err)
				}
				metaDone := make(chan struct{})
				go func() {
					p.GetMeta(1) //nolint:errcheck // only whether it returns matters
					close(metaDone)
				}()
				select {
				case <-metaDone:
				case <-time.After(5 * time.Second):
					t.Error("GetMeta waited for a mutation's Sync: the fsync runs under the provider lock")
				}
				kv.release <- struct{}{}
				if err := <-done; err != nil {
					t.Fatal(err)
				}
			}
			kv.mu.Lock()
			defer kv.mu.Unlock()
			if kv.syncs != wantSyncs {
				t.Errorf("%d Syncs, want %d", kv.syncs, wantSyncs)
			}
			if kv.puts != tc.puts || kv.dels != tc.dels {
				t.Errorf("cat/ writes: %d Puts, %d Deletes; want %d, %d", kv.puts, kv.dels, tc.puts, tc.dels)
			}
			for prefix, want := range tc.prefixPuts {
				if got := kv.prefixPuts[prefix]; got != want {
					t.Errorf("%s Puts = %d, want %d", prefix, got, want)
				}
			}
		})
	}
}

// TestSplitRetryAfterCatalogFailureIsDurable: a two-owner refcount
// message applies in memory, then its first cat/r/ Put fails, so the
// provider answers an error with both groups applied and journaled. The
// client then asks for each group alone under the same ReqID; the
// journals skip both, and each ack must leave its owner's records
// persisted: a reopened provider is digest-identical, with every pin (or
// release) of the failed message in place. Were a skipped group's records
// not rewritten, owner 1 would reopen without the failed message's delta.
func TestSplitRetryAfterCatalogFailureIsDurable(t *testing.T) {
	for _, neg := range []bool{false, true} {
		kv := newMeteredKV()
		p, err := NewDurable(0, kv)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []ownermap.ModelID{1, 2} {
			req, segs := storeReq(id, uint64(id), 0.5, chainGraph(1, 2, 3))
			req.ReqID = 100 + uint64(id)
			if err := p.StoreModel(req, segs); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := p.refDelta([]proto.RefGroup{{Owner: 1, Vertices: []graph.VertexID{0}}, {Owner: 2, Vertices: []graph.VertexID{0}}}, 50, false); err != nil {
			t.Fatal(err)
		}
		send := func(gs []proto.RefGroup) error {
			_, err := p.handleRef(neg)(context.Background(), rpc.Message{Meta: (&proto.RefReq{Groups: gs, ReqID: 60}).Encode()})
			return err
		}
		g1, g2 := proto.RefGroup{Owner: 1, Vertices: []graph.VertexID{0}}, proto.RefGroup{Owner: 2, Vertices: []graph.VertexID{0}}
		kv.mu.Lock()
		kv.failPut = catRefsPrefix
		kv.mu.Unlock()
		if err := send([]proto.RefGroup{g1, g2}); err == nil {
			t.Fatalf("neg=%v: a message whose cat/r/ Put failed was acknowledged", neg)
		}
		for _, g := range []proto.RefGroup{g1, g2} {
			if err := send([]proto.RefGroup{g}); err != nil {
				t.Fatalf("neg=%v: retry of owner %d alone: %v", neg, g.Owner, err)
			}
		}
		want := 3
		if neg {
			want = 1
		}
		p2, err := NewDurable(0, kv)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []ownermap.ModelID{1, 2} {
			if got := p2.RefCount(id, 0); got != want {
				t.Errorf("neg=%v: owner %d reopened with refcount %d, want %d", neg, id, got, want)
			}
			digestsEqual(t, p, p2, id)
		}
	}
}

// TestCatalogModelRecordFormat: cat/m/ keeps the layout older records
// have — the encoded entry, then a u32-counted (vertex, size) table. A
// record with the table filled, byte for byte as older versions wrote it,
// loads digest-identical; the record written now is that layout with a
// count of 0 and nothing after it.
func TestCatalogModelRecordFormat(t *testing.T) {
	kv := kvstore.NewMemKV(4)
	p, err := NewDurable(0, kv)
	if err != nil {
		t.Fatal(err)
	}
	req, segs := storeReq(1, 1, 0.5, chainGraph(1, 2, 3))
	req.ReqID = 11
	if err := p.StoreModel(req, segs); err != nil {
		t.Fatal(err)
	}
	entry, err := p.GetMeta(1)
	if err != nil {
		t.Fatal(err)
	}
	key := catKey(catModelPrefix, 1)

	rec, ok, err := kv.Get(key)
	if err != nil || !ok {
		t.Fatalf("cat/m/ record: %v, %v", ok, err)
	}
	r := wire.NewReader(rec)
	enc := r.Bytes32()
	if n := r.U32(); r.Err() != nil || n != 0 || r.Remaining() != 0 {
		t.Errorf("record tail: count %d, %d trailing bytes, err %v; want count 0 and nothing after", n, r.Remaining(), r.Err())
	}
	if !bytes.Equal(enc, entry.Encode()) {
		t.Error("record does not hold the encoded catalog entry")
	}

	w := wire.NewWriter(64)
	w.Bytes32(entry.Encode())
	w.U32(uint32(len(segs)))
	for v, seg := range segs {
		w.U32(uint32(v))
		w.U32(uint32(len(seg)))
	}
	if err := kv.Put(key, w.Bytes()); err != nil {
		t.Fatal(err)
	}
	p2, err := NewDurable(0, kv)
	if err != nil {
		t.Fatalf("record with a filled segment table: %v", err)
	}
	digestsEqual(t, p, p2, 1)

	w.U8(0) // one byte past the table
	if err := kv.Put(key, w.Bytes()); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDurable(0, kv); err == nil {
		t.Error("record with bytes past its segment table loaded")
	}
}

// catalogRecords encodes kvs as a sequence of (bytes32 key, bytes32
// value) pairs, the input format of FuzzLoadCatalog.
func catalogRecords(kvs ...[]byte) []byte {
	w := wire.NewWriter(256)
	for _, b := range kvs {
		w.Bytes32(b)
	}
	return w.Bytes()
}

// FuzzLoadCatalog feeds NewDurable arbitrary cat/ records. It must never
// panic, and a catalog it accepts must re-persist to records that reload
// digest-identical.
func FuzzLoadCatalog(f *testing.F) {
	kv := kvstore.NewMemKV(4)
	p, err := NewDurable(0, kv)
	if err != nil {
		f.Fatal(err)
	}
	catalogWorkload(f, p)
	var all [][]byte
	if err := kv.Scan("cat/", func(k string, v []byte) bool {
		f.Add(catalogRecords([]byte(k), v))
		all = append(all, []byte(k), v)
		return true
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(catalogRecords(all...))

	f.Fuzz(func(t *testing.T, data []byte) {
		in := kvstore.NewMemKV(1)
		r := wire.NewReader(data)
		for r.Remaining() > 0 {
			k, v := r.Bytes32(), r.Bytes32()
			if r.Err() != nil {
				break
			}
			if strings.HasPrefix(string(k), "cat/") {
				in.Put(string(k), append([]byte(nil), v...)) //nolint:errcheck // MemKV
			}
		}
		p, err := NewDurable(0, in)
		if err != nil {
			return
		}
		out := kvstore.NewMemKV(1)
		p.mu.Lock()
		p.cat = &catalogStore{kv: out, sync: func() error { return nil }, jspans: make(map[ownermap.ModelID]jspan)}
		ids := catalogIDs(p)
		for _, id := range ids {
			if err := p.persistLocked(id, dirtyAll); err != nil {
				t.Fatal(err)
			}
		}
		p.mu.Unlock()
		p2, err := NewDurable(0, out)
		if err != nil {
			t.Fatalf("re-persisted catalog does not reload: %v", err)
		}
		if got := catalogIDs(p2); len(got) != len(ids) {
			t.Fatalf("reload holds state for %d models, want %d", len(got), len(ids))
		}
		for _, id := range ids {
			digestsEqual(t, p, p2, id)
		}
	})
}

// catalogIDs lists every model p holds catalog state for.
func catalogIDs(p *Provider) []ownermap.ModelID {
	set := make(map[ownermap.ModelID]bool)
	for id := range p.models {
		set[id] = true
	}
	for id := range p.refs {
		set[id] = true
	}
	for id := range p.journals {
		set[id] = true
	}
	for id := range p.retired {
		set[id] = true
	}
	ids := make([]ownermap.ModelID, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	return ids
}

// TestCatalogCapsEvictRecords: the tombstone and journal-owner caps that
// commit enforces drop the evicted state's cat/ records too, so a reopen
// does not resurrect it.
func TestCatalogCapsEvictRecords(t *testing.T) {
	kv := kvstore.NewMemKV(4)
	p, err := NewDurable(0, kv)
	if err != nil {
		t.Fatal(err)
	}
	// Tombstones arriving by repair, one over the cap: the oldest goes.
	for id := ownermap.ModelID(1); id <= tombstoneCap+1; id++ {
		if _, err := p.RepairApply(&proto.RepairApplyReq{Model: id, Tombstone: true, TombstoneSeq: uint64(id)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Journals of drained owners (a clamped dec leaves no refs), one over
	// the cap: every drained journal but the newest goes.
	for i := 1; i <= journalOwnersCap+1; i++ {
		id := ownermap.ModelID(1_000_000 + i)
		if _, err := p.RepairApply(&proto.RepairApplyReq{
			Model:  id,
			Deltas: []proto.RefDelta{{ReqID: uint64(i), Neg: true, Vertices: []graph.VertexID{0}}},
		}, nil); err != nil {
			t.Fatal(err)
		}
	}
	count := func(prefix string) int {
		n := 0
		if err := kv.Scan(prefix, func(string, []byte) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
		return n
	}
	if d := p.Digest(1); d.Retired {
		t.Error("oldest tombstone survived the cap")
	}
	if n := count(catTombPrefix); n != tombstoneCap {
		t.Errorf("%d tombstone records, want %d", n, tombstoneCap)
	}
	if n, m := count(catJMetaPrefix), count(catJrnPrefix); n != 1 || m != 1 {
		t.Errorf("%d journal-meta and %d delta records, want 1 and 1 (the newest journal's)", n, m)
	}
	p2, err := NewDurable(0, kv)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []ownermap.ModelID{1, 2, tombstoneCap + 1, 1_000_001, 1_000_000 + journalOwnersCap + 1} {
		digestsEqual(t, p, p2, id)
	}
}

// TestJournalCapVisitsOnlyWhatItEvicts: past the journal-owners cap, every
// store adds a journal, and the cap visits only the drained owners commit
// recorded. So a store's walk is bounded by what it evicts, plus the one
// model it writes, not by the catalog.
func TestJournalCapVisitsOnlyWhatItEvicts(t *testing.T) {
	p := New(0, kvstore.NewMemKV(4))
	reg := metrics.NewRegistry()
	p.SetMetricsRegistry(reg)
	visits, evicts := reg.Counter("provider.journal_cap_visit"), reg.Counter("provider.journal_evict")
	g := chainGraph(1, 2)
	last := ownermap.ModelID(0)
	store := func() {
		t.Helper()
		last++
		if err := storeMeta(p, last, uint64(last), 0.5, g); err != nil {
			t.Fatal(err)
		}
	}
	retire := func(id ownermap.ModelID) {
		t.Helper()
		if _, err := p.Retire(id); err != nil {
			t.Fatal(err)
		}
	}
	for int(last) < journalOwnersCap {
		store()
	}
	// A metadata-only model owns no segments, so its retire drains it.
	drained := 0
	for id := ownermap.ModelID(4); id <= last; id += 4 {
		retire(id)
		drained++
	}
	if v := visits.Load(); v != 0 {
		t.Fatalf("%d journal visits below the cap", v)
	}
	for i := 0; i < 6000; i++ {
		v0, e0 := visits.Load(), evicts.Load()
		store()
		if dv, de := visits.Load()-v0, evicts.Load()-e0; dv > de+1 {
			t.Fatalf("store %d visited %d journals and evicted %d", last, dv, de)
		}
		if i%10 == 0 {
			retire(last) // a live model past the cap, drained from now on
			drained++
		}
	}
	// Every drained owner was evicted or is still recorded for the next
	// overflow; each visit evicted one.
	if v, e := visits.Load(), evicts.Load(); e < journalOwnersCap/4 || v != e || int(e)+len(p.drained) != drained {
		t.Errorf("visited %d journals and evicted %d, with %d still recorded, of %d drained", v, e, len(p.drained), drained)
	}
}
