package provider

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/kvstore"
	"repro/internal/ownermap"
	"repro/internal/proto"
)

// twin returns two providers and a store request applied to both (A) or
// only the first (aOnly=false stores on both).
func storedTwin(t *testing.T, id ownermap.ModelID, reqID uint64, both bool) (*Provider, *Provider, *proto.StoreModelReq, [][]byte) {
	t.Helper()
	a, b := New(0, kvstore.NewMemKV(4)), New(1, kvstore.NewMemKV(4))
	g := chainGraph(1, 2, 3)
	req, segs := storeReq(id, 1, 0.5, g)
	req.ReqID = reqID
	if err := a.StoreModel(req, segs); err != nil {
		t.Fatal(err)
	}
	if both {
		if err := b.StoreModel(req, segs); err != nil {
			t.Fatal(err)
		}
	}
	return a, b, req, segs
}

func TestDigestMatchesAcrossIdenticalReplicas(t *testing.T) {
	a, b, _, _ := storedTwin(t, 7, 100, true)
	da, db := a.Digest(7), b.Digest(7)
	if !da.Converged(db) {
		t.Fatalf("identical replicas diverged:\n a %+v\n b %+v", da, db)
	}
	if !da.Present || da.LiveRefs != 3 {
		t.Fatalf("digest misses state: %+v", da)
	}
	// Same mutation (same ReqID) on both keeps them converged...
	for _, p := range []*Provider{a, b} {
		if _, err := p.refDelta(7, []graph.VertexID{0}, 101, false); err != nil {
			t.Fatal(err)
		}
	}
	if da, db = a.Digest(7), b.Digest(7); !da.Converged(db) {
		t.Fatalf("replicas diverged after identical mutation:\n a %+v\n b %+v", da, db)
	}
	// ...a mutation applied to one replica only is visible.
	if _, err := a.refDelta(7, []graph.VertexID{1}, 102, false); err != nil {
		t.Fatal(err)
	}
	if da, db = a.Digest(7), b.Digest(7); da.Converged(db) {
		t.Fatal("partial IncRef not visible in digest")
	}
	// A digest of a model nobody stored is empty and converged.
	if d := a.Digest(999); d.Present || d.Retired || d.LiveRefs != 0 {
		t.Fatalf("digest of unknown model: %+v", d)
	}
}

func TestRepairApplyMergesMissedDeltas(t *testing.T) {
	a, b, _, _ := storedTwin(t, 7, 100, true)
	// A sees an inc and a dec that B missed.
	if _, err := a.refDelta(7, []graph.VertexID{0, 1}, 101, false); err != nil {
		t.Fatal(err)
	}
	if _, err := a.refDelta(7, []graph.VertexID{1}, 102, true); err != nil {
		t.Fatal(err)
	}
	pull, _, err := a.RepairPull(&proto.RepairPullReq{Model: 7})
	if err != nil {
		t.Fatal(err)
	}
	if pull.Digest.Trimmed {
		t.Fatal("journal trimmed unexpectedly")
	}
	// Replay A's journal at B: the store delta is deduped by ReqID, the
	// missed inc and dec apply.
	resp, err := b.RepairApply(&proto.RepairApplyReq{Model: 7, Deltas: pull.Journal}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.NeedPayload) != 0 {
		t.Fatalf("NeedPayload = %v, want none (payloads were stored)", resp.NeedPayload)
	}
	if da, db := a.Digest(7), b.Digest(7); !da.Converged(db) {
		t.Fatalf("replicas diverged after merge:\n a %+v\n b %+v", da, db)
	}
	if n := b.RefCount(7, 0); n != 2 {
		t.Fatalf("refcount(7,0) = %d, want 2", n)
	}
	// Re-applying the same batch is a no-op (convergent).
	before := b.Digest(7)
	if _, err := b.RepairApply(&proto.RepairApplyReq{Model: 7, Deltas: pull.Journal}, nil); err != nil {
		t.Fatal(err)
	}
	if after := b.Digest(7); after != before {
		t.Fatalf("re-apply changed state:\n before %+v\n after  %+v", before, after)
	}
	// A late retry of the replayed inc is absorbed by the journal guard.
	if _, err := b.refDelta(7, []graph.VertexID{0, 1}, 101, false); err != nil {
		t.Fatal(err)
	}
	if n := b.RefCount(7, 0); n != 2 {
		t.Fatalf("refcount(7,0) = %d after replayed retry, want 2", n)
	}
}

func TestRepairApplyInstallsMissedStore(t *testing.T) {
	a, b, req, _ := storedTwin(t, 7, 100, false)
	pull, payloads, err := a.RepairPull(&proto.RepairPullReq{Model: 7, WithPayloads: true})
	if err != nil {
		t.Fatal(err)
	}
	if pull.Meta == nil || len(pull.Segments) != 3 || len(payloads) != 3 {
		t.Fatalf("pull = meta %d bytes, %d segments, %d payloads", len(pull.Meta), len(pull.Segments), len(payloads))
	}
	resp, err := b.RepairApply(&proto.RepairApplyReq{
		Model:    7,
		Meta:     pull.Meta,
		Deltas:   pull.Journal,
		Segments: pull.Segments,
	}, payloads)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.NeedPayload) != 0 {
		t.Fatalf("NeedPayload = %v after payload push", resp.NeedPayload)
	}
	if da, db := a.Digest(7), b.Digest(7); !da.Converged(db) {
		t.Fatalf("replicas diverged after meta install:\n a %+v\n b %+v", da, db)
	}
	meta, err := b.GetMeta(7)
	if err != nil || meta.Seq != req.Seq || !meta.Graph.Equal(req.Graph) {
		t.Fatalf("installed meta = %+v, %v", meta, err)
	}
	table, parts, err := b.ReadSegments(7, []graph.VertexID{0, 1, 2})
	if err != nil || len(table) != 3 {
		t.Fatalf("ReadSegments after repair: %d entries, %v", len(table), err)
	}
	if string(parts[0]) != "seg-7-0" {
		t.Fatalf("repaired payload = %q", parts[0])
	}
}

func TestRepairApplyNeedPayload(t *testing.T) {
	a, b, _, _ := storedTwin(t, 7, 100, false)
	pull, _, err := a.RepairPull(&proto.RepairPullReq{Model: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Deltas without payloads: B learns the refcounts but reports the
	// missing segment bytes.
	resp, err := b.RepairApply(&proto.RepairApplyReq{Model: 7, Meta: pull.Meta, Deltas: pull.Journal}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.NeedPayload) != 3 {
		t.Fatalf("NeedPayload = %v, want 3 vertices", resp.NeedPayload)
	}
	// Targeted pull of the missing payloads, second apply resolves them.
	pull2, payloads, err := a.RepairPull(&proto.RepairPullReq{Model: 7, WithPayloads: true, Vertices: resp.NeedPayload})
	if err != nil {
		t.Fatal(err)
	}
	resp2, err := b.RepairApply(&proto.RepairApplyReq{Model: 7, Segments: pull2.Segments}, payloads)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp2.NeedPayload) != 0 {
		t.Fatalf("NeedPayload = %v after targeted push", resp2.NeedPayload)
	}
	if da, db := a.Digest(7), b.Digest(7); !da.Converged(db) {
		t.Fatalf("replicas diverged:\n a %+v\n b %+v", da, db)
	}
}

func TestRepairTombstone(t *testing.T) {
	a, b, req, segs := storedTwin(t, 7, 100, true)
	if _, err := a.Retire(7); err != nil {
		t.Fatal(err)
	}
	if _, err := a.refDelta(7, []graph.VertexID{0, 1, 2}, 101, true); err != nil {
		t.Fatal(err)
	}
	da := a.Digest(7)
	if !da.Retired || da.Present || da.LiveRefs != 0 {
		t.Fatalf("digest after retire+drain: %+v", da)
	}
	if da.Converged(b.Digest(7)) {
		t.Fatal("stale replica not flagged diverged")
	}
	// Tombstone push plus the missed dec deltas drain B.
	pull, _, err := a.RepairPull(&proto.RepairPullReq{Model: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.RepairApply(&proto.RepairApplyReq{
		Model: 7, Tombstone: true, TombstoneSeq: da.Seq, Deltas: pull.Journal,
	}, nil); err != nil {
		t.Fatal(err)
	}
	if db := b.Digest(7); !da.Converged(db) {
		t.Fatalf("replicas diverged after tombstone:\n a %+v\n b %+v", da, db)
	}
	if _, err := b.GetMeta(7); err == nil {
		t.Fatal("tombstoned model still cataloged")
	}
	// A late store retry of the retired ID is rejected on both.
	for _, p := range []*Provider{a, b} {
		if err := p.StoreModel(req, segs); err == nil {
			t.Fatalf("provider %d: store of retired model accepted", p.ID())
		}
	}
	// Drained models drop out of the repair work list.
	if ids := b.RepairModels(); len(ids) != 0 {
		t.Fatalf("RepairModels = %v, want empty after drain", ids)
	}
}

func TestRepairApplyAbsoluteFallback(t *testing.T) {
	a, b, _, _ := storedTwin(t, 7, 100, true)
	// Divergence with an unmergeable history: a reqID-0 mutation marks
	// A's journal trimmed.
	if err := a.IncRef(7, []graph.VertexID{0}); err != nil {
		t.Fatal(err)
	}
	pull, payloads, err := a.RepairPull(&proto.RepairPullReq{Model: 7, WithPayloads: true})
	if err != nil {
		t.Fatal(err)
	}
	if !pull.Digest.Trimmed {
		t.Fatal("reqID-0 mutation did not mark the journal trimmed")
	}
	if _, err := b.RepairApply(&proto.RepairApplyReq{
		Model:           7,
		Meta:            pull.Meta,
		ReplaceJournal:  true,
		JournalAppended: pull.Digest.Journal,
		Deltas:          pull.Journal,
		SetCounts:       pull.Counts,
		Segments:        pull.Segments,
	}, payloads); err != nil {
		t.Fatal(err)
	}
	da, db := a.Digest(7), b.Digest(7)
	if !da.Converged(db) {
		t.Fatalf("replicas diverged after absolute push:\n a %+v\n b %+v", da, db)
	}
	if n := b.RefCount(7, 0); n != 2 {
		t.Fatalf("refcount(7,0) = %d, want 2", n)
	}
	if !db.Trimmed {
		t.Fatal("absolute push must leave the journal marked trimmed")
	}
}

func TestJournalTrimsFIFO(t *testing.T) {
	p, _, _, _ := storedTwin(t, 7, 100, false)
	for i := 0; i < journalCap+8; i++ {
		if _, err := p.refDelta(7, []graph.VertexID{0}, uint64(1000+i), false); err != nil {
			t.Fatal(err)
		}
	}
	p.mu.RLock()
	jl := p.journals[7]
	deltas, seen, appended, trimmed := len(jl.deltas), len(jl.seen), jl.appended, jl.trimmed
	p.mu.RUnlock()
	if deltas != journalCap || seen != journalCap {
		t.Fatalf("journal holds %d deltas / %d seen, want %d", deltas, seen, journalCap)
	}
	if !trimmed {
		t.Fatal("overflowing journal not marked trimmed")
	}
	if appended != uint64(journalCap+9) { // +1 for the store's own delta
		t.Fatalf("appended = %d, want %d", appended, journalCap+9)
	}
}

func TestRepairApplyClampsUnmatchedDec(t *testing.T) {
	_, b, _, _ := storedTwin(t, 7, 100, true)
	// A dec whose matching inc B never saw and which is not in the batch:
	// clamp at zero instead of going negative.
	if _, err := b.RepairApply(&proto.RepairApplyReq{
		Model:  7,
		Deltas: []proto.RefDelta{{ReqID: 555, Neg: true, Vertices: []graph.VertexID{0, 0}}},
	}, nil); err != nil {
		t.Fatal(err)
	}
	if n := b.RefCount(7, 0); n != 0 {
		t.Fatalf("refcount(7,0) = %d, want 0 (clamped)", n)
	}
}
