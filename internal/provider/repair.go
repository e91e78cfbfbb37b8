package provider

// Anti-entropy repair: the provider-side state and handlers that let a
// client-side Repairer converge replicas after a partial write.
//
// Three pieces of bookkeeping make divergence detectable and repairable:
//
//   - A per-owner refcount *journal*: every applied refcount delta
//     (StoreModel's initial +1s, IncRef, DecRef) is recorded with the
//     ReqID of its originating request. Because every replica leg of a
//     fan-out shares one ReqID, the union of two replicas' journals is
//     well-defined, and "the deltas replica B missed" is exactly the set
//     difference by ReqID. Journals are FIFO-capped; a journal that
//     dropped entries (or recorded a mutation without a ReqID) is marked
//     trimmed, which downgrades repair from delta merge to an absolute
//     state push from the authoritative replica.
//   - Retire *tombstones*: retire removes the catalog entry, so without a
//     marker a repairer could not tell "never stored here" from "retired
//     here" — and would resurrect retired models. Tombstones also reject
//     late stores of a retired model ID.
//   - A fixed-size *digest* per model (proto.ModelDigest): hashes of the
//     metadata, the (vertex, refcount) table and the (vertex, stored
//     payload length) table. Replicas holding identical state produce
//     identical digests, so the background sweep costs one small RPC per
//     provider, not a state transfer.
//
// RepairApply is convergent: tombstones and metadata installs are
// idempotent, delta merges skip ReqIDs the journal has seen, and absolute
// pushes overwrite. Re-applying any repair request is a no-op.

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/ownermap"
	"repro/internal/proto"
	"repro/internal/rpc"
)

const (
	// journalCap bounds the deltas retained per owner; overflowing marks
	// the journal trimmed (repair falls back to absolute pushes).
	journalCap = 4096
	// journalOwnersCap bounds the journals map; overflowing evicts
	// journals of drained owners (no catalog entry, no live refs; see
	// capLocked).
	journalOwnersCap = 1 << 14
	// tombstoneCap bounds the retire tombstones; the oldest are evicted
	// FIFO. An evicted tombstone only matters if a replica diverges on
	// that model *again* long after its retire — the absolute-push
	// fallback still converges, it just can no longer reject a late
	// store of the retired ID.
	tombstoneCap = 1 << 16
)

// refJournal is one owner's refcount-delta history.
type refJournal struct {
	deltas   []proto.RefDelta
	seen     map[uint64]struct{}
	appended uint64 // deltas ever recorded, monotonic across trims
	trimmed  bool   // entries were dropped, or an unidentifiable delta applied
}

// journalLocked returns owner's journal, creating it as needed (commit
// enforces the owners cap afterwards). Callers hold p.mu.
func (p *Provider) journalLocked(owner ownermap.ModelID) *refJournal {
	jl := p.journals[owner]
	if jl == nil {
		jl = &refJournal{seen: make(map[uint64]struct{})}
		p.journals[owner] = jl
	}
	return jl
}

// seenLocked reports whether owner's journal already holds reqID — i.e.
// the repairer replayed this request's delta from another replica before
// the request (or its retry) arrived here. Callers hold p.mu.
func (p *Provider) seenLocked(owner ownermap.ModelID, reqID uint64) bool {
	if reqID == 0 {
		return false
	}
	jl := p.journals[owner]
	if jl == nil {
		return false
	}
	_, ok := jl.seen[reqID]
	return ok
}

// recordDeltaLocked journals one applied refcount mutation. A mutation
// without a ReqID cannot participate in a cross-replica merge, so it
// poisons the journal (trimmed) instead of being recorded. Callers hold
// p.mu and have already applied the refcount change.
func (p *Provider) recordDeltaLocked(owner ownermap.ModelID, reqID uint64, neg bool, vertices []graph.VertexID) {
	jl := p.journalLocked(owner)
	if reqID == 0 {
		jl.trimmed = true
		p.ctr.journalUnmergeable.Inc()
		return
	}
	jl.append(proto.RefDelta{
		ReqID:    reqID,
		Neg:      neg,
		Vertices: append([]graph.VertexID(nil), vertices...),
	})
}

// append records d, trimming FIFO over journalCap.
func (jl *refJournal) append(d proto.RefDelta) {
	jl.deltas = append(jl.deltas, d)
	jl.seen[d.ReqID] = struct{}{}
	jl.appended++
	for len(jl.deltas) > journalCap {
		delete(jl.seen, jl.deltas[0].ReqID)
		jl.deltas = jl.deltas[1:]
		jl.trimmed = true
	}
}

// tombstoneLocked records a retire tombstone (commit evicts the oldest
// over cap). Callers hold p.mu.
func (p *Provider) tombstoneLocked(id ownermap.ModelID, seq uint64) {
	if _, ok := p.retired[id]; ok {
		return
	}
	p.retired[id] = seq
	p.retiredOrder = append(p.retiredOrder, id)
}

// kvGet reads one segment payload, preferring the byte-key fast path.
func (p *Provider) kvGet(k segKey) ([]byte, bool, error) {
	if p.kvB != nil {
		var kb [segKeyLen]byte
		return p.kvB.GetB(k.appendTo(kb[:0]))
	}
	return p.kv.Get(k.String())
}

// sortedRefVertices returns vs's keys in ascending order — the canonical
// order every digest and pull uses so replicas hash identically.
func sortedRefVertices(vs map[graph.VertexID]int) []graph.VertexID {
	out := make([]graph.VertexID, 0, len(vs))
	for v := range vs {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// --- digest ------------------------------------------------------------------

// Digest summarizes everything this provider holds for id. Equal digests
// on two replicas mean byte-identical model state (up to hash collision).
func (p *Provider) Digest(id ownermap.ModelID) proto.ModelDigest {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.digestLocked(id)
}

func (p *Provider) digestLocked(id ownermap.ModelID) proto.ModelDigest {
	d := proto.ModelDigest{Model: id}
	if meta := p.models[id]; meta != nil {
		d.Present = true
		d.Seq = meta.entry.Seq
		d.MetaHash = proto.HashBytes(proto.HashSeed, meta.entry.Encode())
	}
	if seq, ok := p.retired[id]; ok {
		d.Retired = true
		if !d.Present {
			d.Seq = seq
		}
	}
	if jl := p.journals[id]; jl != nil {
		d.Journal = jl.appended
		d.Trimmed = jl.trimmed
	}
	refHash, segHash := proto.HashSeed, proto.HashSeed
	for _, v := range sortedRefVertices(p.refs[id]) {
		n := uint64(p.refs[id][v])
		refHash = proto.HashWords(refHash, uint64(v), n)
		d.LiveRefs += n
		length := proto.SegMissing
		if seg, ok, err := p.kvGet(segKey{id, v}); err == nil && ok {
			length = uint64(len(seg))
		}
		segHash = proto.HashWords(segHash, uint64(v), length)
	}
	d.RefHash, d.SegHash = refHash, segHash
	return d
}

// RepairModels lists every model ID the provider holds repairable state
// for — a catalog entry or live refcounts — in ascending order. Fully
// drained tombstones are deliberately excluded: they represent the
// converged end state.
func (p *Provider) RepairModels() []ownermap.ModelID {
	p.mu.RLock()
	set := make(map[ownermap.ModelID]struct{}, len(p.models)+len(p.refs))
	for id := range p.models {
		set[id] = struct{}{}
	}
	for id := range p.refs {
		set[id] = struct{}{}
	}
	p.mu.RUnlock()
	ids := make([]ownermap.ModelID, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// --- pull --------------------------------------------------------------------

// RepairPull snapshots one model's repair state: digest, encoded metadata,
// refcounts, delta journal, and (on request) segment payloads. The
// returned payload slices alias the KV store and must be treated as
// immutable.
func (p *Provider) RepairPull(q *proto.RepairPullReq) (*proto.RepairPullResp, [][]byte, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	resp := &proto.RepairPullResp{Digest: p.digestLocked(q.Model)}
	if meta := p.models[q.Model]; meta != nil {
		resp.Meta = meta.entry.Encode()
	}
	live := p.refs[q.Model]
	vertices := sortedRefVertices(live)
	for _, v := range vertices {
		resp.Counts = append(resp.Counts, proto.RefCount{Vertex: v, Count: uint64(live[v])})
	}
	if jl := p.journals[q.Model]; jl != nil {
		resp.Journal = append([]proto.RefDelta(nil), jl.deltas...)
	}
	var payloads [][]byte
	if q.WithPayloads {
		want := vertices
		if len(q.Vertices) > 0 {
			want = q.Vertices
		}
		for _, v := range want {
			seg, ok, err := p.kvGet(segKey{q.Model, v})
			if err != nil {
				return nil, nil, fmt.Errorf("provider %d: repair_pull %d/%d: %w", p.id, q.Model, v, err)
			}
			if !ok {
				continue
			}
			resp.Segments = append(resp.Segments, proto.SegmentRef{Vertex: v, Length: uint32(len(seg))})
			payloads = append(payloads, seg)
		}
	}
	return resp, payloads, nil
}

// --- apply -------------------------------------------------------------------

// RepairApply pushes repair state at this replica; see
// proto.RepairApplyReq for the step semantics. The call is convergent:
// re-applying the same request leaves the provider unchanged.
func (p *Provider) RepairApply(q *proto.RepairApplyReq, segs [][]byte) (*proto.RepairApplyResp, error) {
	if len(segs) != len(q.Segments) {
		return nil, fmt.Errorf("provider %d: repair_apply %d: %d payloads for %d table entries",
			p.id, q.Model, len(segs), len(q.Segments))
	}
	var installMeta *modelMeta
	if q.Meta != nil {
		m, err := proto.DecodeModelMeta(q.Meta)
		if err == nil && m.Model != q.Model {
			err = fmt.Errorf("entry names model %d", m.Model)
		}
		if err != nil {
			return nil, fmt.Errorf("provider %d: repair_apply %d: meta: %w", p.id, q.Model, err)
		}
		installMeta = newModelMeta(m) // signed outside the provider lock
	}

	err := p.commit("repair_apply", []ownermap.ModelID{q.Model}, p.acceptsWrite, func(c *change) error {
		// 1. Tombstone: a retire this replica missed.
		if q.Tombstone {
			p.tombstoneLocked(q.Model, q.TombstoneSeq)
			c.dirty[0] |= dirtyTomb
			if p.models[q.Model] != nil {
				delete(p.models, q.Model)
				p.lcpGen.Add(1)
				c.dirty[0] |= dirtyModel
				p.ctr.repairTombstone.Inc()
			}
		}
		_, dead := p.retired[q.Model]
		// 2. Metadata: a store this replica missed. Never resurrects a
		// tombstoned model; refcounts arrive separately as deltas.
		if installMeta != nil && !dead && p.models[q.Model] == nil {
			p.models[q.Model] = installMeta
			p.lcpGen.Add(1)
			c.dirty[0] |= dirtyModel
			p.ctr.repairMetaInstall.Inc()
		}
		// 3. Refcounts: absolute replacement (trimmed-journal fallback) or
		// delta merge by ReqID.
		if q.ReplaceJournal {
			next := make(map[graph.VertexID]int, len(q.SetCounts))
			for _, rc := range q.SetCounts {
				if rc.Count > 0 {
					next[rc.Vertex] = int(rc.Count)
				}
			}
			for v := range p.refs[q.Model] {
				if next[v] == 0 {
					c.dels = append(c.dels, segKey{q.Model, v})
				}
			}
			if len(next) > 0 {
				p.refs[q.Model] = next
			} else {
				delete(p.refs, q.Model)
			}
			jl := p.journalLocked(q.Model)
			jl.deltas = append([]proto.RefDelta(nil), q.Deltas...)
			jl.seen = make(map[uint64]struct{}, len(q.Deltas))
			for _, d := range q.Deltas {
				if d.ReqID != 0 {
					jl.seen[d.ReqID] = struct{}{}
				}
			}
			jl.appended = q.JournalAppended
			// The push happened because history was incomplete somewhere;
			// keep this journal out of future delta merges too.
			jl.trimmed = true
			c.dirty[0] |= dirtyRefs | dirtyJournal | journalRewritten
			p.ctr.repairAbsolute.Inc()
		} else if len(q.Deltas) > 0 {
			jl := p.journalLocked(q.Model)
			net := make(map[graph.VertexID]int)
			for i := range q.Deltas {
				d := &q.Deltas[i]
				if d.ReqID == 0 {
					continue
				}
				if _, ok := jl.seen[d.ReqID]; ok {
					continue
				}
				jl.append(proto.RefDelta{
					ReqID:    d.ReqID,
					Neg:      d.Neg,
					Vertices: append([]graph.VertexID(nil), d.Vertices...),
				})
				c.dirty[0] |= dirtyRefs | dirtyJournal
				p.ctr.repairDeltas.Inc()
				for _, v := range d.Vertices {
					if d.Neg {
						net[v]--
					} else {
						net[v]++
					}
				}
			}
			for v, dn := range net {
				if dn == 0 {
					continue
				}
				before := p.refs[q.Model][v]
				if before+dn < 0 {
					// A dec for an inc this replica never saw and whose inc is
					// not in the batch either; clamp rather than go negative.
					dn = -before
					p.ctr.repairClamped.Inc()
				}
				if p.refAddLocked(q.Model, v, dn) == 0 && before > 0 {
					c.dels = append(c.dels, segKey{q.Model, v})
				}
			}
		}
		// 4. Payloads: install pushed segments that are live after the
		// refcount step; orphans (no live ref) are skipped.
		for i, s := range q.Segments {
			if p.refs[q.Model][s.Vertex] == 0 {
				p.ctr.repairOrphanSkip.Inc()
				continue
			}
			c.put(segKey{q.Model, s.Vertex}, segs[i])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// 5. Report the post-apply state plus any live-but-payload-less
	// vertices the repairer still needs to ship.
	p.mu.RLock()
	resp := &proto.RepairApplyResp{Digest: p.digestLocked(q.Model)}
	for _, v := range sortedRefVertices(p.refs[q.Model]) {
		if _, ok, err := p.kvGet(segKey{q.Model, v}); err == nil && !ok {
			resp.NeedPayload = append(resp.NeedPayload, v)
		}
	}
	p.mu.RUnlock()
	return resp, nil
}

// --- handlers ----------------------------------------------------------------

func (p *Provider) handleRepairList(_ context.Context, _ rpc.Message) (rpc.Message, error) {
	return rpc.Message{Meta: proto.EncodeModelList(p.RepairModels())}, nil
}

func (p *Provider) handleDigest(_ context.Context, req rpc.Message) (rpc.Message, error) {
	ids, err := proto.DecodeModelList(req.Meta)
	if err != nil {
		return rpc.Message{}, fmt.Errorf("provider %d: digest: %w", p.id, err)
	}
	ds := make([]proto.ModelDigest, len(ids))
	p.mu.RLock()
	for i, id := range ids {
		ds[i] = p.digestLocked(id)
	}
	p.mu.RUnlock()
	return rpc.Message{Meta: proto.EncodeDigests(ds)}, nil
}

func (p *Provider) handleRepairPull(_ context.Context, req rpc.Message) (rpc.Message, error) {
	q, err := proto.DecodeRepairPullReq(req.Meta)
	if err != nil {
		return rpc.Message{}, fmt.Errorf("provider %d: repair_pull: %w", p.id, err)
	}
	resp, payloads, err := p.RepairPull(q)
	if err != nil {
		return rpc.Message{}, err
	}
	return rpc.Message{Meta: resp.Encode(), BulkVec: payloads}, nil
}

func (p *Provider) handleRepairApply(_ context.Context, req rpc.Message) (rpc.Message, error) {
	q, err := proto.DecodeRepairApplyReq(req.Meta)
	if err != nil {
		return rpc.Message{}, fmt.Errorf("provider %d: repair_apply: %w", p.id, err)
	}
	segs, err := proto.SplitBulkMsg(q.Segments, req)
	if err != nil {
		return rpc.Message{}, fmt.Errorf("provider %d: repair_apply %d: %w", p.id, q.Model, err)
	}
	resp, err := p.RepairApply(q, segs)
	if err != nil {
		return rpc.Message{}, err
	}
	return rpc.Message{Meta: resp.Encode()}, nil
}
