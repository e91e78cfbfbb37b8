package proto

import (
	"repro/internal/graph"
	"repro/internal/ownermap"
	"repro/internal/wire"
)

// Anti-entropy repair protocol. Four RPCs let a Repairer (see
// internal/client) detect and converge replica divergence left behind by
// partial writes:
//
//   - RPCRepairList:  every model ID the provider holds any state for
//     (catalog entry or live refcounts). Idempotent.
//   - RPCDigest:      batch of per-model ModelDigests — a cheap, fixed-size
//     summary (seq, metadata hash, refcount hash, segment-table hash) that
//     two replicas can compare without shipping payloads. Idempotent.
//   - RPCRepairPull:  one model's full repair state (metadata bytes,
//     refcounts, refcount-delta journal, optionally segment payloads on
//     the bulk vector). Idempotent.
//   - RPCRepairApply: pushes repair state at a stale replica: a retire
//     tombstone, a metadata install, segment payloads, and refcount
//     deltas merged by ReqID (or an absolute refcount set when a journal
//     was trimmed). Convergent — re-applying the same request is a no-op —
//     so it is Retryable without carrying a dedup ReqID.
//
// All hashes are order-sensitive FNV-1a 64 over little-endian words
// (HashWords), so "equal digest" means "byte-identical state" up to hash
// collision.
const (
	RPCRepairList  = "evostore.repair_list"
	RPCDigest      = "evostore.digest"
	RPCRepairPull  = "evostore.repair_pull"
	RPCRepairApply = "evostore.repair_apply"
)

// HashSeed is the FNV-1a 64 offset basis; fold state into it with
// HashWords or HashBytes.
const HashSeed uint64 = 0xcbf29ce484222325

const fnvPrime64 = 0x100000001b3

// HashBytes folds b into the running FNV-1a 64 hash h.
func HashBytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// HashWords folds 64-bit words (little-endian byte order) into the running
// FNV-1a 64 hash h. Order-sensitive: callers must fold in a canonical
// (sorted) order for digests to be comparable across replicas.
func HashWords(h uint64, words ...uint64) uint64 {
	for _, w := range words {
		for i := 0; i < 64; i += 8 {
			h ^= (w >> i) & 0xff
			h *= fnvPrime64
		}
	}
	return h
}

// SegMissing is the length word folded into a segment-table hash for a
// referenced vertex whose payload is absent from the KV store. It cannot
// collide with a real length (lengths are u32).
const SegMissing uint64 = 1<<64 - 1

// ModelDigest is a provider's fixed-size summary of everything it holds
// for one model. Two replicas holding byte-identical state produce equal
// digests; Converged is the comparison the repairer trusts.
type ModelDigest struct {
	Model   ownermap.ModelID
	Present bool // catalog entry exists
	Retired bool // retire tombstone exists
	Trimmed bool // refcount journal lost entries; delta merge is unsafe

	// Seq is the model's store sequence number while Present, else the
	// sequence recorded by the retire tombstone.
	Seq uint64
	// MetaHash hashes the encoded ModelMeta (graph, owner map, quality,
	// seq); zero when not Present.
	MetaHash uint64
	// RefHash hashes the (vertex, refcount) pairs in vertex order.
	RefHash uint64
	// SegHash hashes the (vertex, stored payload length) pairs in vertex
	// order, folding SegMissing for a referenced-but-absent payload.
	SegHash uint64
	// LiveRefs is the sum of this model's refcounts.
	LiveRefs uint64
	// Journal counts refcount deltas ever appended to the local journal;
	// the fallback authority choice prefers the longest journal.
	Journal uint64
}

// Converged reports whether two replicas' digests describe the same model
// state. Two fully drained replicas (no catalog entry, no live refs)
// agree regardless of tombstone bookkeeping: one side may have forgotten
// a long-retired model entirely.
func (d ModelDigest) Converged(o ModelDigest) bool {
	if !d.Present && !o.Present && d.LiveRefs == 0 && o.LiveRefs == 0 {
		return true
	}
	return d.Present == o.Present && d.Retired == o.Retired && d.Seq == o.Seq &&
		d.MetaHash == o.MetaHash && d.RefHash == o.RefHash &&
		d.SegHash == o.SegHash && d.LiveRefs == o.LiveRefs
}

const digestWireLen = 8 + 1 + 6*8

func (d *ModelDigest) appendTo(w *wire.Writer) {
	w.U64(uint64(d.Model))
	var flags uint8
	if d.Present {
		flags |= 1
	}
	if d.Retired {
		flags |= 2
	}
	if d.Trimmed {
		flags |= 4
	}
	w.U8(flags)
	w.U64(d.Seq)
	w.U64(d.MetaHash)
	w.U64(d.RefHash)
	w.U64(d.SegHash)
	w.U64(d.LiveRefs)
	w.U64(d.Journal)
}

func readDigest(r *wire.Reader) ModelDigest {
	var d ModelDigest
	d.Model = ownermap.ModelID(r.U64())
	flags := r.U8()
	d.Present = flags&1 != 0
	d.Retired = flags&2 != 0
	d.Trimmed = flags&4 != 0
	d.Seq = r.U64()
	d.MetaHash = r.U64()
	d.RefHash = r.U64()
	d.SegHash = r.U64()
	d.LiveRefs = r.U64()
	d.Journal = r.U64()
	return d
}

// EncodeDigests serializes a Digest RPC response. The request is an
// EncodeModelList of the IDs to digest; the response carries one digest
// per requested ID, in request order.
func EncodeDigests(ds []ModelDigest) []byte {
	w := wire.NewWriter(4 + digestWireLen*len(ds))
	w.U32(uint32(len(ds)))
	for i := range ds {
		ds[i].appendTo(w)
	}
	return w.Bytes()
}

// DecodeDigests parses a Digest RPC response.
func DecodeDigests(b []byte) ([]ModelDigest, error) {
	r := wire.NewReader(b)
	n := int(r.U32())
	if r.Err() != nil || n > r.Remaining()/digestWireLen+1 {
		return nil, wire.ErrTruncated
	}
	ds := make([]ModelDigest, n)
	for i := range ds {
		ds[i] = readDigest(r)
	}
	return ds, r.Err()
}

// RefDelta is one refcount mutation as recorded in a provider's journal:
// the ReqID of the originating request (shared by every replica leg, which
// is what makes the cross-replica union well-defined), its sign, and the
// vertices it touched, each by ±1.
type RefDelta struct {
	ReqID    uint64
	Neg      bool
	Vertices []graph.VertexID
}

func appendDelta(w *wire.Writer, d *RefDelta) {
	w.U64(d.ReqID)
	if d.Neg {
		w.U8(1)
	} else {
		w.U8(0)
	}
	w.U32(uint32(len(d.Vertices)))
	for _, v := range d.Vertices {
		w.U32(uint32(v))
	}
}

func readDelta(r *wire.Reader) (RefDelta, error) {
	var d RefDelta
	d.ReqID = r.U64()
	d.Neg = r.U8() != 0
	n := int(r.U32())
	if r.Err() != nil || n > r.Remaining()/4+1 {
		return d, wire.ErrTruncated
	}
	d.Vertices = make([]graph.VertexID, n)
	for i := range d.Vertices {
		d.Vertices[i] = graph.VertexID(r.U32())
	}
	return d, r.Err()
}

func appendDeltas(w *wire.Writer, ds []RefDelta) {
	w.U32(uint32(len(ds)))
	for i := range ds {
		appendDelta(w, &ds[i])
	}
}

func readDeltas(r *wire.Reader) ([]RefDelta, error) {
	n := int(r.U32())
	if r.Err() != nil || n > r.Remaining()/13+1 {
		return nil, wire.ErrTruncated
	}
	ds := make([]RefDelta, n)
	for i := range ds {
		var err error
		if ds[i], err = readDelta(r); err != nil {
			return nil, err
		}
	}
	return ds, nil
}

// EncodeRefDelta serializes one journal delta as a standalone record (the
// durable provider catalog persists one delta per KV key).
func EncodeRefDelta(d *RefDelta) []byte {
	w := wire.NewWriter(16 + 4*len(d.Vertices))
	appendDelta(w, d)
	return w.Bytes()
}

// DecodeRefDelta parses an EncodeRefDelta record.
func DecodeRefDelta(b []byte) (RefDelta, error) {
	return readDelta(wire.NewReader(b))
}

// EncodeRefCounts serializes a refcount table as a standalone record (the
// durable provider catalog persists one table per owner).
func EncodeRefCounts(cs []RefCount) []byte {
	w := wire.NewWriter(4 + 12*len(cs))
	appendCounts(w, cs)
	return w.Bytes()
}

// DecodeRefCounts parses an EncodeRefCounts record.
func DecodeRefCounts(b []byte) ([]RefCount, error) {
	return readCounts(wire.NewReader(b))
}

// RefCount is one vertex's absolute refcount, used by the trimmed-journal
// fallback (RepairApplyReq.SetCounts) and by RepairPullResp.
type RefCount struct {
	Vertex graph.VertexID
	Count  uint64
}

func appendCounts(w *wire.Writer, cs []RefCount) {
	w.U32(uint32(len(cs)))
	for _, c := range cs {
		w.U32(uint32(c.Vertex))
		w.U64(c.Count)
	}
}

func readCounts(r *wire.Reader) ([]RefCount, error) {
	n := int(r.U32())
	if r.Err() != nil || n > r.Remaining()/12+1 {
		return nil, wire.ErrTruncated
	}
	cs := make([]RefCount, n)
	for i := range cs {
		cs[i].Vertex = graph.VertexID(r.U32())
		cs[i].Count = r.U64()
	}
	return cs, r.Err()
}

// --- RepairPull --------------------------------------------------------------

// RepairPullReq asks a provider for one model's repair state.
type RepairPullReq struct {
	Model ownermap.ModelID
	// WithPayloads ships the stored segment payloads on the bulk vector,
	// described by RepairPullResp.Segments.
	WithPayloads bool
	// Vertices restricts shipped payloads to the listed vertices; empty
	// means every stored segment of the model.
	Vertices []graph.VertexID
}

// Encode serializes a RepairPullReq.
func (q *RepairPullReq) Encode() []byte {
	w := wire.NewWriter(16 + 4*len(q.Vertices))
	w.U64(uint64(q.Model))
	if q.WithPayloads {
		w.U8(1)
	} else {
		w.U8(0)
	}
	w.U32(uint32(len(q.Vertices)))
	for _, v := range q.Vertices {
		w.U32(uint32(v))
	}
	return w.Bytes()
}

// DecodeRepairPullReq parses a RepairPullReq.
func DecodeRepairPullReq(b []byte) (*RepairPullReq, error) {
	r := wire.NewReader(b)
	q := &RepairPullReq{
		Model:        ownermap.ModelID(r.U64()),
		WithPayloads: r.U8() != 0,
	}
	n := int(r.U32())
	if r.Err() != nil || n > r.Remaining()/4+1 {
		return nil, wire.ErrTruncated
	}
	if n > 0 {
		q.Vertices = make([]graph.VertexID, n)
		for i := range q.Vertices {
			q.Vertices[i] = graph.VertexID(r.U32())
		}
	}
	return q, r.Err()
}

// RepairPullResp is one model's repair state. Segment payloads, when
// requested, ride the bulk vector in Segments order.
type RepairPullResp struct {
	Digest ModelDigest
	// Meta is the encoded ModelMeta, nil when the model is not cataloged.
	Meta []byte
	// Counts are the live refcounts in vertex order.
	Counts []RefCount
	// Journal is the local refcount-delta journal in append order.
	Journal []RefDelta
	// Segments tables the payloads on the bulk vector (empty unless
	// WithPayloads was set).
	Segments []SegmentRef
}

// Encode serializes a RepairPullResp.
func (p *RepairPullResp) Encode() []byte {
	w := wire.NewWriter(digestWireLen + 64 + len(p.Meta) + 12*len(p.Counts) + 8*len(p.Segments))
	p.Digest.appendTo(w)
	w.Bytes32(p.Meta)
	appendCounts(w, p.Counts)
	appendDeltas(w, p.Journal)
	appendSegTable(w, p.Segments)
	return w.Bytes()
}

// DecodeRepairPullResp parses a RepairPullResp.
func DecodeRepairPullResp(b []byte) (*RepairPullResp, error) {
	r := wire.NewReader(b)
	p := &RepairPullResp{Digest: readDigest(r)}
	if meta := r.Bytes32(); len(meta) > 0 {
		p.Meta = meta
	}
	var err error
	if p.Counts, err = readCounts(r); err != nil {
		return nil, err
	}
	if p.Journal, err = readDeltas(r); err != nil {
		return nil, err
	}
	if p.Segments, err = readSegTable(r); err != nil {
		return nil, err
	}
	return p, r.Err()
}

// --- RepairApply -------------------------------------------------------------

// RepairApplyReq pushes repair state at a stale replica. Every field is
// optional; the provider applies them in a fixed order — tombstone,
// metadata install, refcount deltas (or absolute counts), segment
// payloads — and each step is a no-op when the local state already
// reflects it, so re-applying the same request converges.
type RepairApplyReq struct {
	Model ownermap.ModelID
	// Tombstone records a retire: the catalog entry (if any) is removed
	// and future stores of the model are rejected. TombstoneSeq carries
	// the retired model's sequence number for digest agreement.
	Tombstone    bool
	TombstoneSeq uint64
	// Meta, when non-nil, installs the encoded ModelMeta unless the model
	// is tombstoned locally. It does not touch refcounts: those arrive as
	// Deltas (or SetCounts) in the same request.
	Meta []byte
	// Deltas are refcount mutations to merge by ReqID: a delta whose
	// ReqID the local journal has seen is skipped, the rest are applied
	// as a batch.
	Deltas []RefDelta
	// ReplaceJournal switches from merge to absolute mode: local
	// refcounts become exactly SetCounts, and the local journal is
	// replaced verbatim by Deltas with JournalAppended as its
	// appended-count. Used when a journal was trimmed and delta merge
	// would be unsound.
	ReplaceJournal  bool
	JournalAppended uint64
	SetCounts       []RefCount
	// Segments tables payloads riding the bulk vector; each is installed
	// when the vertex is live (refcount > 0) after the refcount step.
	Segments []SegmentRef
}

// Encode serializes a RepairApplyReq.
func (q *RepairApplyReq) Encode() []byte {
	w := wire.NewWriter(64 + len(q.Meta) + 12*len(q.SetCounts) + 8*len(q.Segments))
	w.U64(uint64(q.Model))
	var flags uint8
	if q.Tombstone {
		flags |= 1
	}
	if q.ReplaceJournal {
		flags |= 2
	}
	w.U8(flags)
	w.U64(q.TombstoneSeq)
	w.U64(q.JournalAppended)
	w.Bytes32(q.Meta)
	appendDeltas(w, q.Deltas)
	appendCounts(w, q.SetCounts)
	appendSegTable(w, q.Segments)
	return w.Bytes()
}

// DecodeRepairApplyReq parses a RepairApplyReq.
func DecodeRepairApplyReq(b []byte) (*RepairApplyReq, error) {
	r := wire.NewReader(b)
	q := &RepairApplyReq{Model: ownermap.ModelID(r.U64())}
	flags := r.U8()
	q.Tombstone = flags&1 != 0
	q.ReplaceJournal = flags&2 != 0
	q.TombstoneSeq = r.U64()
	q.JournalAppended = r.U64()
	if meta := r.Bytes32(); len(meta) > 0 {
		q.Meta = meta
	}
	var err error
	if q.Deltas, err = readDeltas(r); err != nil {
		return nil, err
	}
	if q.SetCounts, err = readCounts(r); err != nil {
		return nil, err
	}
	if q.Segments, err = readSegTable(r); err != nil {
		return nil, err
	}
	return q, r.Err()
}

// RepairApplyResp reports the provider's post-apply state.
type RepairApplyResp struct {
	// Digest summarizes the model after the apply; the repairer compares
	// it against the other replicas to decide whether another pass is
	// needed.
	Digest ModelDigest
	// NeedPayload lists vertices that are live (refcount > 0) but whose
	// segment payload is absent locally — the repairer fetches them from
	// a replica that has them and applies again.
	NeedPayload []graph.VertexID
}

// Encode serializes a RepairApplyResp.
func (p *RepairApplyResp) Encode() []byte {
	w := wire.NewWriter(digestWireLen + 8 + 4*len(p.NeedPayload))
	p.Digest.appendTo(w)
	w.U32(uint32(len(p.NeedPayload)))
	for _, v := range p.NeedPayload {
		w.U32(uint32(v))
	}
	return w.Bytes()
}

// DecodeRepairApplyResp parses a RepairApplyResp.
func DecodeRepairApplyResp(b []byte) (*RepairApplyResp, error) {
	r := wire.NewReader(b)
	p := &RepairApplyResp{Digest: readDigest(r)}
	n := int(r.U32())
	if r.Err() != nil || n > r.Remaining()/4+1 {
		return nil, wire.ErrTruncated
	}
	if n > 0 {
		p.NeedPayload = make([]graph.VertexID, n)
		for i := range p.NeedPayload {
			p.NeedPayload[i] = graph.VertexID(r.U32())
		}
	}
	return p, r.Err()
}
