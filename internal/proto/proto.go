// Package proto defines the RPC names and message codecs spoken between
// EvoStore clients and providers. Control payloads ride rpc.Message.Meta;
// consolidated tensor segments ride the bulk payload — flat
// (rpc.Message.Bulk) or vectored (rpc.Message.BulkVec, one slice per
// segment table entry), which the wire frames identically.
//
// Paper counterpart: the client/provider protocol of §4.1-4.2 (store,
// consolidated segment reads, collective LCP queries, distributed
// refcount GC).
//
// Contracts:
//   - Thread safety: codecs are pure functions over byte slices; request
//     and response structs are plain data, safe to share once encoded.
//   - Idempotency: GetMeta, ReadSegments, LCPQuery, ListModels and Stats
//     are idempotent (see Idempotent). StoreModel, IncRef, DecRef and
//     Retire mutate provider state; each carries a ReqID the provider
//     uses to deduplicate retries, which is what makes them Retryable.
//   - Wire evolution: there is none to negotiate. Every deployment runs
//     one binary, so a field is added by changing encoder and decoder
//     together, and no decoder here accepts an older, shorter form of its
//     message: every request and response codec reads exactly what its
//     encoder writes and rejects any other length with wire.ErrTruncated
//     (FuzzDecodeControl). Only persisted formats — the dedup recipes, the
//     placement manifest — keep readers for older data; the ModelMeta
//     inside a catalog model record is read as strictly as on the wire,
//     since only Encode ever wrote one.
//   - Segments: a stored segment is its logical bytes. Nothing on the wire
//     or in the provider encodes or interprets them; byte-level sharing
//     is internal/dedup's business, below the provider's KV interface.
package proto

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/ownermap"
	"repro/internal/rpc"
	"repro/internal/wire"
)

// RPC handler names.
const (
	RPCStoreModel   = "evostore.store_model"
	RPCGetMeta      = "evostore.get_meta"
	RPCReadSegments = "evostore.read_segments"
	RPCIncRef       = "evostore.inc_ref"
	RPCDecRef       = "evostore.dec_ref"
	RPCRetire       = "evostore.retire"
	RPCLCPQuery     = "evostore.lcp_query"
	RPCListModels   = "evostore.list_models"
	RPCStats        = "evostore.stats"
	RPCMetrics      = "evostore.metrics"

	// Elastic placement (PR 5): read a provider's placement state, install
	// a new epoch on it, and drop a model's state from a former owner.
	// Payloads are placement.EncodeState / EncodeModelID; no extra codecs.
	RPCPlacement    = "evostore.placement"
	RPCSetPlacement = "evostore.set_placement"
	RPCEvict        = "evostore.evict"

	// Restart rejoin (PR 7): a provider reopening its data dir announces
	// itself to its peers and learns the cluster's current placement
	// epoch, so a manifest written before a membership change never
	// leaves it serving a stale table. Payloads: Hello / HelloResp.
	RPCHello = "evostore.hello"
)

// Idempotent reports whether the named RPC can be blindly re-executed
// without changing the outcome.
func Idempotent(name string) bool {
	switch name {
	case RPCGetMeta, RPCReadSegments, RPCLCPQuery, RPCListModels, RPCStats, RPCMetrics,
		RPCRepairList, RPCDigest, RPCRepairPull, RPCPlacement, RPCHello:
		return true
	}
	return false
}

// Retryable is the retry policy the resilience middleware should use for
// EvoStore traffic: idempotent operations are always safe; the mutating
// operations (StoreModel, IncRef, DecRef, Retire) are safe because every
// request carries a dedup ReqID that lets the provider answer a retry
// from its dedup table instead of re-executing it. Unknown names are not
// retried.
func Retryable(name string) bool {
	if Idempotent(name) {
		return true
	}
	switch name {
	case RPCStoreModel, RPCIncRef, RPCDecRef, RPCRetire:
		return true
	case RPCRepairApply:
		// Convergent rather than idempotent: re-applying the same repair
		// state is a no-op, so no dedup ReqID is needed.
		return true
	case RPCSetPlacement, RPCEvict:
		// Convergent like RepairApply: installing an epoch twice, or
		// evicting already-absent state, is a no-op.
		return true
	}
	return false
}

// SegmentRef locates one vertex's consolidated tensor segment inside a bulk
// payload: segments are concatenated in table order.
type SegmentRef struct {
	Vertex graph.VertexID
	Length uint32
}

// appendSegTable / readSegTable encode the (vertex, length) table shared by
// store requests and read responses.
func appendSegTable(w *wire.Writer, segs []SegmentRef) {
	w.U32(uint32(len(segs)))
	for _, s := range segs {
		w.U32(uint32(s.Vertex))
		w.U32(s.Length)
	}
}

func readSegTable(r *wire.Reader) ([]SegmentRef, error) {
	n := int(r.U32())
	if r.Err() != nil || n > r.Remaining()/8 {
		return nil, wire.ErrTruncated
	}
	segs := make([]SegmentRef, n)
	for i := range segs {
		segs[i].Vertex = graph.VertexID(r.U32())
		segs[i].Length = r.U32()
	}
	return segs, nil
}

// end checks that a strict decoder consumed its input exactly.
func end(r *wire.Reader) error {
	if r.Err() != nil || r.Remaining() != 0 {
		return wire.ErrTruncated
	}
	return nil
}

// SplitBulk slices a bulk payload into per-segment views according to the
// table. The returned slices alias bulk.
func SplitBulk(segs []SegmentRef, bulk []byte) ([][]byte, error) {
	out := make([][]byte, len(segs))
	off := 0
	for i, s := range segs {
		end := off + int(s.Length)
		if end > len(bulk) {
			return nil, fmt.Errorf("proto: segment table overruns bulk (%d > %d)", end, len(bulk))
		}
		out[i] = bulk[off:end]
		off = end
	}
	if off != len(bulk) {
		return nil, fmt.Errorf("proto: %d trailing bulk bytes", len(bulk)-off)
	}
	return out, nil
}

// SplitBulkMsg slices a message's bulk payload — flat or vectored — into
// per-segment views according to the table, without copying whenever the
// payload layout allows it. The common vectored case (one BulkVec slice
// per table entry, lengths matching) returns the sender's slices directly;
// a flat payload falls back to SplitBulk views; a mismatched vector is
// re-sliced across its chunk boundaries, copying only the segments that
// straddle one. The returned slices alias msg's buffers.
func SplitBulkMsg(segs []SegmentRef, msg rpc.Message) ([][]byte, error) {
	if len(msg.Bulk) == 0 && len(msg.BulkVec) == len(segs) {
		aligned := true
		for i, s := range segs {
			if uint32(len(msg.BulkVec[i])) != s.Length {
				aligned = false
				break
			}
		}
		if aligned {
			return msg.BulkVec, nil
		}
	}
	if len(msg.BulkVec) == 0 {
		return SplitBulk(segs, msg.Bulk)
	}
	// General case: treat Bulk followed by BulkVec as one logical stream
	// and cut segment views out of it.
	chunks := msg.BulkSlices()
	total := msg.BulkLen()
	want := 0
	for _, s := range segs {
		want += int(s.Length)
	}
	if want != total {
		return nil, fmt.Errorf("proto: segment table wants %d bytes, bulk payload has %d", want, total)
	}
	out := make([][]byte, len(segs))
	ci, coff := 0, 0
	for i, s := range segs {
		n := int(s.Length)
		for ci < len(chunks) && coff == len(chunks[ci]) {
			ci, coff = ci+1, 0
		}
		if n == 0 {
			out[i] = nil
			continue
		}
		if rem := len(chunks[ci]) - coff; n <= rem {
			out[i] = chunks[ci][coff : coff+n]
			coff += n
			continue
		}
		// Segment straddles chunk boundaries: the one place a copy is
		// unavoidable.
		seg := make([]byte, 0, n)
		for n > 0 {
			if coff == len(chunks[ci]) {
				ci, coff = ci+1, 0
				continue
			}
			take := len(chunks[ci]) - coff
			if take > n {
				take = n
			}
			seg = append(seg, chunks[ci][coff:coff+take]...)
			coff += take
			n -= take
		}
		out[i] = seg
	}
	return out, nil
}

// --- StoreModel -------------------------------------------------------------

// StoreModelReq publishes a new model: its architecture graph, owner map,
// quality metric, global sequence stamp, and the consolidated segments of
// the vertices the model itself owns (the modified tensors).
type StoreModelReq struct {
	Model    ownermap.ModelID
	Seq      uint64
	Quality  float64
	Graph    *graph.Compact
	OwnerMap *ownermap.Map
	Segments []SegmentRef
	// ReqID deduplicates retries of this non-idempotent request on the
	// provider (0 = no dedup).
	ReqID uint64
}

// Encode serializes the request meta.
func (q *StoreModelReq) Encode() []byte {
	w := wire.NewWriter(64 + q.OwnerMap.SizeBytes())
	m := ModelMeta{Model: q.Model, Seq: q.Seq, Quality: q.Quality, Graph: q.Graph, OwnerMap: q.OwnerMap}
	m.appendTo(w)
	appendSegTable(w, q.Segments)
	w.U64(q.ReqID)
	return w.Bytes()
}

// DecodeStoreModelReq parses a request meta.
func DecodeStoreModelReq(b []byte) (*StoreModelReq, error) {
	r := wire.NewReader(b)
	m, err := readModelMeta(r)
	if err != nil {
		return nil, err
	}
	q := &StoreModelReq{Model: m.Model, Seq: m.Seq, Quality: m.Quality, Graph: m.Graph, OwnerMap: m.OwnerMap}
	if q.Segments, err = readSegTable(r); err != nil {
		return nil, err
	}
	q.ReqID = r.U64()
	if r.Err() != nil || r.Remaining() != 0 {
		return nil, wire.ErrTruncated
	}
	return q, nil
}

// --- GetMeta ----------------------------------------------------------------

// ModelMeta is the metadata of one stored model.
type ModelMeta struct {
	Model    ownermap.ModelID
	Seq      uint64
	Quality  float64
	Graph    *graph.Compact
	OwnerMap *ownermap.Map
}

// EncodeModelID encodes the single-ID request used by GetMeta and Retire.
func EncodeModelID(id ownermap.ModelID) []byte {
	w := wire.NewWriter(8)
	w.U64(uint64(id))
	return w.Bytes()
}

// DecodeModelID parses a single-ID request: exactly eight bytes.
func DecodeModelID(b []byte) (ownermap.ModelID, error) {
	r := wire.NewReader(b)
	id := ownermap.ModelID(r.U64())
	return id, end(r)
}

// Encode serializes model metadata.
func (m *ModelMeta) Encode() []byte {
	w := wire.NewWriter(64 + m.OwnerMap.SizeBytes())
	m.appendTo(w)
	return w.Bytes()
}

// appendTo writes m's fields; StoreModelReq and LCPResult start with the
// same five.
func (m *ModelMeta) appendTo(w *wire.Writer) {
	w.U64(uint64(m.Model))
	w.U64(m.Seq)
	w.F64(m.Quality)
	w.Bytes32(m.Graph.Encode())
	w.Bytes32(m.OwnerMap.Encode())
}

// DecodeModelMeta parses exactly one Encode output.
func DecodeModelMeta(b []byte) (*ModelMeta, error) {
	r := wire.NewReader(b)
	m, err := readModelMeta(r)
	if err != nil {
		return nil, err
	}
	return m, end(r)
}

// readModelMeta reads what appendTo writes. The graph and the owner map
// must each fill their length-prefixed field exactly.
func readModelMeta(r *wire.Reader) (*ModelMeta, error) {
	m := &ModelMeta{
		Model:   ownermap.ModelID(r.U64()),
		Seq:     r.U64(),
		Quality: r.F64(),
	}
	gb := r.Bytes32()
	ob := r.Bytes32()
	if r.Err() != nil {
		return nil, wire.ErrTruncated
	}
	var gn, on int
	var err error
	if m.Graph, gn, err = graph.Decode(gb); err != nil {
		return nil, err
	}
	if m.OwnerMap, on, err = ownermap.Decode(ob); err != nil {
		return nil, err
	}
	if gn != len(gb) || on != len(ob) {
		return nil, wire.ErrTruncated
	}
	return m, nil
}

// --- ReadSegments -----------------------------------------------------------

// ReadSegmentsReq asks the provider hosting owner's segments for the given
// vertices; the response is the segment table plus one consolidated bulk
// payload.
type ReadSegmentsReq struct {
	Owner    ownermap.ModelID
	Vertices []graph.VertexID
	// Tenant attributes the read to an admission-control tenant: the
	// provider's front door charges its per-tenant token buckets under
	// this ID ("" shares the anonymous tenant's budget). Encoded only when
	// set, so the tenant-less request is exactly owner + vertices.
	Tenant string
}

// Encode serializes the request: owner, vertex list, then the tenant as a
// length-prefixed trailer when there is one.
func (q *ReadSegmentsReq) Encode() []byte {
	w := wire.NewWriter(16 + 4*len(q.Vertices) + len(q.Tenant))
	w.U64(uint64(q.Owner))
	w.U32(uint32(len(q.Vertices)))
	for _, v := range q.Vertices {
		w.U32(uint32(v))
	}
	if q.Tenant != "" {
		w.String(q.Tenant)
	}
	return w.Bytes()
}

// DecodeReadSegmentsReq parses either encoding and nothing else: input that
// ends inside a field, carries an empty tenant trailer (Encode omits it)
// or has bytes past the tenant is wire.ErrTruncated.
func DecodeReadSegmentsReq(b []byte) (*ReadSegmentsReq, error) {
	r := wire.NewReader(b)
	q := &ReadSegmentsReq{Owner: ownermap.ModelID(r.U64())}
	n := int(r.U32())
	if r.Err() != nil || n > r.Remaining()/4 {
		return nil, wire.ErrTruncated
	}
	q.Vertices = make([]graph.VertexID, n)
	for i := range q.Vertices {
		q.Vertices[i] = graph.VertexID(r.U32())
	}
	if r.Remaining() > 0 {
		if q.Tenant = r.Str(); q.Tenant == "" {
			return nil, wire.ErrTruncated
		}
	}
	if r.Err() != nil || r.Remaining() != 0 {
		return nil, wire.ErrTruncated
	}
	return q, nil
}

// EncodeSegTable encodes a read response meta (the table describing bulk).
func EncodeSegTable(segs []SegmentRef) []byte {
	w := wire.NewWriter(4 + 8*len(segs))
	appendSegTable(w, segs)
	return w.Bytes()
}

// DecodeSegTable parses a read response meta.
func DecodeSegTable(b []byte) ([]SegmentRef, error) {
	r := wire.NewReader(b)
	segs, err := readSegTable(r)
	if err != nil {
		return nil, err
	}
	return segs, end(r)
}

// --- IncRef / DecRef ----------------------------------------------------------

// RefReq adjusts segment reference counters for vertices owned by Owner.
// Refcount changes are not idempotent, so the request carries a ReqID the
// provider deduplicates retries with (0 = no dedup).
type RefReq struct {
	Owner    ownermap.ModelID
	Vertices []graph.VertexID
	ReqID    uint64
}

// Encode serializes the request.
func (q *RefReq) Encode() []byte {
	w := wire.NewWriter(24 + 4*len(q.Vertices))
	w.U64(uint64(q.Owner))
	w.U32(uint32(len(q.Vertices)))
	for _, v := range q.Vertices {
		w.U32(uint32(v))
	}
	w.U64(q.ReqID)
	return w.Bytes()
}

// DecodeRefReq parses the request.
func DecodeRefReq(b []byte) (*RefReq, error) {
	r := wire.NewReader(b)
	q := &RefReq{Owner: ownermap.ModelID(r.U64())}
	n := int(r.U32())
	if r.Err() != nil || n > r.Remaining()/4+1 {
		return nil, wire.ErrTruncated
	}
	q.Vertices = make([]graph.VertexID, n)
	for i := range q.Vertices {
		q.Vertices[i] = graph.VertexID(r.U32())
	}
	q.ReqID = r.U64()
	if r.Err() != nil || r.Remaining() != 0 {
		return nil, wire.ErrTruncated
	}
	return q, nil
}

// --- Retire -------------------------------------------------------------------

// RetireReq removes a model's catalog entry. Retirement is not idempotent
// (a second execution fails with "not found" and a lost response loses the
// owner map), so the request carries a ReqID for provider-side dedup
// (0 = no dedup).
type RetireReq struct {
	Model ownermap.ModelID
	ReqID uint64
}

// Encode serializes the request.
func (q *RetireReq) Encode() []byte {
	w := wire.NewWriter(16)
	w.U64(uint64(q.Model))
	w.U64(q.ReqID)
	return w.Bytes()
}

// DecodeRetireReq parses the request.
func DecodeRetireReq(b []byte) (*RetireReq, error) {
	r := wire.NewReader(b)
	q := &RetireReq{Model: ownermap.ModelID(r.U64()), ReqID: r.U64()}
	if r.Err() != nil || r.Remaining() != 0 {
		return nil, wire.ErrTruncated
	}
	return q, nil
}

// EncodeU64 / DecodeU64 carry small scalar responses: the segments an
// IncRef or DecRef freed (always 0 for an IncRef), the Evict dropped count,
// the StoreModel ack.
func EncodeU64(v uint64) []byte {
	w := wire.NewWriter(8)
	w.U64(v)
	return w.Bytes()
}

// DecodeU64 parses a scalar response: exactly eight bytes.
func DecodeU64(b []byte) (uint64, error) {
	if len(b) != 8 {
		return 0, wire.ErrTruncated
	}
	return wire.NewReader(b).U64(), nil
}

// --- LCP query ----------------------------------------------------------------

// LCPQueryReq broadcasts the flattened architecture of a new candidate to
// every provider.
type LCPQueryReq struct {
	Graph *graph.Compact
	// Exclude lists model IDs to skip (e.g. models being retired).
	Exclude []ownermap.ModelID
	// PreferRecent breaks prefix-length ties by recency (highest sequence
	// number) instead of quality — the continual-learning selection rule
	// the paper sketches in §6, where the age of a model matters when
	// choosing a transfer source.
	PreferRecent bool
	// Table names the placement table whose homes split the scan, as
	// TableName(epoch); zero names none. A provider whose complete table
	// (Prev while migrating, Cur otherwise) is the named one answers only
	// for the models it is home for under it, so the collective scans each
	// model once. Any other provider, and every provider of a request that
	// names no table, scans all it holds.
	Table uint64
}

// TableName is the LCPQueryReq.Table value naming the placement table of
// the given epoch. Epochs start at 0, so the name is shifted by one to keep
// the zero request naming none.
func TableName(epoch uint64) uint64 { return epoch + 1 }

// Encode serializes the query.
func (q *LCPQueryReq) Encode() []byte {
	w := wire.NewWriter(64)
	w.Bytes32(q.Graph.Encode())
	w.U32(uint32(len(q.Exclude)))
	for _, id := range q.Exclude {
		w.U64(uint64(id))
	}
	if q.PreferRecent {
		w.U8(1)
	} else {
		w.U8(0)
	}
	w.U64(q.Table)
	return w.Bytes()
}

// DecodeLCPQueryReq parses the query. It is strict: the recency byte is a
// bool, the table name is present, and no bytes trail it.
func DecodeLCPQueryReq(b []byte) (*LCPQueryReq, error) {
	r := wire.NewReader(b)
	gb := r.Bytes32()
	n := int(r.U32())
	if r.Err() != nil || n > r.Remaining()/8+1 {
		return nil, wire.ErrTruncated
	}
	q := &LCPQueryReq{}
	if n > 0 {
		q.Exclude = make([]ownermap.ModelID, n)
		for i := range q.Exclude {
			q.Exclude[i] = ownermap.ModelID(r.U64())
		}
	}
	prefer := r.U8()
	q.Table = r.U64()
	if r.Err() != nil || r.Remaining() != 0 || prefer > 1 {
		return nil, wire.ErrTruncated
	}
	q.PreferRecent = prefer == 1
	var gn int
	var err error
	if q.Graph, gn, err = graph.Decode(gb); err != nil {
		return nil, err
	}
	if gn != len(gb) {
		return nil, wire.ErrTruncated
	}
	return q, nil
}

// LCPResult is one provider's local best match: the winner's catalog
// entry, so the querying client needs no get_meta round after the
// broadcast, and the prefix of the query graph it shares. Meta is nil when
// the provider holds no model sharing any prefix with the query.
type LCPResult struct {
	Meta   *ModelMeta
	Prefix []graph.VertexID
}

// Found reports whether the result names a match.
func (res *LCPResult) Found() bool { return res.Meta != nil }

// Encode serializes the result: a found byte, then the winner's ModelMeta
// and the prefix.
func (res *LCPResult) Encode() []byte {
	if res.Meta == nil {
		return []byte{0}
	}
	w := wire.NewWriter(72 + res.Meta.OwnerMap.SizeBytes() + 4*len(res.Prefix))
	w.U8(1)
	res.Meta.appendTo(w)
	w.U32(uint32(len(res.Prefix)))
	for _, v := range res.Prefix {
		w.U32(uint32(v))
	}
	return w.Bytes()
}

// DecodeLCPResult parses exactly one Encode output.
func DecodeLCPResult(b []byte) (*LCPResult, error) {
	r := wire.NewReader(b)
	res := &LCPResult{}
	switch found := r.U8(); {
	case r.Err() != nil || found > 1:
		return nil, wire.ErrTruncated
	case found == 0:
		return res, end(r)
	}
	var err error
	if res.Meta, err = readModelMeta(r); err != nil {
		return nil, err
	}
	n := int(r.U32())
	if r.Err() != nil || n != r.Remaining()/4 {
		return nil, wire.ErrTruncated
	}
	res.Prefix = make([]graph.VertexID, n)
	for i := range res.Prefix {
		res.Prefix[i] = graph.VertexID(r.U32())
	}
	return res, end(r)
}

// LCPBeats is the one order on LCP matches, shared by the providers' scans
// and the client's reduce: a prefix of size vertices with model m beats
// one of curSize with cur when it is longer; equal lengths prefer higher
// quality (paper §2) or, under preferRecent, the most recent store and
// then quality (paper §6); what is still tied goes to the lower model ID.
// The order is total, so the winner does not depend on the order in which
// matches are seen.
func LCPBeats(size int, m *ModelMeta, curSize int, cur *ModelMeta, preferRecent bool) bool {
	if size != curSize {
		return size > curSize
	}
	if preferRecent && m.Seq != cur.Seq {
		return m.Seq > cur.Seq
	}
	if m.Quality != cur.Quality {
		return m.Quality > cur.Quality
	}
	return m.Model < cur.Model
}

// Better reports whether res should replace cur as the reduced best match:
// any match beats none, and LCPBeats orders two matches.
func (res *LCPResult) Better(cur *LCPResult, preferRecent bool) bool {
	if !res.Found() || !cur.Found() {
		return res.Found() && !cur.Found()
	}
	return LCPBeats(len(res.Prefix), res.Meta, len(cur.Prefix), cur.Meta, preferRecent)
}

// --- ListModels / Stats --------------------------------------------------------

// EncodeModelList / DecodeModelList carry catalog listings.
func EncodeModelList(ids []ownermap.ModelID) []byte {
	w := wire.NewWriter(4 + 8*len(ids))
	w.U32(uint32(len(ids)))
	for _, id := range ids {
		w.U64(uint64(id))
	}
	return w.Bytes()
}

// DecodeModelList parses a catalog listing (also the Digest request).
func DecodeModelList(b []byte) ([]ownermap.ModelID, error) {
	r := wire.NewReader(b)
	n := int(r.U32())
	if r.Err() != nil || n > r.Remaining()/8+1 {
		return nil, wire.ErrTruncated
	}
	ids := make([]ownermap.ModelID, n)
	for i := range ids {
		ids[i] = ownermap.ModelID(r.U64())
	}
	return ids, end(r)
}

// ModelHeat reports one model's EWMA access rates as measured by a
// provider: bytes per second served to readers and ingested by writers.
type ModelHeat struct {
	Model    ownermap.ModelID
	ReadBps  float64
	WriteBps float64
}

// EncodeCountersHeat serializes the Metrics RPC's response: a metrics
// snapshot (counter name → value, sorted by name so equal snapshots encode
// identically), then the per-model heat list.
func EncodeCountersHeat(snap map[string]uint64, heat []ModelHeat) []byte {
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	w := wire.NewWriter(8 + 16*len(names) + 24*len(heat))
	w.U32(uint32(len(names)))
	for _, name := range names {
		w.String(name)
		w.U64(snap[name])
	}
	w.U32(uint32(len(heat)))
	for _, h := range heat {
		w.U64(uint64(h.Model))
		w.F64(h.ReadBps)
		w.F64(h.WriteBps)
	}
	return w.Bytes()
}

// DecodeCountersHeat parses EncodeCountersHeat's output: counters in
// strictly ascending name order, then the heat list.
func DecodeCountersHeat(b []byte) (map[string]uint64, []ModelHeat, error) {
	r := wire.NewReader(b)
	n := int(r.U32())
	if r.Err() != nil || n > r.Remaining()/12+1 {
		return nil, nil, wire.ErrTruncated
	}
	snap := make(map[string]uint64, n)
	prev := ""
	for i := 0; i < n; i++ {
		name := r.Str()
		if r.Err() == nil && i > 0 && name <= prev {
			return nil, nil, fmt.Errorf("proto: counter %q out of order", name)
		}
		snap[name], prev = r.U64(), name
	}
	hn := int(r.U32())
	if r.Err() != nil || hn > r.Remaining()/24+1 {
		return nil, nil, wire.ErrTruncated
	}
	heat := make([]ModelHeat, hn)
	for i := range heat {
		heat[i] = ModelHeat{
			Model:    ownermap.ModelID(r.U64()),
			ReadBps:  r.F64(),
			WriteBps: r.F64(),
		}
	}
	if r.Err() != nil || r.Remaining() != 0 {
		return nil, nil, wire.ErrTruncated
	}
	return snap, heat, nil
}

// ProviderStats summarizes one provider's storage state.
type ProviderStats struct {
	Models       uint64
	Segments     uint64
	SegmentBytes uint64
	LiveRefs     uint64
}

// Encode serializes the stats.
func (s *ProviderStats) Encode() []byte {
	w := wire.NewWriter(32)
	w.U64(s.Models)
	w.U64(s.Segments)
	w.U64(s.SegmentBytes)
	w.U64(s.LiveRefs)
	return w.Bytes()
}

// DecodeProviderStats parses the stats.
func DecodeProviderStats(b []byte) (*ProviderStats, error) {
	r := wire.NewReader(b)
	s := &ProviderStats{
		Models:       r.U64(),
		Segments:     r.U64(),
		SegmentBytes: r.U64(),
		LiveRefs:     r.U64(),
	}
	return s, end(r)
}

// Add accumulates other into s (cluster-wide reduction).
func (s *ProviderStats) Add(o *ProviderStats) {
	s.Models += o.Models
	s.Segments += o.Segments
	s.SegmentBytes += o.SegmentBytes
	s.LiveRefs += o.LiveRefs
}
