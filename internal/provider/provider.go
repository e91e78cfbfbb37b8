// Package provider implements the EvoStore storage provider: the
// server-side half of the repository. Each provider simultaneously acts as
// a data and a metadata server (paper §4.1): it stores the consolidated
// tensor segments of the models whose IDs hash to it, their architecture
// graphs and owner maps, the reference counters that drive distributed
// garbage collection, and it answers its share of collective LCP queries
// over the models it catalogs.
//
// Paper counterpart: the Mochi-style storage provider of §4.1, each node
// simultaneously a data and a metadata server.
//
// Contracts:
//   - Thread safety: all Provider methods and registered handlers are safe
//     for concurrent use; catalog and refcount state is guarded by one
//     RWMutex, segment payloads by the (thread-safe) KV backend.
//   - Idempotency: reads (GetMeta, ReadSegments, LCPQuery, ListModels,
//     Stats) are idempotent. The mutating handlers (StoreModel, IncRef,
//     DecRef, Retire) are not, but deduplicate retried requests by their
//     proto ReqID: a request whose first execution succeeded is answered
//     from the dedup table, never re-executed, so retries cannot
//     double-apply refcount changes.
//   - Atomicity: IncRef/DecRef validate the whole batch before mutating,
//     so a failed request leaves no partial side effects.
package provider

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/frontdoor"
	"repro/internal/graph"
	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/ownermap"
	"repro/internal/placement"
	"repro/internal/proto"
	"repro/internal/rpc"
)

// segKey identifies one stored segment: the consolidated tensors of one
// leaf-layer vertex, owned by one model.
type segKey struct {
	owner  ownermap.ModelID
	vertex graph.VertexID
}

// segKeyLen is the fixed encoded length of a segment key.
const segKeyLen = 4 + 16 + 1 + 8

// String formats the KV key "seg/%016x/%08x" by hand: it runs once per
// segment on the read path, where fmt's boxing shows up in allocs/op.
func (k segKey) String() string {
	var b [segKeyLen]byte
	k.appendTo(b[:0])
	return string(b[:])
}

// appendTo appends the encoded key to dst and returns the extended slice.
// With a pre-sized dst this formats the key without allocating, feeding the
// kvstore.ByteKeyGetter fast path on segment reads.
func (k segKey) appendTo(dst []byte) []byte {
	var b [segKeyLen]byte
	copy(b[:4], "seg/")
	putHex(b[4:20], uint64(k.owner))
	b[20] = '/'
	putHex(b[21:29], uint64(k.vertex))
	return append(dst, b[:]...)
}

// putHex writes v into dst as zero-padded lowercase hex, least significant
// digit last. len(dst) selects the width.
func putHex(dst []byte, v uint64) {
	const digits = "0123456789abcdef"
	for i := len(dst) - 1; i >= 0; i-- {
		dst[i] = digits[v&0xf]
		v >>= 4
	}
}

// modelMeta is the cataloged state of one home model.
type modelMeta struct {
	// entry is the catalog entry exactly as GetMeta and LCP replies carry
	// it. It is never modified once installed, so it is handed out shared.
	entry *proto.ModelMeta

	// storing is set while StoreModel is still writing this entry's segment
	// payloads: the catalog entry is published first (so a crash leaves a
	// record repair can backfill), which makes the model nameable before it
	// is readable. LCPQuery does not hand such a model out, and a segment
	// miss on it sends the reader to a sibling replica that has finished.
	storing atomic.Bool
}

// Provider is one EvoStore storage provider.
type Provider struct {
	id int
	kv kvstore.KV
	// kvB is kv's optional byte-key read fast path (nil when unsupported);
	// ReadSegments uses it to look segments up without per-key string
	// allocations.
	kvB kvstore.ByteKeyGetter

	// place is the epoch-versioned placement guard (see SetPlacement /
	// SetPlacementState): writes for models whose replica set under no
	// active epoch includes this provider are rejected with a typed
	// wrong-epoch error carrying the current table. nil means accept
	// everything (the pre-replication wire behaviour). An atomic pointer
	// so the hot paths read it without taking p.mu.
	place atomic.Pointer[placement.State]

	// reg is the registry the Metrics RPC snapshots (default
	// metrics.Default, which the resilience middleware also writes to).
	reg *metrics.Registry

	mu     sync.RWMutex
	models map[ownermap.ModelID]*modelMeta
	// refs holds live reference counts, grouped by owning model so the
	// repair digest and pull paths can walk one model's counters without
	// scanning every segment this provider stores.
	refs map[ownermap.ModelID]map[graph.VertexID]int

	// journals record every refcount delta applied per owner, keyed by the
	// originating ReqID; the anti-entropy repairer unions journals across
	// replicas to replay exactly the deltas a stale replica missed. See
	// repair.go.
	journals map[ownermap.ModelID]*refJournal
	// retired are retire tombstones (model → seq at retire): they
	// disambiguate "never stored" from "retired" so repair never
	// resurrects a retired model, and they reject late stores of one.
	retired      map[ownermap.ModelID]uint64
	retiredOrder []ownermap.ModelID

	// dedup answers retried non-idempotent requests (by proto ReqID) from
	// their recorded responses instead of re-executing them.
	dedup *dedupTable

	// cat, when non-nil, makes commit write every catalog mutation through
	// to the KV under cat/ keys, which NewDurable recovers at open — the
	// durable deployment mode (see catalog.go). Volatile providers leave it
	// nil.
	cat *catalogStore

	// onPlacement, when set, observes every placement install (SetPlacement
	// and SetPlacementState); the server uses it to persist the new state
	// into its data dir's manifest.
	onPlacement atomic.Pointer[func(*placement.State)]

	// throttle, when armed via SetThrottle, applies per-tenant token-bucket
	// admission to segment reads (the front door). nil admits everything.
	// An atomic pointer so the read path never takes p.mu for it.
	throttle atomic.Pointer[frontdoor.Throttler]

	// readFlights collapses concurrent identical segment reads into one
	// execution (the provider half of front-door coalescing; the client
	// coalesces its own duplicate reads before they reach the wire, this
	// catches duplicates across distinct clients). Keyed by the canonical
	// request encoding with the tenant cleared — see readFlightKey.
	readFlights frontdoor.Group[string, rpc.Message]

	// heat tracks per-model EWMA read/write byte rates; exported as an
	// optional trailer on the Metrics RPC so the rebalancing controller
	// can see which models are hot without a new wire surface.
	heat *metrics.HeatMap
}

// New creates a provider with the given index backed by kv (segments are
// persisted there; catalog metadata and refcounts are kept in memory, as in
// the paper's in-memory deployment mode).
func New(id int, kv kvstore.KV) *Provider {
	kvB, _ := kv.(kvstore.ByteKeyGetter)
	return &Provider{
		id:       id,
		kv:       kv,
		kvB:      kvB,
		reg:      metrics.Default,
		models:   make(map[ownermap.ModelID]*modelMeta),
		refs:     make(map[ownermap.ModelID]map[graph.VertexID]int),
		journals: make(map[ownermap.ModelID]*refJournal),
		retired:  make(map[ownermap.ModelID]uint64),
		dedup:    newDedupTable(dedupCap),
		heat:     metrics.NewHeatMap(metrics.DefaultHeatHalfLife),
	}
}

// ID returns the provider index.
func (p *Provider) ID() int { return p.id }

// SetPlacement arms the replica-placement guard with the legacy epoch-0
// table: the provider will accept writes only for models whose replica set
// (home hash plus the next replicas-1 successors modulo deploySize)
// includes this provider's ID. Replication moved writes beyond the home
// hash, so the guard is what still catches a client whose address list
// disagrees with the deployment's. Call before serving; deploySize <= 0
// disables the guard. Membership changes replace the table via
// SetPlacementState (the evostore.set_placement RPC).
func (p *Provider) SetPlacement(deploySize, replicas int) {
	if deploySize <= 0 {
		p.place.Store(nil)
		p.notifyPlacement(nil)
		return
	}
	if replicas < 1 {
		replicas = 1
	}
	if replicas > deploySize {
		replicas = deploySize
	}
	st := &placement.State{Cur: placement.New(deploySize, replicas)}
	p.place.Store(st)
	p.notifyPlacement(st)
}

// OnPlacementChange registers fn to run after every placement install
// (including the initial SetPlacement). The server persists the installed
// state into its manifest here, so a restart rejoins at the right epoch.
func (p *Provider) OnPlacementChange(fn func(*placement.State)) {
	p.onPlacement.Store(&fn)
}

func (p *Provider) notifyPlacement(st *placement.State) {
	if fn := p.onPlacement.Load(); fn != nil {
		(*fn)(st)
	}
}

// SetMetricsRegistry points the Metrics RPC at reg (default
// metrics.Default).
func (p *Provider) SetMetricsRegistry(reg *metrics.Registry) {
	if reg != nil {
		p.reg = reg
	}
}

// SetDedupTTL sets the age after which dedup entries expire (default
// DefaultDedupTTL). The TTL must cover the deployment's client retry
// budget — an entry expiring while a retry of its request is still
// possible would let that retry re-execute a completed mutation. 0
// disables age-based expiry (the FIFO cap still applies).
func (p *Provider) SetDedupTTL(ttl time.Duration) { p.dedup.setTTL(ttl) }

// acceptsWrite reports whether the placement guard admits a write keyed by
// id (a model being stored/retired, or the owner of refcounted segments).
// During a migration both active epochs admit writes; outside one only the
// current table does. A rejection is placement.ErrWrongEpoch: the stale
// client re-syncs its view and retries.
func (p *Provider) acceptsWrite(id ownermap.ModelID) error {
	st := p.place.Load()
	if st == nil || st.Contains(p.id, id) {
		return nil
	}
	p.reg.Counter("provider.placement_reject").Inc()
	return fmt.Errorf("provider %d: not a replica of model %d in any active epoch: %w",
		p.id, id, placement.ErrWrongEpoch)
}

// missErr classifies a state miss for a model this provider was asked
// about: a provider outside the model's replica set under every active
// epoch answers wrong-epoch (the caller's table is stale — self-update and
// retry elsewhere); a replica that joined the set in the current epoch and
// has not been backfilled yet answers not-migrated (the caller should use
// the previous epoch's owners); otherwise the miss is genuine and nil is
// returned so the caller reports plain not-found.
func (p *Provider) missErr(id ownermap.ModelID) error {
	st := p.place.Load()
	if st == nil {
		return nil
	}
	if !st.Contains(p.id, id) {
		return fmt.Errorf("provider %d: model %d: %w", p.id, id, placement.ErrWrongEpoch)
	}
	if st.CatchingUp(p.id, id) {
		return fmt.Errorf("provider %d: model %d: %w", p.id, id, placement.ErrNotMigrated)
	}
	return nil
}

// once runs a non-idempotent request at most once per ReqID: a retry of
// one that succeeded is answered from the dedup table (counted as
// provider.dedup_hit, the signal that a client is retrying lost responses
// against this provider), and a first success records its response there.
func (p *Provider) once(reqID uint64, run func() ([]byte, error)) (rpc.Message, error) {
	if meta, done := p.dedup.get(reqID); done {
		p.reg.Counter("provider.dedup_hit").Inc()
		return rpc.Message{Meta: meta}, nil
	}
	resp, err := run()
	if err != nil {
		return rpc.Message{}, err
	}
	p.dedup.put(reqID, resp)
	return rpc.Message{Meta: resp}, nil
}

// Register installs all EvoStore handlers on srv.
func (p *Provider) Register(srv *rpc.Server) {
	srv.Register(proto.RPCStoreModel, p.handleStoreModel)
	srv.Register(proto.RPCGetMeta, p.handleGetMeta)
	srv.Register(proto.RPCReadSegments, p.handleReadSegments)
	srv.Register(proto.RPCIncRef, p.handleRef(false))
	srv.Register(proto.RPCDecRef, p.handleRef(true))
	srv.Register(proto.RPCRetire, p.handleRetire)
	srv.Register(proto.RPCLCPQuery, p.handleLCPQuery)
	srv.Register(proto.RPCListModels, p.handleListModels)
	srv.Register(proto.RPCStats, p.handleStats)
	srv.Register(proto.RPCMetrics, p.handleMetrics)
	srv.Register(proto.RPCRepairList, p.handleRepairList)
	srv.Register(proto.RPCDigest, p.handleDigest)
	srv.Register(proto.RPCRepairPull, p.handleRepairPull)
	srv.Register(proto.RPCRepairApply, p.handleRepairApply)
	srv.Register(proto.RPCPlacement, p.handlePlacement)
	srv.Register(proto.RPCSetPlacement, p.handleSetPlacement)
	srv.Register(proto.RPCEvict, p.handleEvict)
	srv.Register(proto.RPCHello, p.handleHello)
}

// handleHello answers the restart-rejoin handshake: a recovering peer
// announces its manifest epoch and learns this provider's placement view,
// adopting the newest epoch it hears before serving traffic.
func (p *Provider) handleHello(_ context.Context, req rpc.Message) (rpc.Message, error) {
	if _, err := proto.DecodeHello(req.Meta); err != nil {
		return rpc.Message{}, fmt.Errorf("provider %d: hello: %w", p.id, err)
	}
	p.reg.Counter("provider.hello").Inc()
	st := p.place.Load()
	p.mu.RLock()
	models := uint64(len(p.models))
	p.mu.RUnlock()
	resp := &proto.HelloResp{
		Hello: proto.Hello{
			Provider: uint32(p.id),
			Format:   kvstore.ManifestFormatVersion,
			Epoch:    placement.EpochOf(st),
			Models:   models,
		},
		Placement: placement.EncodeState(st),
	}
	return rpc.Message{Meta: resp.Encode()}, nil
}

// --- store -------------------------------------------------------------------

func (p *Provider) handleStoreModel(_ context.Context, req rpc.Message) (rpc.Message, error) {
	q, err := proto.DecodeStoreModelReq(req.Meta)
	if err != nil {
		return rpc.Message{}, fmt.Errorf("provider %d: store: %w", p.id, err)
	}
	return p.once(q.ReqID, func() ([]byte, error) {
		segs, err := proto.SplitBulkMsg(q.Segments, req)
		if err != nil {
			return nil, fmt.Errorf("provider %d: store %d: %w", p.id, q.Model, err)
		}
		return proto.EncodeU64(uint64(q.Model)), p.StoreModel(q, segs)
	})
}

// StoreModel installs a model: catalog entry plus its self-owned segments.
// Refcounts of the stored segments are incremented for the new model
// itself; refcounts of inherited segments live on their owners' providers
// and are incremented by the client via IncRef.
func (p *Provider) StoreModel(q *proto.StoreModelReq, segs [][]byte) error {
	if q.OwnerMap.Len() != q.Graph.NumVertices() {
		return fmt.Errorf("provider %d: store %d: owner map covers %d vertices, graph has %d",
			p.id, q.Model, q.OwnerMap.Len(), q.Graph.NumVertices())
	}
	// Validate every shipped segment belongs to a vertex the model owns.
	for _, s := range q.Segments {
		if int(s.Vertex) >= q.Graph.NumVertices() {
			return fmt.Errorf("provider %d: store %d: segment vertex %d out of range", p.id, q.Model, s.Vertex)
		}
		e, err := q.OwnerMap.OwnerOf(s.Vertex)
		if err != nil {
			return err
		}
		if e.Owner != q.Model {
			return fmt.Errorf("provider %d: store %d: segment for vertex %d owned by %d",
				p.id, q.Model, s.Vertex, e.Owner)
		}
	}

	var meta *modelMeta
	written := 0
	err := p.commit("store", q.Model, p.acceptsWrite, func(c *change) error {
		if _, dead := p.retired[q.Model]; dead {
			return fmt.Errorf("provider %d: store %d: model was retired", p.id, q.Model)
		}
		if p.seenLocked(q.Model, q.ReqID) {
			// The repairer already replayed this store's refcount delta (and
			// installed its metadata) from a healthy replica's journal.
			p.reg.Counter("provider.journal_dup").Inc()
			return nil
		}
		if _, dup := p.models[q.Model]; dup {
			return fmt.Errorf("provider %d: model %d already stored", p.id, q.Model)
		}
		meta = &modelMeta{entry: &proto.ModelMeta{Model: q.Model, Seq: q.Seq, Quality: q.Quality,
			Graph: q.Graph, OwnerMap: q.OwnerMap}}
		meta.storing.Store(true)
		p.models[q.Model] = meta
		stored := make([]graph.VertexID, len(q.Segments))
		for i, s := range q.Segments {
			p.refAddLocked(q.Model, s.Vertex, 1)
			stored[i] = s.Vertex
			c.put(segKey{q.Model, s.Vertex}, segs[i])
			written += len(segs[i])
		}
		p.recordDeltaLocked(q.Model, q.ReqID, false, stored)
		c.dirty |= dirtyModel | dirtyRefs | dirtyJournal
		return nil
	})
	if meta == nil {
		return err // nothing installed: rejected, or a journal duplicate
	}
	// The entry was published before its payloads were written; commit has
	// written them (or failed) by now.
	meta.storing.Store(false)
	if err == nil {
		p.heat.ObserveWrite(uint64(q.Model), written)
	}
	return err
}

// --- metadata reads ------------------------------------------------------------

func (p *Provider) handleGetMeta(_ context.Context, req rpc.Message) (rpc.Message, error) {
	id, err := proto.DecodeModelID(req.Meta)
	if err != nil {
		return rpc.Message{}, err
	}
	m, err := p.GetMeta(id)
	if err != nil {
		return rpc.Message{}, err
	}
	return rpc.Message{Meta: m.Encode()}, nil
}

// GetMeta returns the catalog entry for id, shared: callers must not
// modify it.
func (p *Provider) GetMeta(id ownermap.ModelID) (*proto.ModelMeta, error) {
	p.mu.RLock()
	meta := p.models[id]
	p.mu.RUnlock()
	if meta == nil {
		if err := p.missErr(id); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("provider %d: model %d not found", p.id, id)
	}
	return meta.entry, nil
}

// --- segment reads ---------------------------------------------------------------

func (p *Provider) handleReadSegments(_ context.Context, req rpc.Message) (rpc.Message, error) {
	q, err := proto.DecodeReadSegmentsReq(req.Meta)
	if err != nil {
		return rpc.Message{}, err
	}
	p.reg.Counter("provider.read_request").Inc()
	// Admission precedes coalescing: a throttled tenant must not ride
	// another tenant's in-flight read past its own budget.
	if th := p.throttle.Load(); th != nil {
		if err := th.Admit(q.Tenant); err != nil {
			p.reg.Counter("provider.throttled").Inc()
			return rpc.Message{}, fmt.Errorf("provider %d: read %d: %w", p.id, q.Owner, err)
		}
	}
	resp, shared, err := p.readFlights.Do(readFlightKey(q), func() (rpc.Message, error) {
		p.reg.Counter("provider.read_exec").Inc()
		p.reg.Counter("provider.read_segments_exec").Add(uint64(len(q.Vertices)))
		return p.readSegmentsResp(q)
	})
	if shared {
		p.reg.Counter("provider.read_coalesced").Inc()
	}
	if err != nil {
		return rpc.Message{}, err
	}
	// Bytes are charged after the read (the request doesn't carry its
	// response size); the bucket absorbs the debt and delays the tenant's
	// next admission instead — see frontdoor.Bucket.Force.
	if th := p.throttle.Load(); th != nil {
		th.ChargeBytes(q.Tenant, resp.BulkLen())
	}
	p.heat.ObserveRead(uint64(q.Owner), resp.BulkLen())
	return resp, nil
}

// readFlightKey is the coalescing key: the canonical request encoding with
// the tenant cleared, so distinct tenants asking for the same bytes share
// one execution (per-tenant admission has already run by then).
func readFlightKey(q *proto.ReadSegmentsReq) string {
	if q.Tenant == "" {
		return string(q.Encode())
	}
	c := *q
	c.Tenant = ""
	return string(c.Encode())
}

// readSegmentsResp executes one segment read: the table in meta, one
// zero-copy bulk slice per segment. Runs at most once per coalesced flight.
func (p *Provider) readSegmentsResp(q *proto.ReadSegmentsReq) (rpc.Message, error) {
	table, segs, err := p.ReadSegments(q.Owner, q.Vertices)
	if err != nil {
		return rpc.Message{}, err
	}
	var total uint64
	for _, s := range table {
		total += uint64(s.Length)
	}
	if total > rpc.MaxFrame {
		// Typed server-side mirror of the client's segment guard: never
		// hand the transport a payload whose length field would not fit
		// the frame (the caller should ask for fewer vertices per read).
		return rpc.Message{}, fmt.Errorf("provider %d: read %d: %d-byte response %w",
			p.id, q.Owner, total, rpc.ErrFrameTooLarge)
	}
	return rpc.Message{Meta: proto.EncodeSegTable(table), BulkVec: segs}, nil
}

// isStoring reports whether id's StoreModel is still writing payloads.
func (p *Provider) isStoring(id ownermap.ModelID) bool {
	p.mu.RLock()
	m := p.models[id]
	p.mu.RUnlock()
	return m != nil && m.storing.Load()
}

// ReadSegments resolves the requested vertices' segments (all owned by
// owner) into one describing table plus one zero-copy view per segment —
// the KV's stored buffers, never concatenated. Callers must treat the
// returned slices as immutable (kvstore contract).
func (p *Provider) ReadSegments(owner ownermap.ModelID, vertices []graph.VertexID) ([]proto.SegmentRef, [][]byte, error) {
	table := make([]proto.SegmentRef, 0, len(vertices))
	segs := make([][]byte, 0, len(vertices))
	var kb [segKeyLen]byte // reused per vertex on the byte-key fast path
	for _, v := range vertices {
		k := segKey{owner, v}
		var (
			seg []byte
			ok  bool
			err error
		)
		if p.kvB != nil {
			seg, ok, err = p.kvB.GetB(k.appendTo(kb[:0]))
		} else {
			seg, ok, err = p.kv.Get(k.String())
		}
		if err != nil {
			return nil, nil, fmt.Errorf("provider %d: reading %s: %w", p.id, k, err)
		}
		if !ok {
			if err := p.missErr(owner); err != nil {
				return nil, nil, err
			}
			if p.isStoring(owner) {
				// Published but not yet filled here; a reader can only have
				// learned of the model from a replica that finished, so send
				// it there instead of answering an authoritative not-found.
				return nil, nil, fmt.Errorf("provider %d: segment %d/%d: store in progress: %w",
					p.id, owner, v, placement.ErrNotMigrated)
			}
			// Not storing now, but a store may have been when the Get missed
			// and finished since: its payload is readable by now.
			if seg, ok, err = p.kv.Get(k.String()); err != nil {
				return nil, nil, fmt.Errorf("provider %d: reading %s: %w", p.id, k, err)
			}
			if !ok {
				return nil, nil, fmt.Errorf("provider %d: segment %d/%d not found", p.id, owner, v)
			}
		}
		table = append(table, proto.SegmentRef{Vertex: v, Length: uint32(len(seg))})
		segs = append(segs, seg)
	}
	return table, segs, nil
}

// --- reference counting / GC -----------------------------------------------------

// handleRef serves evostore.inc_ref (neg false) and evostore.dec_ref (neg
// true); the reply is the number of segments the delta freed.
func (p *Provider) handleRef(neg bool) rpc.Handler {
	return func(_ context.Context, req rpc.Message) (rpc.Message, error) {
		q, err := proto.DecodeRefReq(req.Meta)
		if err != nil {
			return rpc.Message{}, err
		}
		return p.once(q.ReqID, func() ([]byte, error) {
			freed, err := p.refDelta(q.Owner, q.Vertices, q.ReqID, neg)
			return proto.EncodeU64(freed), err
		})
	}
}

// IncRef increments the reference counter of each (owner, vertex) segment.
// Referencing a segment that does not exist is an error: it would mean a
// client derived from tensors this provider never stored.
func (p *Provider) IncRef(owner ownermap.ModelID, vertices []graph.VertexID) error {
	_, err := p.refDelta(owner, vertices, 0, false)
	return err
}

// DecRef decrements the reference counter of each (owner, vertex) segment,
// deleting segments whose counter reaches zero. It returns the number of
// segments freed. The whole batch is O(k) in the number of leaf layers.
func (p *Provider) DecRef(owner ownermap.ModelID, vertices []graph.VertexID) (uint64, error) {
	return p.refDelta(owner, vertices, 0, true)
}

// refDelta applies one refcount batch: +1 on each (owner, vertex), or −1
// when neg, as the journal records it. The batch is all-or-nothing — every
// vertex is validated before any counter changes — and a decrement deletes
// the segments whose counter reaches zero, returning how many it freed.
func (p *Provider) refDelta(owner ownermap.ModelID, vertices []graph.VertexID, reqID uint64, neg bool) (uint64, error) {
	op, delta := "inc_ref", 1
	if neg {
		op, delta = "dec_ref", -1
	}
	var freed uint64
	err := p.commit(op, owner, p.acceptsWrite, func(c *change) error {
		if p.seenLocked(owner, reqID) {
			// Already applied by a repair replay of this request's delta; the
			// freed count is unknown but only feeds best-effort accounting.
			p.reg.Counter("provider.journal_dup").Inc()
			return nil
		}
		for _, v := range vertices {
			if p.refs[owner][v] == 0 {
				if err := p.missErr(owner); err != nil {
					// A replica catching up on this owner's migration: the delta
					// is journaled on the previous epoch's owners and replayed
					// here by the rebalancer's converge pass.
					return fmt.Errorf("%s %d/%d: %w", op, owner, v, err)
				}
				return fmt.Errorf("provider %d: %s on missing segment %d/%d", p.id, op, owner, v)
			}
		}
		for _, v := range vertices {
			if p.refAddLocked(owner, v, delta) == 0 {
				c.dels = append(c.dels, segKey{owner, v})
			}
		}
		freed = uint64(len(c.dels))
		p.recordDeltaLocked(owner, reqID, neg, vertices)
		c.dirty |= dirtyRefs | dirtyJournal
		return nil
	})
	if err != nil {
		return 0, err
	}
	return freed, nil
}

// --- retire ------------------------------------------------------------------------

func (p *Provider) handleRetire(_ context.Context, req rpc.Message) (rpc.Message, error) {
	q, err := proto.DecodeRetireReq(req.Meta)
	if err != nil {
		return rpc.Message{}, err
	}
	return p.once(q.ReqID, func() ([]byte, error) {
		om, err := p.Retire(q.Model)
		if err != nil {
			return nil, err
		}
		return om.Encode(), nil
	})
}

// Retire removes the model's catalog entry immediately ("the metadata of
// the retired model is always fully removed") and returns its owner map so
// the client can decrement the refcounts of every referenced segment across
// providers. The segments themselves survive until their counters drop to
// zero.
func (p *Provider) Retire(id ownermap.ModelID) (*ownermap.Map, error) {
	var om *ownermap.Map
	err := p.commit("retire", id, p.acceptsWrite, func(c *change) error {
		meta := p.models[id]
		if meta == nil {
			if _, dead := p.retired[id]; dead {
				return fmt.Errorf("provider %d: retire: model %d already retired", p.id, id)
			}
			if err := p.missErr(id); err != nil {
				return fmt.Errorf("retire: %w", err)
			}
			return fmt.Errorf("provider %d: retire: model %d not found", p.id, id)
		}
		delete(p.models, id)
		p.tombstoneLocked(id, meta.entry.Seq)
		c.dirty |= dirtyModel | dirtyTomb
		om = meta.entry.OwnerMap
		return nil
	})
	if err != nil {
		return nil, err
	}
	return om, nil
}

// --- collective LCP query -------------------------------------------------------------

func (p *Provider) handleLCPQuery(_ context.Context, req rpc.Message) (rpc.Message, error) {
	q, err := proto.DecodeLCPQueryReq(req.Meta)
	if err != nil {
		return rpc.Message{}, err
	}
	res := p.LCPQuery(q)
	return rpc.Message{Meta: res.Encode()}, nil
}

// LCPQuery scans the provider's share of the catalog (see homeTable) for
// the best transfer ancestor of the query graph under proto.LCPBeats:
// longest common prefix, ties broken by quality or recency (paper §2, §6).
// This is the provider-side "map" step of the collective query; the result
// carries the winner's catalog entry so the client needs no second round.
func (p *Provider) LCPQuery(q *proto.LCPQueryReq) *proto.LCPResult {
	var excluded map[ownermap.ModelID]bool
	if len(q.Exclude) > 0 {
		excluded = make(map[ownermap.ModelID]bool, len(q.Exclude))
		for _, id := range q.Exclude {
			excluded[id] = true
		}
	}
	homes := p.homeTable(q)

	// Snapshot the share so the scan runs without blocking writers. It
	// stays in map order: proto.LCPBeats is a total order, so the winner
	// does not depend on the order of the scan.
	p.mu.RLock()
	n := len(p.models)
	if homes != nil && homes.R() > 1 {
		n /= homes.R() // the provider is home for about one in R of its models
	}
	cands := make([]*proto.ModelMeta, 0, n)
	for id, m := range p.models {
		if !excluded[id] && !m.storing.Load() && (homes == nil || homes.Home(id) == p.id) {
			cands = append(cands, m.entry)
		}
	}
	p.mu.RUnlock()
	p.reg.Counter("provider.lcp_scanned").Add(uint64(len(cands)))

	scanner := graph.NewLCPScanner(q.Graph)
	var best *proto.ModelMeta
	bestSize := 0
	for _, c := range cands {
		size := scanner.SizeAgainst(c.Graph)
		if size > 0 && (best == nil || proto.LCPBeats(size, c, bestSize, best, q.PreferRecent)) {
			best, bestSize = c, size
		}
	}
	if best == nil {
		return &proto.LCPResult{}
	}
	// The scanner is this call's own, so its prefix slice can be handed out.
	return &proto.LCPResult{Meta: best, Prefix: scanner.Against(best.Graph)}
}

// homeTable is the table whose homes split q's scan, or nil when this
// provider scans all it holds. It filters only when q names its complete
// table (placement.State.Complete). Any other name (a stale or a newer
// client, or none) and an unguarded provider scan everything: answering
// twice is harmless, as the client's reduce is a total order.
func (p *Provider) homeTable(q *proto.LCPQueryReq) *placement.Table {
	st := p.place.Load()
	if q.Table == 0 || st == nil || st.Cur == nil {
		return nil
	}
	if t := st.Complete(); proto.TableName(t.Epoch) == q.Table {
		return t
	}
	return nil
}

// --- listing & stats ---------------------------------------------------------------------

func (p *Provider) handleListModels(_ context.Context, _ rpc.Message) (rpc.Message, error) {
	return rpc.Message{Meta: proto.EncodeModelList(p.ListModels())}, nil
}

// ListModels returns the cataloged model IDs in ascending order.
func (p *Provider) ListModels() []ownermap.ModelID {
	p.mu.RLock()
	ids := make([]ownermap.ModelID, 0, len(p.models))
	for id := range p.models {
		ids = append(ids, id)
	}
	p.mu.RUnlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func (p *Provider) handleStats(_ context.Context, _ rpc.Message) (rpc.Message, error) {
	return rpc.Message{Meta: p.Stats().Encode()}, nil
}

// handleMetrics snapshots the provider-side metrics registry so operators
// can see retries, breaker transitions and replica traffic per provider,
// not just per client (the server-side half of the stats story).
func (p *Provider) handleMetrics(_ context.Context, _ rpc.Message) (rpc.Message, error) {
	return rpc.Message{Meta: proto.EncodeCountersHeat(p.reg.Snapshot(), p.HeatSnapshot())}, nil
}

// HeatSnapshot returns the provider's current per-model heat, hottest
// models included only while their EWMA rate stays above the noise floor.
func (p *Provider) HeatSnapshot() []proto.ModelHeat {
	samples := p.heat.Snapshot()
	if len(samples) == 0 {
		return nil
	}
	out := make([]proto.ModelHeat, len(samples))
	for i, s := range samples {
		out[i] = proto.ModelHeat{
			Model:    ownermap.ModelID(s.ID),
			ReadBps:  s.ReadBps,
			WriteBps: s.WriteBps,
		}
	}
	return out
}

// Stats summarizes the provider's storage state.
func (p *Provider) Stats() *proto.ProviderStats {
	p.mu.RLock()
	s := &proto.ProviderStats{Models: uint64(len(p.models))}
	for _, vs := range p.refs {
		for _, n := range vs {
			s.Segments++
			s.LiveRefs += uint64(n)
		}
	}
	p.mu.RUnlock()
	s.SegmentBytes = uint64(p.kv.SizeBytes())
	return s
}

// RefCount reports the live reference count of one segment (for tests).
func (p *Provider) RefCount(owner ownermap.ModelID, v graph.VertexID) int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.refs[owner][v]
}

// refAddLocked adjusts one refcount by delta, creating or deleting map
// entries at the zero boundary, and returns the new count.
func (p *Provider) refAddLocked(owner ownermap.ModelID, v graph.VertexID, delta int) int {
	vs := p.refs[owner]
	n := vs[v] + delta
	if n <= 0 {
		if vs != nil {
			delete(vs, v)
			if len(vs) == 0 {
				delete(p.refs, owner)
			}
		}
		return 0
	}
	if vs == nil {
		vs = make(map[graph.VertexID]int)
		p.refs[owner] = vs
	}
	vs[v] = n
	return n
}
