// Package client implements the EvoStore client library: the application-
// side half of the repository. It maps model IDs to providers through an
// epoch-versioned placement table (internal/placement; the epoch-0 table
// reproduces the paper's static modulo hash bit-for-bit, optionally
// replicated N ways onto the hash successors), consolidates modified
// tensors into single bulk writes, follows owner maps to scatter partial
// reads across providers in parallel — failing reads over to sibling
// replicas when a provider misbehaves — broadcasts collective LCP queries
// and reduces their results, and drives distributed retirement (metadata
// removal + reference-count decrements). During a membership change the
// table is dual-epoch and the client reads through both epochs and writes
// through their union until the migration drains (see rebalance.go).
//
// Paper counterpart: the EvoStore client library of §4.1 linked into every
// NAS worker.
//
// Contracts:
//   - Thread safety: Client is safe for concurrent use. Beyond the
//     connection slice it holds the active placement view (an atomic
//     pointer), the client-wide segment cache, the in-flight read table
//     that coalesces identical reads, the hedge budget and the repair
//     queue, each behind its own lock.
//   - Idempotency: the client stamps every mutating request (StoreModel,
//     IncRef, DecRef, Retire) with a process-unique ReqID, so connections
//     wrapped with the resilient middleware may retry them safely — the
//     provider answers a retried, already-executed request from its dedup
//     table. Plain reads carry no ReqID; they are idempotent as-is.
//   - Fault tolerance: collective queries (QueryLCP) tolerate degraded
//     providers: when a leg fails, the providers that answered are asked
//     once more to scan all they hold. With replication (WithReplicas),
//     point reads fail over through the replica set — skipping providers
//     behind an open breaker — and mutations fan out to every replica and
//     require all of them, so replicas stay bit-identical. Failures are
//     annotated with the provider index for the resilience layer or caller
//     to act on.
package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/frontdoor"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/ownermap"
	"repro/internal/placement"
	"repro/internal/proto"
	"repro/internal/rpc"
)

// Request IDs deduplicate retried mutations on providers. The high 32
// bits are drawn once per process, the low 32 increment per request;
// collisions would need two clients sharing the random half inside one
// provider's bounded dedup window, which is vanishingly unlikely.
var (
	reqIDHi  = rand.Uint64() << 32
	reqIDSeq atomic.Uint64
)

// nextReqID returns a fresh nonzero request ID.
func nextReqID() uint64 {
	for {
		if id := reqIDHi | (reqIDSeq.Add(1) & 0xffffffff); id != 0 {
			return id
		}
	}
}

// Client talks to a fixed set of providers. Index i of conns is provider i;
// model IDs are mapped to providers by the active placement table — by
// default the epoch-0 table over all connections, which is the paper's
// static modulo hash (§4.1) with an optional N-way replica set on the hash
// successors (see replication.go and placement.go).
type Client struct {
	conns    []rpc.Conn
	replicas int
	explicit *placement.Table                // WithPlacement override for the initial table
	place    atomic.Pointer[placement.State] // active placement view; never nil after New
	reg      *metrics.Registry

	partialWrites bool // accept outage-shaped partial mutations (see repair.go)
	// rebalanceMu serializes placement transitions driven through this
	// client: concurrent Rebalancer.Rebalance calls (controller cycle vs
	// manual operator push) run one at a time, so exactly one epoch bump
	// wins and the loser observes the new epoch instead of corrupting the
	// migration.
	rebalanceMu sync.Mutex
	repairMu    sync.Mutex
	repairQ     []RepairTarget
	repairSeen  map[ownermap.ModelID]bool

	cache       *segCache
	segCacheMax int64 // WithSegCacheBytes bound; 0 disables the cache

	tenant  string                             // WithTenant: admission-control identity on segment reads
	flights frontdoor.Group[string, groupRead] // coalesces concurrent identical owner-group reads

	hedge *hedger // WithHedgedReads: tail-latency hedging; nil disables

	counters
}

// counters are the client.* counters in the client's registry.
type counters struct {
	failovers      *metrics.Counter // reads served by a non-preferred replica
	breakerSkips   *metrics.Counter // replicas skipped on an open breaker
	partialAcc     *metrics.Counter // partial writes accepted for repair
	repairDrops    *metrics.Counter // repair targets dropped on a full queue
	epochAdopts    *metrics.Counter // newer placement views adopted from rejections or sync
	deferred       *metrics.Counter // mutations accepted with catching-up replicas left to repair
	coalesced      *metrics.Counter // reads served by joining another caller's in-flight fetch
	throttled      *metrics.Counter // reads a provider's admission control refused past resilient's paced retries
	hedgedReads    *metrics.Counter // hedge legs launched against a slow primary
	hedgeWon       *metrics.Counter // reads won by a hedge leg
	hedgeCancelled *metrics.Counter // in-flight legs cancelled by a sibling's win
	hedgeRefused   *metrics.Counter // hedge launches refused by the token budget
	scoreDemotes   *metrics.Counter // reads routed around a low-scoring preferred replica
	shedRetries    *metrics.Counter // read passes retried after losing a breaker-probe race
}

// registerCounters binds every counter field, the segment cache's two
// included, to its name in the client's registry.
func (c *Client) registerCounters() {
	for _, e := range []struct {
		name  string
		field **metrics.Counter
	}{
		{"client.read_failover", &c.failovers},
		{"client.replica_breaker_skip", &c.breakerSkips},
		{"client.partial_write", &c.partialAcc},
		{"client.repair_queue_drop", &c.repairDrops},
		{"client.epoch_adopt", &c.epochAdopts},
		{"client.migration_deferred", &c.deferred},
		{"client.coalesced_read", &c.coalesced},
		{"client.throttled", &c.throttled},
		{"client.hedged_read", &c.hedgedReads},
		{"client.hedge_won", &c.hedgeWon},
		{"client.hedge_cancelled", &c.hedgeCancelled},
		{"client.hedge_refused", &c.hedgeRefused},
		{"client.score_demote", &c.scoreDemotes},
		{"client.shed_retry", &c.shedRetries},
		{"client.segcache_hit", &c.cache.hits},
		{"client.segcache_miss", &c.cache.misses},
	} {
		*e.field = c.reg.Counter(e.name)
	}
}

// New wraps provider connections. The slice order defines provider IDs and
// must match across all clients of the same deployment.
func New(conns []rpc.Conn, opts ...Option) *Client {
	if len(conns) == 0 {
		panic("client: need at least one provider connection")
	}
	c := &Client{conns: conns, replicas: 1, reg: metrics.Default,
		repairSeen:  make(map[ownermap.ModelID]bool),
		segCacheMax: defaultSegCacheBytes}
	for _, o := range opts {
		o(c)
	}
	c.cache = newSegCache(c.segCacheMax)
	tbl := c.explicit
	if tbl == nil {
		r := c.replicas
		if r > len(conns) {
			r = len(conns)
		}
		tbl = placement.New(len(conns), r)
	}
	st := &placement.State{Cur: tbl}
	if err := c.checkState(st); err != nil {
		panic("client: " + err.Error())
	}
	c.place.Store(st)
	c.registerCounters()
	return c
}

// HomeProvider returns the model's preferred provider under the active
// placement table (on the epoch-0 table: the modulo hash home).
func (c *Client) HomeProvider(id ownermap.ModelID) int {
	return c.place.Load().Cur.ReplicaSet(id)[0]
}

// ModelData is a fully resolved model: metadata plus one consolidated
// tensor segment per vertex (empty for parameter-free leaves). Segments
// are views the client's segment cache and concurrent loads may share:
// treat them as read-only.
type ModelData struct {
	Meta     *proto.ModelMeta
	Segments [][]byte
}

// ownerGroups partitions a model's vertices by owning model, ascending.
func ownerGroups(om *ownermap.Map) []ownermap.OwnerGroup { return om.Owners() }

// --- store ---------------------------------------------------------------------

// Store publishes a model. segments must hold one entry per vertex of
// meta.Graph; only the entries of vertices meta.OwnerMap assigns to the
// model itself are shipped (the modified tensors) — inherited entries are
// ignored and may be nil.
//
// The call first pins all inherited segments by incrementing their
// reference counts on the owners' providers, one owner group after
// another, then sends one consolidated write to the model's home
// provider. Pinning first means a concurrent retirement of the ancestor
// can never free tensors this model now depends on; if pinning fails the
// store is aborted and already-taken pins are rolled back.
func (c *Client) Store(ctx context.Context, meta *proto.ModelMeta, segments [][]byte) error {
	n := meta.Graph.NumVertices()
	if meta.OwnerMap.Len() != n || len(segments) != n {
		return fmt.Errorf("client: store %d: graph %d vertices, owner map %d, segments %d",
			meta.Model, n, meta.OwnerMap.Len(), len(segments))
	}

	// Consolidate self-owned segments into one logical bulk payload — as a
	// vector of the caller's slices, never concatenated: the transports
	// either writev the segments directly onto the socket or hand the
	// references to the in-process handler. Validate lengths before pinning
	// anything: the wire carries a u32 per segment, and silently truncating
	// a ≥4 GiB tensor would corrupt the bulk table.
	var table []proto.SegmentRef
	var bulkVec [][]byte
	var selfVertices []graph.VertexID
	for v := 0; v < n; v++ {
		e := meta.OwnerMap.Entries[v]
		if e.Owner != meta.Model {
			continue
		}
		selfVertices = append(selfVertices, graph.VertexID(v))
		seg := segments[v]
		if uint64(len(seg)) >= maxSegmentBytes {
			return fmt.Errorf("client: store %d: segment for vertex %d is %d bytes, exceeds the %d-byte wire limit",
				meta.Model, v, len(seg), maxSegmentBytes)
		}
		table = append(table, proto.SegmentRef{Vertex: graph.VertexID(v), Length: uint32(len(seg))})
		bulkVec = append(bulkVec, seg)
	}

	// Pin inherited segments, grouped by owner. Rollbacks run detached from
	// the caller's cancellation (context.WithoutCancel): after a deadline or
	// cancellation failure the caller's ctx is already dead, and a rollback
	// DecRef issued on it would silently no-op and leak the pins.
	groups := ownerGroups(meta.OwnerMap)
	var pinned []ownermap.OwnerGroup
	rollback := func() {
		undoCtx := context.WithoutCancel(ctx)
		for _, undo := range pinned {
			c.refCall(undoCtx, proto.RPCDecRef, undo.Owner, undo.Vertices) //nolint:errcheck // best-effort rollback
		}
	}
	for _, g := range groups {
		if g.Owner == meta.Model {
			continue
		}
		if err := c.refCall(ctx, proto.RPCIncRef, g.Owner, g.Vertices); err != nil {
			rollback()
			return fmt.Errorf("client: store %d: pinning inherited tensors of %d: %w", meta.Model, g.Owner, err)
		}
		pinned = append(pinned, g)
	}

	req := &proto.StoreModelReq{
		Model:    meta.Model,
		Seq:      meta.Seq,
		Quality:  meta.Quality,
		Graph:    meta.Graph,
		OwnerMap: meta.OwnerMap,
		Segments: table,
		ReqID:    nextReqID(),
	}
	_, err := c.mutateCall(ctx, proto.RPCStoreModel, meta.Model, rpc.Message{Meta: req.Encode(), BulkVec: bulkVec})
	if err != nil {
		if c.acceptPartial(proto.RPCStoreModel, meta.Model, err) {
			// The model is durable on the replicas that accepted; the
			// repairer completes the others from them. The pins taken above
			// stand — the model exists, so its inherited tensors stay pinned.
			return nil
		}
		// A partial fan-out may have landed copies on some replicas; retire
		// them and release their self-owned segments (best effort, detached
		// from cancellation) so a failed store leaves nothing behind.
		// Replicas that never stored the model answer "unknown model", which
		// is exactly what we want to ignore.
		undoCtx := context.WithoutCancel(ctx)
		rreq := &proto.RetireReq{Model: meta.Model, ReqID: nextReqID()}
		c.mutateCall(undoCtx, proto.RPCRetire, meta.Model, rpc.Message{Meta: rreq.Encode()}) //nolint:errcheck // best-effort rollback
		if len(selfVertices) > 0 {
			c.refCall(undoCtx, proto.RPCDecRef, meta.Model, selfVertices) //nolint:errcheck // best-effort rollback
		}
		rollback()
		return fmt.Errorf("client: store %d: %w", meta.Model, err)
	}
	return nil
}

// maxSegmentBytes is the largest segment the wire format can describe (the
// segment table carries u32 lengths). A var so tests can lower it without
// allocating 4 GiB.
var maxSegmentBytes = uint64(1) << 32

func (c *Client) refCall(ctx context.Context, name string, owner ownermap.ModelID, vs []graph.VertexID) error {
	req := &proto.RefReq{Owner: owner, Vertices: vs, ReqID: nextReqID()}
	_, err := c.mutateCall(ctx, name, owner, rpc.Message{Meta: req.Encode()})
	if err != nil && c.acceptPartial(name, owner, err) {
		// The refcount delta is journaled on the replicas that accepted;
		// repair replays it onto the ones that missed it.
		return nil
	}
	return err
}

// --- load ----------------------------------------------------------------------

// GetMeta fetches a model's catalog entry, preferring the home provider
// and failing over through the replica set on transient errors.
func (c *Client) GetMeta(ctx context.Context, id ownermap.ModelID) (*proto.ModelMeta, error) {
	resp, err := c.readCall(ctx, proto.RPCGetMeta, id, rpc.Message{Meta: proto.EncodeModelID(id)})
	if err != nil {
		return nil, fmt.Errorf("client: get_meta %d: %w", id, err)
	}
	return proto.DecodeModelMeta(resp.Meta)
}

// Load reconstructs a whole model: one GetMeta to the home provider, then
// one parallel bulk read per (owner → provider) group following the owner
// map. Lineage depth never adds round trips.
func (c *Client) Load(ctx context.Context, id ownermap.ModelID) (*ModelData, error) {
	meta, err := c.GetMeta(ctx, id)
	if err != nil {
		return nil, err
	}
	segs, err := c.readByOwner(ctx, meta.OwnerMap, nil)
	if err != nil {
		return nil, fmt.Errorf("client: load %d: %w", id, err)
	}
	return &ModelData{Meta: meta, Segments: segs}, nil
}

// LoadVertices reads only the given vertices of a model (the partial-read
// primitive behind transfer learning): tensors are fetched from their
// owners' providers in parallel. The result is indexed by vertex ID, with
// nil entries for vertices that were not requested.
func (c *Client) LoadVertices(ctx context.Context, meta *proto.ModelMeta, vertices []graph.VertexID) ([][]byte, error) {
	want := make(map[graph.VertexID]bool, len(vertices))
	for _, v := range vertices {
		if int(v) >= meta.OwnerMap.Len() {
			return nil, fmt.Errorf("client: load %d: vertex %d out of range", meta.Model, v)
		}
		want[v] = true
	}
	return c.readByOwner(ctx, meta.OwnerMap, want)
}

// readByOwner groups vertices by owner and issues the per-provider bulk
// reads concurrently; want==nil selects every vertex. It returns each
// vertex's segment, indexed by vertex ID.
func (c *Client) readByOwner(ctx context.Context, om *ownermap.Map, want map[graph.VertexID]bool) ([][]byte, error) {
	segs := make([][]byte, om.Len())
	groups := ownerGroups(om)
	var wg sync.WaitGroup
	errs := make([]error, len(groups))
	var mu sync.Mutex // guards segs writes (distinct indices, but keep the race detector certain)
	for gi, g := range groups {
		var vs []graph.VertexID
		for _, v := range g.Vertices {
			if want != nil && !want[v] {
				continue
			}
			// A segment fetched by an earlier load is still current —
			// stored segments are immutable and model IDs never reused —
			// so a cache hit skips the provider round trip entirely.
			if b, ok := c.cache.get(segRef{g.Owner, v}); ok {
				segs[v] = b
				continue
			}
			vs = append(vs, v)
		}
		if len(vs) == 0 {
			continue
		}
		wg.Add(1)
		go func(gi int, owner ownermap.ModelID, vs []graph.VertexID) {
			defer wg.Done()
			table, parts, err := c.readGroup(ctx, owner, vs)
			if err != nil {
				errs[gi] = err
				return
			}
			mu.Lock()
			for i, ref := range table {
				segs[ref.Vertex] = parts[i]
			}
			mu.Unlock()
		}(gi, g.Owner, vs)
	}
	wg.Wait()
	// Annotate each failed leg with the owner group it targeted; readCall
	// already names the replica providers that failed inside each leg.
	var failed []error
	for gi, err := range errs {
		if err != nil {
			failed = append(failed, fmt.Errorf("owner %d: %w", groups[gi].Owner, err))
		}
	}
	if len(failed) > 0 {
		return nil, errors.Join(failed...)
	}
	return segs, nil
}

// --- collective LCP query ----------------------------------------------------------

// QueryLCP broadcasts the candidate architecture to every provider and
// reduces the local best matches to the global best (paper Algorithm 1 +
// the map-reduce-style collective of §4.1). The result carries the
// winner's metadata, so the query is one round. found is false when no
// stored model shares any prefix with g.
func (c *Client) QueryLCP(ctx context.Context, g *graph.Compact, exclude []ownermap.ModelID) (*proto.LCPResult, bool, error) {
	return c.QueryLCPReq(ctx, &proto.LCPQueryReq{Graph: g, Exclude: exclude})
}

// QueryLCPReq is QueryLCP with a fully specified request (exclusions,
// recency preference). The client names its complete placement table
// (placement.State.Complete) so that each provider scans only the models
// it is home for. A failed leg leaves its home share unscanned, so the
// providers that answered are asked once more, naming no table: each scans
// all it holds, and a model is missed only if none of its replicas
// answered that round. Duplicate answers are harmless: the reduce is
// proto.LCPBeats, a total order. The query fails when no provider answers
// the last round it ran.
func (c *Client) QueryLCPReq(ctx context.Context, req *proto.LCPQueryReq) (*proto.LCPResult, bool, error) {
	q := *req
	q.Table = proto.TableName(c.place.Load().Complete().Epoch)

	best := &proto.LCPResult{}
	round := func(conns []rpc.Conn) (answered []rpc.Conn, firstErr error) {
		for i, r := range rpc.Broadcast(ctx, conns, proto.RPCLCPQuery, rpc.Message{Meta: q.Encode()}) {
			var res *proto.LCPResult
			err := r.Err
			if err == nil {
				res, err = proto.DecodeLCPResult(r.Resp.Meta)
			}
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			answered = append(answered, conns[i])
			if res.Better(best, req.PreferRecent) {
				best = res
			}
		}
		return answered, firstErr
	}
	answered, err := round(c.conns)
	if err != nil && len(answered) > 0 {
		q.Table = 0
		answered, _ = round(answered)
	}
	if err != nil && len(answered) == 0 {
		return nil, false, fmt.Errorf("client: lcp query: %w", err)
	}
	return best, best.Found(), nil
}

// --- retire --------------------------------------------------------------------------

// RetireLeak records one owner group whose reference counts a partially
// failed Retire could not decrement. The model's metadata is already gone
// by the time the DecRef legs run, so nothing will retry these decrements:
// the counts are stranded until an operator reconciles them.
type RetireLeak struct {
	Owner    ownermap.ModelID
	Vertices []graph.VertexID
	Err      error
}

// PartialRetireError reports a Retire whose metadata removal succeeded but
// whose DecRef legs partially failed. Every leg is run to completion
// before this is returned; Leaked lists exactly the owner groups whose
// refcounts were stranded, so drift checks (e.g. evostore-bench faults)
// can attribute leftover references to the legs that leaked them.
type PartialRetireError struct {
	Model  ownermap.ModelID
	Leaked []RetireLeak
}

// Error lists the leaked owners and their causes.
func (e *PartialRetireError) Error() string {
	msg := fmt.Sprintf("client: retire %d: %d dec_ref leg(s) failed, refcounts leaked on owners", e.Model, len(e.Leaked))
	for _, l := range e.Leaked {
		msg += fmt.Sprintf(" %d(%d vertices: %v)", l.Owner, len(l.Vertices), l.Err)
	}
	return msg
}

// Unwrap exposes the per-leg causes to errors.Is / errors.As.
func (e *PartialRetireError) Unwrap() []error {
	errs := make([]error, len(e.Leaked))
	for i, l := range e.Leaked {
		errs[i] = l.Err
	}
	return errs
}

// Retire removes a model: its metadata disappears from every replica of
// its home immediately, then the reference counts of every segment its
// owner map references are decremented on the owning providers (and their
// replicas) in parallel. It returns the number of logical segments freed
// cluster-wide.
//
// All DecRef legs run to completion even when some fail: the metadata is
// already gone, so aborting early would strand the remaining owners'
// refcounts without even reporting which ones. Partial failures come back
// as a *PartialRetireError naming every leaked owner group.
func (c *Client) Retire(ctx context.Context, id ownermap.ModelID) (uint64, error) {
	rreq := &proto.RetireReq{Model: id, ReqID: nextReqID()}
	resp, err := c.mutateCall(ctx, proto.RPCRetire, id, rpc.Message{Meta: rreq.Encode()})
	if err != nil {
		// On a partial retire the catalog entry is gone from the replicas
		// that accepted; mutateCall returned their owner-map response, so
		// the DecRef legs below still run. Repair propagates the tombstone
		// to the replicas that missed it.
		if !c.acceptPartial(proto.RPCRetire, id, err) {
			return 0, fmt.Errorf("client: retire %d: %w", id, err)
		}
	}
	om, _, err := ownermap.Decode(resp.Meta)
	if err != nil {
		return 0, fmt.Errorf("client: retire %d: decoding owner map: %w", id, err)
	}

	groups := ownerGroups(om)
	freed := make([]uint64, len(groups))
	errs := make([]error, len(groups))
	var wg sync.WaitGroup
	for gi, g := range groups {
		wg.Add(1)
		go func(gi int, owner ownermap.ModelID, vs []graph.VertexID) {
			defer wg.Done()
			req := &proto.RefReq{Owner: owner, Vertices: vs, ReqID: nextReqID()}
			resp, err := c.mutateCall(ctx, proto.RPCDecRef, owner, rpc.Message{Meta: req.Encode()})
			if err != nil && !c.acceptPartial(proto.RPCDecRef, owner, err) {
				errs[gi] = err
				return
			}
			freed[gi], errs[gi] = proto.DecodeU64(resp.Meta)
		}(gi, g.Owner, g.Vertices)
	}
	wg.Wait()
	var total uint64
	var leaked []RetireLeak
	for gi, g := range groups {
		if errs[gi] != nil {
			leaked = append(leaked, RetireLeak{Owner: g.Owner, Vertices: g.Vertices, Err: errs[gi]})
			continue
		}
		total += freed[gi]
	}
	if len(leaked) > 0 {
		return total, &PartialRetireError{Model: id, Leaked: leaked}
	}
	return total, nil
}

// --- provenance ------------------------------------------------------------------------

// Lineage returns the chain of ancestors that contributed tensors to the
// model, oldest first, ending with the model itself. It needs exactly one
// metadata fetch: the owner map is self-contained (paper §4.1).
func (c *Client) Lineage(ctx context.Context, id ownermap.ModelID) ([]ownermap.ModelID, error) {
	meta, err := c.GetMeta(ctx, id)
	if err != nil {
		return nil, err
	}
	return meta.OwnerMap.Lineage(), nil
}

// CommonAncestor returns the most recent common contributing ancestor of
// two models, resolved from their two owner maps alone.
func (c *Client) CommonAncestor(ctx context.Context, a, b ownermap.ModelID) (ownermap.ModelID, bool, error) {
	ma, err := c.GetMeta(ctx, a)
	if err != nil {
		return 0, false, err
	}
	mb, err := c.GetMeta(ctx, b)
	if err != nil {
		return 0, false, err
	}
	e, ok := ownermap.MostRecentCommonOwner(ma.OwnerMap, mb.OwnerMap)
	return e.Owner, ok, nil
}

// --- listing & stats -----------------------------------------------------------------------

// ListModels returns all model IDs cataloged across the deployment,
// ascending. With replication each model is cataloged R times; the listing
// reports each logical model once.
func (c *Client) ListModels(ctx context.Context) ([]ownermap.ModelID, error) {
	results := rpc.Broadcast(ctx, c.conns, proto.RPCListModels, rpc.Message{})
	seen := make(map[ownermap.ModelID]bool)
	var all []ownermap.ModelID
	for i, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("client: list on provider %d: %w", i, r.Err)
		}
		ids, err := proto.DecodeModelList(r.Resp.Meta)
		if err != nil {
			return nil, err
		}
		for _, id := range ids {
			if !seen[id] {
				seen[id] = true
				all = append(all, id)
			}
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all, nil
}

// Metrics fetches each provider's server-side metrics: its counters
// (retries, breaker transitions, replica activity) and its per-model heat
// samples, which ride the same response. All three results are indexed by
// provider; an unreachable provider yields nil entries and an error in
// errs.
func (c *Client) Metrics(ctx context.Context) (snaps []map[string]uint64, heats [][]proto.ModelHeat, errs []error) {
	results := rpc.Broadcast(ctx, c.conns, proto.RPCMetrics, rpc.Message{})
	snaps = make([]map[string]uint64, len(results))
	heats = make([][]proto.ModelHeat, len(results))
	errs = make([]error, len(results))
	for i, r := range results {
		if r.Err != nil {
			errs[i] = fmt.Errorf("client: metrics on provider %d: %w", i, r.Err)
			continue
		}
		snaps[i], heats[i], errs[i] = proto.DecodeCountersHeat(r.Resp.Meta)
	}
	return snaps, heats, errs
}

// Stats aggregates storage statistics across all providers. With
// replication the sums count physical copies: a segment stored on R
// replicas contributes R times.
func (c *Client) Stats(ctx context.Context) (*proto.ProviderStats, error) {
	results := rpc.Broadcast(ctx, c.conns, proto.RPCStats, rpc.Message{})
	total := &proto.ProviderStats{}
	for i, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("client: stats on provider %d: %w", i, r.Err)
		}
		s, err := proto.DecodeProviderStats(r.Resp.Meta)
		if err != nil {
			return nil, err
		}
		total.Add(s)
	}
	return total, nil
}
