// Package core is the public face of EvoStore: a distributed repository for
// evolving deep-learning models. A Repository stores models as compact
// leaf-layer architecture graphs plus per-vertex tensor segments spread
// over a set of providers, shares unmodified tensors between derived models
// through owner maps, answers longest-common-prefix (LCP) queries to find
// the best transfer-learning ancestor, retires models with distributed
// reference-counting GC, and serves provenance queries from owner maps.
//
// Typical transfer-learning round trip (the NAS inner loop of paper §2):
//
//	anc, found, _ := repo.BestAncestor(ctx, flat)      // collective LCP query
//	ws := model.Materialize(flat, seed)                // fresh weights
//	if found {
//	    repo.TransferPrefix(ctx, flat, ws, anc)        // read inherited tensors
//	}
//	train(ws, frozen: anc.Prefix)                      // only non-frozen change
//	id, _ := repo.StoreDerived(ctx, flat, ws, q, anc, nil) // writes the diff
package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/client"
	"repro/internal/dedup"
	"repro/internal/graph"
	"repro/internal/kvstore"
	"repro/internal/model"
	"repro/internal/ownermap"
	"repro/internal/placement"
	"repro/internal/proto"
	"repro/internal/provider"
	"repro/internal/resilient"
	"repro/internal/rpc"
	"repro/internal/tensor"
)

// ModelID identifies a model in the repository.
type ModelID = ownermap.ModelID

// Repository is a handle on an EvoStore deployment. All methods are safe
// for concurrent use.
type Repository struct {
	cli    *client.Client
	nextID atomic.Uint64
	seq    atomic.Uint64

	repOnce  sync.Once
	repairer *client.Repairer

	rebOnce    sync.Once
	rebalancer *client.Rebalancer

	// embedded deployment resources (nil when attached to remote providers)
	owned  []*provider.Provider
	net    *rpc.InprocNet
	conns  []rpc.Conn
	faults []*rpc.FaultConn
	opts   Options // normalized Open options, kept for RestartProvider
}

// Options configures an embedded (in-process) deployment.
type Options struct {
	// Providers is the number of storage providers. Default 4.
	Providers int
	// SpareProviders adds providers (IDs Providers..Providers+Spare-1)
	// that run and are dialed but start outside the placement table: they
	// hold no data and reject writes until a rebalance (Rebalance, or
	// evostore-ctl placement add) joins them. The elasticity harnesses use
	// a spare as the join target.
	SpareProviders int
	// Backend constructs the KV store of provider i. Default: MemKV, the
	// analogue of the paper's in-memory synchronized pools.
	Backend func(i int) kvstore.KV
	// Faults, when non-nil, returns the fault-injection config for the
	// connection to provider i (nil = no faults for that provider). The
	// injected wrappers are reachable via FaultConns for runtime control
	// (e.g. partitioning a provider mid-run).
	Faults func(i int) *rpc.FaultConfig
	// Resilience, when non-nil, wraps every provider connection with the
	// resilient middleware (deadlines, retries, circuit breaker). The
	// Retryable policy defaults to proto.Retryable if unset.
	Resilience *resilient.Options
	// Replicas is the N-way replication factor: each model's metadata and
	// segments live on its home provider plus the next Replicas-1 hash
	// successors, writes fan out to all of them, and reads fail over
	// between them. Default 1 (the paper's single-homed placement);
	// clamped to Providers.
	Replicas int
	// PartialWrites relaxes the all-replicas write contract: a replicated
	// mutation whose failed legs are all transient (outage-shaped) succeeds
	// as long as one replica accepted it, and the model is queued for
	// anti-entropy repair (client.Repairer) instead of the write being
	// undone. Only meaningful with Replicas > 1 and a running repairer.
	PartialWrites bool
	// Dedup wraps every provider backend with content-addressed chunk
	// storage (internal/dedup): identical 64 KiB chunks across stored
	// segments are kept once. Invisible above the provider's KV store, so
	// clients, replicas and repair see the same segments either way; it is
	// what evostore-server -dedup does.
	Dedup bool
	// SegCacheBytes bounds the client's read-through segment cache, the
	// front door's caching layer (see docs/ARCHITECTURE.md). 0 keeps the
	// client default (64 MiB); negative disables caching.
	SegCacheBytes int64
	// HedgedReads arms tail-latency hedging on the client's replicated read
	// path (client.WithHedgedReads): when the preferred replica is slow to
	// answer, a second read launches against the next-best replica after an
	// adaptive, health-score-scaled delay and the first success wins. Only
	// meaningful with Replicas > 1.
	HedgedReads bool
	// HedgeBudget caps hedge volume in hedge launches per second (token
	// bucket); 0 selects the client default. Only meaningful with
	// HedgedReads.
	HedgeBudget float64
	// DurableCatalog builds providers with provider.NewDurable: catalog
	// state (model metadata, refcounts, journals, tombstones) is written
	// through to the KV backend and replayed on construction, so a provider
	// restarted on the same backend (KillProvider/RestartProvider, or an
	// evostore-server reopening its -data directory) resumes with its
	// pre-crash catalog instead of an empty one. Pointless on MemKV
	// backends that die with the provider; pair with durable Backend stores
	// (kvstore.OpenLSM).
	DurableCatalog bool
}

// Open creates an embedded deployment: providers and clients live in this
// process and communicate over the zero-copy in-process fabric (the RDMA
// analogue). This is the configuration used by examples, tests and the
// micro-benchmarks.
func Open(opts Options) (*Repository, error) {
	if opts.Providers <= 0 {
		opts.Providers = 4
	}
	if opts.Backend == nil {
		opts.Backend = func(int) kvstore.KV { return kvstore.NewMemKV(16) }
	}
	if opts.Replicas < 1 {
		opts.Replicas = 1
	}
	if opts.Replicas > opts.Providers {
		opts.Replicas = opts.Providers
	}
	if opts.SpareProviders < 0 {
		opts.SpareProviders = 0
	}
	net := rpc.NewInprocNet()
	r := &Repository{net: net, opts: opts}
	total := opts.Providers + opts.SpareProviders
	conns := make([]rpc.Conn, total)
	for i := 0; i < total; i++ {
		p, _, err := r.buildProvider(i, opts.Backend(i))
		if err != nil {
			return nil, err
		}
		// Spares get the same epoch-0 table: not being members, they reject
		// writes (and tell stale clients the current table) until a
		// rebalance adds them.
		p.SetPlacement(opts.Providers, opts.Replicas)
		srv := rpc.NewServer()
		p.Register(srv)
		addr := fmt.Sprintf("provider-%d", i)
		if err := net.Listen(addr, srv); err != nil {
			return nil, err
		}
		c, err := net.Dial(addr)
		if err != nil {
			return nil, err
		}
		if opts.Faults != nil {
			if cfg := opts.Faults(i); cfg != nil {
				fc := rpc.WithFaults(c, *cfg)
				r.faults = append(r.faults, fc)
				c = fc
			} else {
				r.faults = append(r.faults, nil)
			}
		}
		r.owned = append(r.owned, p)
		conns[i] = c
	}
	if opts.Resilience != nil {
		ro := *opts.Resilience
		if ro.Retryable == nil {
			ro.Retryable = proto.Retryable
		}
		conns = resilient.WrapAll(conns, ro)
	}
	r.conns = conns
	// The explicit table keeps spares out of placement: the client knows
	// total connections but the epoch-0 member list is [0..Providers-1].
	copts := []client.Option{client.WithPlacement(placement.New(opts.Providers, opts.Replicas))}
	if opts.PartialWrites {
		copts = append(copts, client.WithPartialWrites())
	}
	if opts.SegCacheBytes != 0 {
		copts = append(copts, client.WithSegCacheBytes(opts.SegCacheBytes))
	}
	if opts.HedgedReads {
		copts = append(copts, client.WithHedgedReads(0, opts.HedgeBudget))
	}
	r.cli = client.New(conns, copts...)
	return r, nil
}

// FaultConns exposes the per-provider fault wrappers installed via
// Options.Faults (index = provider ID; nil where no faults were
// configured). Tests and benchmarks use them to flip partitions mid-run.
func (r *Repository) FaultConns() []*rpc.FaultConn { return r.faults }

// buildProvider wraps kv with chunk storage when Options.Dedup and
// constructs provider i, durable when Options.DurableCatalog. It returns
// the wrapper (nil without Dedup) so a restart can recover its refcounts.
func (r *Repository) buildProvider(i int, kv kvstore.KV) (*provider.Provider, *dedup.KV, error) {
	var cas *dedup.KV
	if r.opts.Dedup {
		cas = dedup.Wrap(kv, dedup.Options{})
		kv = cas
	}
	if r.opts.DurableCatalog {
		p, err := provider.NewDurable(i, kv)
		if err != nil {
			return nil, nil, fmt.Errorf("core: provider %d: %w", i, err)
		}
		return p, cas, nil
	}
	return provider.New(i, kv), cas, nil
}

// --- crash / restart -----------------------------------------------------------

// KillProvider simulates kill -9 of embedded provider i: its endpoint is
// unbound from the fabric — in-flight and future calls fail transiently,
// exactly the shape PartialWrites and read failover are built for — and
// the provider object is abandoned WITHOUT flushing, so buffered state
// (e.g. an LSM WAL's bufio tail) is lost as it would be on a real crash.
// The caller keeps ownership of the KV backend and typically reopens it
// for RestartProvider.
func (r *Repository) KillProvider(i int) error {
	if r.owned == nil || i < 0 || i >= len(r.owned) {
		return fmt.Errorf("core: kill provider %d: not an embedded provider", i)
	}
	r.net.Unlisten(fmt.Sprintf("provider-%d", i))
	r.owned[i] = nil
	return nil
}

// RestartProvider brings a killed provider back on kv — typically the same
// LSM directory reopened, modeling a process restart on surviving disk
// state. The dedup wrapper (when configured) is rebuilt and its refcounts
// recovered from the store, the provider replays its durable catalog
// (Options.DurableCatalog), placement is re-armed — st, when non-nil,
// installs a saved or fetched placement view on top of the epoch-0 default
// (newest epoch wins) — and the endpoint is rebound so clients reconnect
// on their next call. Converging the data the provider missed while down
// is the Repairer's job, driven by the durable catalog's journals.
func (r *Repository) RestartProvider(i int, kv kvstore.KV, st *placement.State) error {
	if r.owned == nil || i < 0 || i >= len(r.owned) {
		return fmt.Errorf("core: restart provider %d: not an embedded provider", i)
	}
	p, cas, err := r.buildProvider(i, kv)
	if err != nil {
		return fmt.Errorf("core: restart provider %d: %w", i, err)
	}
	if cas != nil {
		if err := cas.Recover(); err != nil {
			return fmt.Errorf("core: restart provider %d: dedup recover: %w", i, err)
		}
	}
	p.SetPlacement(r.opts.Providers, r.opts.Replicas)
	if st != nil {
		if err := p.SetPlacementState(st); err != nil {
			return fmt.Errorf("core: restart provider %d: %w", i, err)
		}
	}
	srv := rpc.NewServer()
	p.Register(srv)
	if err := r.net.Listen(fmt.Sprintf("provider-%d", i), srv); err != nil {
		return fmt.Errorf("core: restart provider %d: %w", i, err)
	}
	r.owned[i] = p
	return nil
}

// Attach wraps connections to an externally deployed set of providers
// (e.g. evostore-server processes over TCP). The connection order defines
// provider IDs and must be identical for every client, as must any client
// options (e.g. client.WithReplicas — every client of a deployment must
// agree on the replication factor).
func Attach(conns []rpc.Conn, opts ...client.Option) *Repository {
	return &Repository{cli: client.New(conns, opts...), conns: conns}
}

// Close releases client connections (and nothing else: embedded providers
// hold no external resources beyond their KV backends, which the caller
// owns if it supplied them).
func (r *Repository) Close() error {
	for _, c := range r.conns {
		c.Close()
	}
	return nil
}

// Client exposes the underlying deployment client, for callers that need
// layers the Repository facade does not re-export (heat snapshots, custom
// rebalancing controllers).
func (r *Repository) Client() *client.Client { return r.cli }

// Replicas returns the deployment's replication factor.
func (r *Repository) Replicas() int { return r.cli.Replicas() }

// ReplicaSet returns the provider indices holding id, preferred first.
func (r *Repository) ReplicaSet(id ModelID) []int { return r.cli.ReplicaSet(id) }

// Providers exposes embedded providers for inspection in tests and
// benchmarks; it returns nil for attached deployments.
func (r *Repository) Providers() []*provider.Provider { return r.owned }

// NewModelID allocates a fresh model ID. Sequential IDs spread uniformly
// over providers under the static modulo hash. Attached multi-client
// deployments should partition ID spaces externally (e.g. worker-rank
// prefixes) or accept collisions being rejected at store time.
func (r *Repository) NewModelID() ModelID { return ModelID(r.nextID.Add(1)) }

// nextSeq stamps a store with the repository-global order used by
// provenance.
func (r *Repository) nextSeq() uint64 { return r.seq.Add(1) }

// --- store -----------------------------------------------------------------

// encodeAll consolidates every vertex's tensors.
func encodeAll(ws model.WeightSet) [][]byte {
	segs := make([][]byte, len(ws))
	for v := range ws {
		segs[v] = tensor.EncodeSet(ws[v])
	}
	return segs
}

// Store publishes a from-scratch model (no ancestor): the model owns every
// vertex and all tensors are written. It returns the assigned model ID.
func (r *Repository) Store(ctx context.Context, f *model.Flat, ws model.WeightSet, quality float64) (ModelID, error) {
	id := r.NewModelID()
	seq := r.nextSeq()
	meta := &proto.ModelMeta{
		Model:    id,
		Seq:      seq,
		Quality:  quality,
		Graph:    f.Graph,
		OwnerMap: ownermap.New(id, seq, f.Graph.NumVertices()),
	}
	if err := r.cli.Store(ctx, meta, encodeAll(ws)); err != nil {
		return 0, err
	}
	return id, nil
}

// Ancestor is a resolved transfer-learning source: the best-matching
// stored model and the longest common prefix it shares with the query
// architecture.
type Ancestor struct {
	Meta   *proto.ModelMeta
	Prefix []graph.VertexID

	// prefixFPs records the fingerprints of the transferred tensors at
	// TransferPrefix time, enabling automatic modified-tensor detection in
	// StoreDerived. They are process-local (see vertexFP) and never leave
	// this Ancestor.
	prefixFPs map[graph.VertexID]uint64
}

// PrefixBytes returns the parameter payload of the shared prefix.
func (a *Ancestor) PrefixBytes(f *model.Flat) int64 {
	return graph.PrefixParamBytes(f.Graph, a.Prefix)
}

// BestAncestor broadcasts an LCP query for the flattened architecture f
// and returns the reduced best match, in one round: every provider's reply
// carries its winner's metadata. found is false when the repository holds
// no model sharing any prefix with f.
func (r *Repository) BestAncestor(ctx context.Context, f *model.Flat) (*Ancestor, bool, error) {
	return r.BestAncestorExcluding(ctx, f, nil)
}

// BestAncestorRecent is BestAncestor with the continual-learning selection
// rule (paper §6): prefix-length ties are broken by recency — the most
// recently stored model wins — instead of quality, so fine-tuning chains
// follow the freshest knowledge of a drifting data distribution.
func (r *Repository) BestAncestorRecent(ctx context.Context, f *model.Flat) (*Ancestor, bool, error) {
	return r.bestAncestor(ctx, f, nil, true)
}

// BestAncestorExcluding is BestAncestor with an explicit exclusion list
// (used to sidestep models observed mid-retirement).
func (r *Repository) BestAncestorExcluding(ctx context.Context, f *model.Flat, exclude []ownermap.ModelID) (*Ancestor, bool, error) {
	return r.bestAncestor(ctx, f, exclude, false)
}

func (r *Repository) bestAncestor(ctx context.Context, f *model.Flat, exclude []ownermap.ModelID, preferRecent bool) (*Ancestor, bool, error) {
	req := &proto.LCPQueryReq{Graph: f.Graph, Exclude: exclude, PreferRecent: preferRecent}
	res, found, err := r.cli.QueryLCPReq(ctx, req)
	if err != nil || !found {
		return nil, false, err
	}
	return &Ancestor{Meta: res.Meta, Prefix: res.Prefix}, true, nil
}

// TransferPrefix reads the ancestor's tensors for the shared prefix and
// installs them into ws (the transfer-learning "inherit and freeze" step).
// Only the prefix vertices' tensors move over the network; they are
// fetched from their owners' providers in parallel.
func (r *Repository) TransferPrefix(ctx context.Context, f *model.Flat, ws model.WeightSet, anc *Ancestor) error {
	segs, err := r.cli.LoadVertices(ctx, anc.Meta, anc.Prefix)
	if err != nil {
		return fmt.Errorf("core: transferring prefix from %d: %w", anc.Meta.Model, err)
	}
	anc.prefixFPs = make(map[graph.VertexID]uint64, len(anc.Prefix))
	for _, v := range anc.Prefix {
		if err := ws.DecodeVertexInto(f, v, segs[v]); err != nil {
			return fmt.Errorf("core: installing transferred vertex %d: %w", v, err)
		}
		anc.prefixFPs[v] = vertexFP(ws, v)
	}
	return nil
}

// vertexFP combines the fingerprints of vertex v's tensors. Like
// tensor.Fingerprint it is keyed per process: compare it only with values
// computed by the same process, and never persist or send it.
func vertexFP(ws model.WeightSet, v graph.VertexID) uint64 {
	var fp uint64
	for _, t := range ws[v] {
		fp = fp*0x100000001b3 + t.Fingerprint()
	}
	return fp
}

// StoreDerived publishes a model derived from anc. frozen lists the prefix
// vertices whose tensors were NOT modified by training and are therefore
// inherited rather than rewritten. Passing frozen == nil enables automatic
// detection: every prefix vertex whose tensors still fingerprint-match the
// state recorded by TransferPrefix is treated as frozen (the paper's
// fine-grain tensor-level diff). The returned ID identifies the new model.
func (r *Repository) StoreDerived(ctx context.Context, f *model.Flat, ws model.WeightSet,
	quality float64, anc *Ancestor, frozen []graph.VertexID) (ModelID, error) {

	if frozen == nil {
		if anc.prefixFPs == nil {
			return 0, fmt.Errorf("core: automatic diff requires TransferPrefix before StoreDerived")
		}
		for _, v := range anc.Prefix {
			if vertexFP(ws, v) == anc.prefixFPs[v] {
				frozen = append(frozen, v)
			}
		}
	} else {
		inPrefix := make(map[graph.VertexID]bool, len(anc.Prefix))
		for _, v := range anc.Prefix {
			inPrefix[v] = true
		}
		for _, v := range frozen {
			if !inPrefix[v] {
				return 0, fmt.Errorf("core: frozen vertex %d outside the common prefix", v)
			}
		}
	}

	id := r.NewModelID()
	seq := r.nextSeq()
	om, err := ownermap.Derive(anc.Meta.OwnerMap, id, seq, f.Graph.NumVertices(), frozen)
	if err != nil {
		return 0, err
	}
	meta := &proto.ModelMeta{
		Model:    id,
		Seq:      seq,
		Quality:  quality,
		Graph:    f.Graph,
		OwnerMap: om,
	}
	// Only self-owned segments are shipped; inherited slots may stay nil.
	segs := make([][]byte, f.Graph.NumVertices())
	for v := range segs {
		if om.Entries[v].Owner == id {
			segs[v] = tensor.EncodeSet(ws[graph.VertexID(v)])
		}
	}
	if err := r.cli.Store(ctx, meta, segs); err != nil {
		return 0, err
	}
	return id, nil
}

// --- load ------------------------------------------------------------------

// Load reconstructs a model: metadata plus all tensors, decoded per
// vertex. The read path touches one provider for metadata and one bulk
// read per contributing owner, independent of lineage depth.
func (r *Repository) Load(ctx context.Context, id ModelID) (*proto.ModelMeta, model.WeightSet, error) {
	data, err := r.cli.Load(ctx, id)
	if err != nil {
		return nil, nil, err
	}
	ws := make(model.WeightSet, len(data.Segments))
	for v, seg := range data.Segments {
		ts, err := tensor.DecodeSet(seg)
		if err != nil {
			return nil, nil, fmt.Errorf("core: load %d: vertex %d: %w", id, v, err)
		}
		for i, t := range ts {
			ts[i] = t.Clone() // detach from the client's segment cache, which shares these bytes
		}
		ws[v] = ts
	}
	return data.Meta, ws, nil
}

// GetMeta fetches a model's metadata only.
func (r *Repository) GetMeta(ctx context.Context, id ModelID) (*proto.ModelMeta, error) {
	return r.cli.GetMeta(ctx, id)
}

// LoadVertices reads only the given vertices' consolidated tensor
// segments, fetched from their owners' providers in parallel (the raw
// partial-read primitive; TransferPrefix is the higher-level form).
func (r *Repository) LoadVertices(ctx context.Context, meta *proto.ModelMeta, vs []graph.VertexID) ([][]byte, error) {
	return r.cli.LoadVertices(ctx, meta, vs)
}

// --- retire / GC --------------------------------------------------------------

// Retire removes a model from the repository. Its metadata disappears
// immediately; its owned tensors are freed when no live model references
// them (distributed reference counting). Returns the number of tensor
// segments freed now.
func (r *Repository) Retire(ctx context.Context, id ModelID) (uint64, error) {
	return r.cli.Retire(ctx, id)
}

// --- replica repair -----------------------------------------------------------

// Repairer returns the deployment's anti-entropy repairer, created on
// first use. Run it periodically (Repairer().Run), sweep once after an
// outage (RepairAll), or audit without repairing (RepairCheck).
func (r *Repository) Repairer() *client.Repairer {
	r.repOnce.Do(func() { r.repairer = client.NewRepairer(r.cli) })
	return r.repairer
}

// RepairAll sweeps every replicated model once, converging any replica
// sets that partial writes (or an outage) left diverged.
func (r *Repository) RepairAll(ctx context.Context) (client.RepairStats, error) {
	return r.Repairer().RepairAll(ctx)
}

// RepairCheck reports the models whose replica sets have diverged,
// without repairing anything.
func (r *Repository) RepairCheck(ctx context.Context) ([]ModelID, error) {
	return r.Repairer().Check(ctx)
}

// --- elastic placement ---------------------------------------------------------

// Rebalancer returns the deployment's migration driver, created on first
// use.
func (r *Repository) Rebalancer() *client.Rebalancer {
	r.rebOnce.Do(func() { r.rebalancer = client.NewRebalancer(r.cli) })
	return r.rebalancer
}

// PlacementTable returns the current-epoch placement table.
func (r *Repository) PlacementTable() *placement.Table {
	return r.cli.PlacementTable()
}

// Rebalance migrates the deployment to the given member list (an epoch
// bump; same replication factor): data moves to the new replica sets
// while reads and writes keep succeeding, then departed providers are
// drained of every model they held.
func (r *Repository) Rebalance(ctx context.Context, members []int) (*client.RebalanceStats, error) {
	next, err := r.cli.PlacementTable().Next(members)
	if err != nil {
		return nil, fmt.Errorf("core: rebalance: %w", err)
	}
	return r.Rebalancer().Rebalance(ctx, next)
}

// --- provenance ------------------------------------------------------------------

// Lineage returns the chain of ancestors that contributed tensors to the
// model, oldest first, ending with the model itself.
func (r *Repository) Lineage(ctx context.Context, id ModelID) ([]ModelID, error) {
	return r.cli.Lineage(ctx, id)
}

// CommonAncestor returns the most recent common contributing ancestor of
// a and b.
func (r *Repository) CommonAncestor(ctx context.Context, a, b ModelID) (ModelID, bool, error) {
	return r.cli.CommonAncestor(ctx, a, b)
}

// OwnerOf answers "which ancestor owns this frozen layer": the most recent
// ancestor that modified vertex v of model id.
func (r *Repository) OwnerOf(ctx context.Context, id ModelID, v graph.VertexID) (ModelID, error) {
	meta, err := r.cli.GetMeta(ctx, id)
	if err != nil {
		return 0, err
	}
	e, err := meta.OwnerMap.OwnerOf(v)
	if err != nil {
		return 0, err
	}
	return e.Owner, nil
}

// --- listing & stats ----------------------------------------------------------------

// ListModels returns every model ID cataloged across providers.
func (r *Repository) ListModels(ctx context.Context) ([]ModelID, error) {
	return r.cli.ListModels(ctx)
}

// Stats aggregates storage statistics across providers. SegmentBytes is
// each provider's KV size (kv.SizeBytes): the deduplicated tensor payload
// actually stored — the quantity Figure 10 compares against full-copy
// baselines — plus, with Options.DurableCatalog, the catalog's own cat/
// records. Those include tombstones and journals, so a durable deployment
// retired down to 0 models, segments and live refs still reports a few KB.
func (r *Repository) Stats(ctx context.Context) (*proto.ProviderStats, error) {
	return r.cli.Stats(ctx)
}
