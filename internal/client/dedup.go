package client

// Delta-encoded stores and read-path resolution.
//
// Writers (StoreWithPlans) may ship a modified tensor as a proto
// segment envelope: an XOR/varint delta (internal/dedup) against the
// logical bytes of the LCP ancestor's segment, optionally
// DEFLATE-compressed. The envelope is part of the stored bytes, so
// providers, replicas, repair and rebalance move it verbatim; only the
// client decodes it. Resolution therefore lives here, on the read path:
// the client is the one party with cross-provider reach, and a delta's
// base lives on the base owner's providers, not the child's.
//
// GC safety: a stored delta holds a logical reference on its base,
// pinned with the same IncRef machinery that pins inherited tensors.
// When a DecRef frees a delta-encoded segment, the provider reports the
// freed bases in its response trailer (proto.EncodeFreedResp) and
// Retire cascades a DecRef to each base's own providers — so retiring
// an ancestor before its delta children never strands the chain.

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/dedup"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/ownermap"
	"repro/internal/proto"
)

// maxResolveDepth bounds read-path delta-chain recursion. It is a
// corruption guard, deliberately far above any negotiated write depth:
// writers rebase to raw at WithDedup's maxDepth long before this.
const maxResolveDepth = 64

// WithDedup enables delta-encoded writes. maxRatio is the largest
// (envelope bytes / raw bytes) ratio worth storing — a delta that does
// not compress below it ships raw. maxDepth bounds the delta chain: a
// write whose base already sits at maxDepth-1 hops rebases to raw, so
// no read ever chases more than maxDepth fetch levels. Reads always
// resolve envelopes regardless of this option; WithDedup only governs
// what this client writes.
func WithDedup(maxRatio float64, maxDepth int) Option {
	return func(c *Client) {
		if maxRatio <= 0 || maxRatio > 1 {
			maxRatio = DefaultDeltaMaxRatio
		}
		if maxDepth <= 0 {
			maxDepth = DefaultDeltaMaxDepth
		}
		c.deltaRatio = maxRatio
		c.deltaMaxDepth = maxDepth
	}
}

// Defaults for WithDedup. The ratio keeps near-incompressible deltas
// (heavily-changed tensors) raw; the depth keeps worst-case restores at
// a handful of extra round trips while letting 10-step lineages stay
// delta-encoded end to end.
const (
	DefaultDeltaMaxRatio = 0.5
	DefaultDeltaMaxDepth = 8
)

// SegmentPlan tells StoreWithPlans how one modified vertex may be
// delta-encoded: against the logical bytes of the stored segment
// (BaseOwner, BaseVertex), whose own stored chain depth is BaseDepth.
// Core builds plans from the transfer prefix it already fetched.
type SegmentPlan struct {
	BaseOwner  ownermap.ModelID
	BaseVertex graph.VertexID
	Base       []byte
	BaseDepth  uint8
}

// StoreWithPlans is Store with per-vertex delta plans. Each self-owned
// vertex with a plan is considered for delta encoding; the delta ships
// only if the chain stays within the negotiated depth (else the vertex
// rebases to raw) and the envelope beats the negotiated ratio. Without
// WithDedup every vertex ships raw and plans are ignored.
func (c *Client) StoreWithPlans(ctx context.Context, meta *proto.ModelMeta, segments [][]byte, plans map[graph.VertexID]SegmentPlan) error {
	if c.deltaRatio == 0 || len(plans) == 0 {
		return c.store(ctx, meta, segments, nil)
	}
	encoded := make([][]byte, len(segments))
	copy(encoded, segments)
	pins := make(map[ownermap.ModelID][]graph.VertexID)
	for v, plan := range plans {
		if int(v) >= meta.OwnerMap.Len() || meta.OwnerMap.Entries[v].Owner != meta.Model {
			return fmt.Errorf("client: store %d: delta plan for vertex %d, which the model does not own", meta.Model, v)
		}
		raw := segments[v]
		if int(plan.BaseDepth)+1 > c.deltaMaxDepth {
			c.deltaRebases.Inc() // chain at negotiated depth: rebase to raw
			continue
		}
		delta := dedup.EncodeDelta(plan.Base, raw)
		flags := proto.SegDelta
		// Compress the delta only when it clearly pays: a sparse delta's
		// literals are near-random weight bytes, and inflating them on
		// every restore is not worth a marginal size win.
		if z, ok := dedup.Compress(delta); ok && len(z) <= len(delta)*3/4 {
			flags |= proto.SegFlate
			delta = z
		}
		env := (&proto.SegEnvelope{
			Flags:      flags,
			Depth:      plan.BaseDepth + 1,
			RawLen:     uint32(len(raw)),
			BaseOwner:  plan.BaseOwner,
			BaseVertex: plan.BaseVertex,
			Payload:    delta,
		}).Encode()
		if float64(len(env)) > c.deltaRatio*float64(len(raw)) {
			c.deltaRejects.Inc() // delta does not pay: ship raw
			continue
		}
		encoded[v] = env
		pins[plan.BaseOwner] = append(pins[plan.BaseOwner], plan.BaseVertex)
		c.deltaWrites.Inc()
	}
	var extraPins []ownermap.OwnerGroup
	for owner, vs := range pins {
		extraPins = append(extraPins, ownermap.OwnerGroup{Owner: owner, Vertices: vs})
	}
	return c.store(ctx, meta, encoded, extraPins)
}

// segRef names one stored segment cluster-wide.
type segRef struct {
	owner  ownermap.ModelID
	vertex graph.VertexID
}

// cachedSeg is one resolved stored segment: its logical bytes plus the
// stored form's delta-chain depth (0 for raw), which derived stores need
// to bound their own chains.
type cachedSeg struct {
	b     []byte
	depth uint8
}

// segCache is the client-wide read-through segment cache: logical bytes of
// every fetched segment — raw segments straight off the wire, delta bases
// and decoded top-level segments alike — shared across loads. Safe
// because stored segments are immutable: an (owner, vertex) pair is
// written once and model IDs are never reused, so an entry can go stale
// only by pointing at a freed segment — wasted memory, never wrong
// bytes. Bounded by total payload size with FIFO eviction; lineage
// sweeps touch entries oldest-first, so FIFO approximates LRU here
// without per-hit bookkeeping.
//
// Note one deliberate accounting simplification: an entry straight off
// the wire is a view into its group read's response buffer, so it pins
// that whole buffer, which is larger than the entry when sibling segments
// came in the same read. Sizing still counts len(b) — the over-pinning
// window is bounded by the eviction of the sibling entries, which arrived
// together and leave together under FIFO.
type segCache struct {
	mu      sync.Mutex
	max     int64
	size    int64
	entries map[segRef]cachedSeg
	order   []segRef

	// hits/misses are the client.segcache_* counters; nil (bare tests)
	// disables counting.
	hits, misses *metrics.Counter
}

// defaultSegCacheBytes bounds the resolved-segment cache. Sized to hold
// the working set of a lineage sweep (a few hundred tensor segments)
// without mattering next to the tensors a loading process holds anyway.
const defaultSegCacheBytes = 64 << 20

func newSegCache(max int64) *segCache {
	return &segCache{max: max, entries: make(map[segRef]cachedSeg)}
}

// get returns ref's entry. The bytes are shared with every other reader
// and stay valid after eviction.
func (sc *segCache) get(ref segRef) (cachedSeg, bool) {
	sc.mu.Lock()
	e, ok := sc.entries[ref]
	sc.mu.Unlock()
	switch {
	case ok && sc.hits != nil:
		sc.hits.Inc()
	case !ok && sc.misses != nil:
		sc.misses.Inc()
	}
	return e, ok
}

// put inserts ref unless present. An entry that cannot fit even an empty
// cache is rejected outright — the old behaviour evicted the whole working
// set and then inserted the oversized entry anyway, leaving size > max.
func (sc *segCache) put(ref segRef, b []byte, depth uint8) {
	n := int64(len(b))
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if n > sc.max || sc.max <= 0 {
		return
	}
	if _, ok := sc.entries[ref]; ok {
		return
	}
	for sc.size+n > sc.max && len(sc.order) > 0 {
		old := sc.order[0]
		sc.order = sc.order[1:]
		sc.size -= int64(len(sc.entries[old].b))
		delete(sc.entries, old)
	}
	sc.entries[ref] = cachedSeg{b: b, depth: depth}
	sc.order = append(sc.order, ref)
	sc.size += n
}

// storedDepth reads the delta-chain depth off a segment's stored form
// (0 for raw or torn bytes — torn segments fail later, in resolution).
func storedDepth(b []byte) uint8 {
	if e, enc, err := proto.ParseSegEnvelope(b); err == nil && enc {
		return e.Depth
	}
	return 0
}

// resolver turns stored segment bytes into logical bytes, fetching and
// caching delta bases across one logical read so a base shared by many
// segments is fetched once.
type resolver struct {
	c     *Client
	cache map[segRef][]byte
}

// resolveStored maps stored segment bytes (nil entries preserved) to
// logical bytes. Raw segments pass through zero-copy; enveloped ones
// are inflated and delta-resolved, fetching base segments batched per
// owner, recursively until a raw base. refs names each segment's own
// (owner, vertex) identity so decoded results land in the client-wide
// cache; skip marks entries that are already logical bytes (served from
// that cache) and must not be parsed. Both may be nil.
func (c *Client) resolveStored(ctx context.Context, stored [][]byte, refs []segRef, skip []bool) ([][]byte, error) {
	anyEnv := false
	for i, b := range stored {
		if (skip == nil || !skip[i]) && proto.IsSegEnvelope(b) {
			anyEnv = true
			break
		}
	}
	if !anyEnv { // the common all-raw case: no allocation, no copies
		return stored, nil
	}
	r := &resolver{c: c, cache: make(map[segRef][]byte)}
	return r.resolveBatch(ctx, stored, refs, skip, 0)
}

func (r *resolver) resolveBatch(ctx context.Context, stored [][]byte, refs []segRef, skip []bool, depth int) ([][]byte, error) {
	if depth > maxResolveDepth {
		return nil, fmt.Errorf("client: delta chain deeper than %d, refusing (corrupt base reference?)", maxResolveDepth)
	}
	out := make([][]byte, len(stored))
	envs := make([]*proto.SegEnvelope, len(stored))
	for i, b := range stored {
		if b == nil || (skip != nil && skip[i]) {
			if skip != nil && skip[i] {
				out[i] = b // already logical bytes, do not reparse
			}
			continue
		}
		e, enc, err := proto.ParseSegEnvelope(b)
		if err != nil {
			return nil, fmt.Errorf("client: segment %d of batch: %w", i, err)
		}
		if !enc {
			out[i] = b
			continue
		}
		envs[i] = e
	}
	// Fetch every uncached delta base, batched per owner, and resolve
	// those stored bytes recursively — a base may itself be a delta.
	needed := make(map[ownermap.ModelID][]graph.VertexID)
	for _, e := range envs {
		if e == nil || e.Flags&proto.SegDelta == 0 {
			continue
		}
		ref := segRef{e.BaseOwner, e.BaseVertex}
		if _, ok := r.cache[ref]; ok {
			continue
		}
		if ent, ok := r.c.resolved.get(ref); ok {
			r.cache[ref] = ent.b
			continue
		}
		r.cache[ref] = nil // claimed; filled below
		needed[e.BaseOwner] = append(needed[e.BaseOwner], e.BaseVertex)
	}
	for owner, vs := range needed {
		table, parts, err := r.c.readGroup(ctx, owner, vs)
		if err != nil {
			return nil, fmt.Errorf("client: fetching delta bases from owner %d: %w", owner, err)
		}
		logical, err := r.resolveBatch(ctx, parts, nil, nil, depth+1)
		if err != nil {
			return nil, err
		}
		for i, ref := range table {
			sr := segRef{owner, ref.Vertex}
			r.cache[sr] = logical[i]
			// Base segments recur across loads of a lineage (every child of a
			// model chases the same bases), so keep the resolved bytes in the
			// client-wide cache. Callers already treat returned segments as
			// immutable views, so sharing the buffer is safe. Raw bases were
			// already cached by readGroup's read-through fill; this put
			// covers decoded envelopes.
			r.c.resolved.put(sr, logical[i], storedDepth(parts[i]))
		}
	}
	// Decode every envelope; with all bases cached the decodes are
	// independent, so fan them out — inflate + XOR at memory speed is the
	// restore path's hot loop, and a model load typically resolves many
	// segments per chain level.
	var wg sync.WaitGroup
	decErrs := make([]error, len(envs))
	for i, e := range envs {
		if e == nil {
			continue
		}
		wg.Add(1)
		go func(i int, e *proto.SegEnvelope) {
			defer wg.Done()
			payload := e.Payload
			if e.Flags&proto.SegFlate != 0 {
				// Compression wraps the delta, so only a pure-flate segment
				// knows its inflated size up front.
				want := -1
				if e.Flags&proto.SegDelta == 0 {
					want = int(e.RawLen)
				}
				p, err := dedup.Decompress(payload, want)
				if err != nil {
					decErrs[i] = fmt.Errorf("client: segment %d of batch: %w", i, err)
					return
				}
				payload = p
			}
			if e.Flags&proto.SegDelta != 0 {
				base, ok := r.cache[segRef{e.BaseOwner, e.BaseVertex}]
				if !ok || base == nil {
					decErrs[i] = fmt.Errorf("client: delta base %d/%d missing", e.BaseOwner, e.BaseVertex)
					return
				}
				p, err := dedup.DecodeDelta(base, payload)
				if err != nil {
					decErrs[i] = fmt.Errorf("client: segment %d of batch: %w", i, err)
					return
				}
				payload = p
			}
			if uint32(len(payload)) != e.RawLen {
				decErrs[i] = fmt.Errorf("client: segment %d of batch resolved to %d bytes, envelope says %d",
					i, len(payload), e.RawLen)
				return
			}
			out[i] = payload
			if refs != nil {
				// Decoded segments are as reusable as their bases: the next
				// load of this model (or a deeper child) finds the logical
				// bytes without refetching or redecoding.
				r.c.resolved.put(refs[i], payload, e.Depth)
			}
			r.c.resolvedReads.Inc()
		}(i, e)
	}
	wg.Wait()
	for _, err := range decErrs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
