package client

// Client half of the multi-tenant front door (see internal/frontdoor and
// the provider's throttle.go for the server half):
//
//   - Read coalescing: concurrent reads of the same owner group collapse
//     into one provider round trip (readGroup → flights), before they
//     reach the wire. It is the read path's only coalescer: the provider
//     executes every read it admits.
//   - Read-through segment cache: every segment a group read returns
//     lands in the client-wide segment cache, so repeat loads of hot
//     lineage prefixes skip the provider entirely. Safe because stored
//     segments are immutable and model IDs are never reused.

import (
	"context"
	"encoding/binary"
	"sort"
	"sync"

	"repro/internal/frontdoor"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/ownermap"
	"repro/internal/proto"
	"repro/internal/rpc"
)

// WithSegCacheBytes bounds the client-wide segment cache (default
// 64 MiB). Zero disables caching entirely; entries larger than the bound
// are never admitted.
func WithSegCacheBytes(n int64) Option {
	return func(c *Client) {
		if n < 0 {
			n = 0
		}
		c.segCacheMax = n
	}
}

// WithTenant stamps every segment read with a tenant ID, which the
// provider's front door charges against that tenant's token buckets.
// Untagged clients share the anonymous tenant's budget.
func WithTenant(t string) Option {
	return func(c *Client) { c.tenant = t }
}

// groupRead is one owner-group fetch shared across a coalesced flight.
type groupRead struct {
	table []proto.SegmentRef
	parts [][]byte
}

// flightKey canonicalizes an owner-group read for coalescing: owner plus
// the sorted vertex set, so two callers asking for the same segments in
// different orders still share one flight (parts are matched back through
// the shared table, never by request order).
func flightKey(owner ownermap.ModelID, vs []graph.VertexID) string {
	sorted := vs
	for i := 1; i < len(vs); i++ {
		if vs[i-1] > vs[i] {
			// Rare: owner-map grouping emits vertices in ascending order, so
			// the copy+sort only happens for hand-built vertex lists.
			sorted = append([]graph.VertexID(nil), vs...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
			break
		}
	}
	b := make([]byte, 0, 8+4*len(sorted))
	b = binary.LittleEndian.AppendUint64(b, uint64(owner))
	for _, v := range sorted {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	return string(b)
}

// segRef names one stored segment cluster-wide.
type segRef struct {
	owner  ownermap.ModelID
	vertex graph.VertexID
}

// segCache is the client-wide read-through segment cache: the bytes of
// every fetched segment, shared across loads. Safe because stored
// segments are immutable: an (owner, vertex) pair is written once and
// model IDs are never reused, so an entry can go stale only by pointing at
// a freed segment — wasted memory, never wrong bytes. Bounded by total
// payload size with FIFO eviction; lineage sweeps touch entries
// oldest-first, so FIFO approximates LRU here without per-hit bookkeeping.
//
// One deliberate accounting simplification: an entry is a view into its
// group read's response buffer, so it pins that whole buffer, which is
// larger than the entry when sibling segments came in the same read.
// Sizing still counts len(b) — the over-pinning window is bounded by the
// eviction of the sibling entries, which arrived together and leave
// together under FIFO.
type segCache struct {
	mu      sync.Mutex
	max     int64
	size    int64
	entries map[segRef][]byte
	order   []segRef

	// hits/misses are the client.segcache_* counters; nil (bare tests)
	// disables counting.
	hits, misses *metrics.Counter
}

// defaultSegCacheBytes bounds the segment cache. Sized to hold the working
// set of a lineage sweep (a few hundred tensor segments) without mattering
// next to the tensors a loading process holds anyway.
const defaultSegCacheBytes = 64 << 20

func newSegCache(max int64) *segCache {
	return &segCache{max: max, entries: make(map[segRef][]byte)}
}

// get returns ref's bytes. They are shared with every other reader and
// stay valid after eviction.
func (sc *segCache) get(ref segRef) ([]byte, bool) {
	sc.mu.Lock()
	b, ok := sc.entries[ref]
	sc.mu.Unlock()
	switch {
	case ok && sc.hits != nil:
		sc.hits.Inc()
	case !ok && sc.misses != nil:
		sc.misses.Inc()
	}
	return b, ok
}

// put inserts ref unless present. An entry that cannot fit even an empty
// cache is rejected outright.
func (sc *segCache) put(ref segRef, b []byte) {
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
		sc.size -= int64(len(sc.entries[old]))
		delete(sc.entries, old)
	}
	sc.entries[ref] = b
	sc.order = append(sc.order, ref)
	sc.size += n
}

// readGroup fetches one owner group's segments: concurrent identical
// reads share one flight, and the flight's leader issues the one
// consolidated ReadSegments through readCall's replica pass. The parts are
// views into one plain response buffer that every returner and the cache
// share; nobody mutates it. Every part is cached read-through.
func (c *Client) readGroup(ctx context.Context, owner ownermap.ModelID, vs []graph.VertexID) ([]proto.SegmentRef, [][]byte, error) {
	g, shared, err := c.flights.Do(flightKey(owner, vs), func() (groupRead, error) {
		return c.readGroupWire(ctx, owner, vs)
	})
	if err != nil {
		// A provider refusal that made it past resilient's paced retries:
		// count it so tenants can see they are over budget.
		if _, ok := frontdoor.RetryAfterFromError(err); ok {
			c.throttled.Inc()
		}
		return nil, nil, err
	}
	if shared {
		c.coalesced.Inc()
	} else {
		// Read-through cache fill, leader only (waiters would only re-take
		// the same locks to find every entry present).
		for i, ref := range g.table {
			c.cache.put(segRef{owner, ref.Vertex}, g.parts[i])
		}
	}
	return g.table, g.parts, nil
}

// readGroupWire is the wire read behind readGroup.
func (c *Client) readGroupWire(ctx context.Context, owner ownermap.ModelID, vs []graph.VertexID) (groupRead, error) {
	req := &proto.ReadSegmentsReq{Owner: owner, Vertices: vs, Tenant: c.tenant}
	resp, err := c.readCall(ctx, proto.RPCReadSegments, owner, rpc.Message{Meta: req.Encode()})
	if err != nil {
		return groupRead{}, err
	}
	table, err := proto.DecodeSegTable(resp.Meta)
	if err != nil {
		return groupRead{}, err
	}
	parts, err := proto.SplitBulkMsg(table, resp)
	if err != nil {
		return groupRead{}, err
	}
	return groupRead{table: table, parts: parts}, nil
}
