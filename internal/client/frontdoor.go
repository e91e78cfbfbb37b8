package client

// Client half of the multi-tenant front door (see internal/frontdoor and
// the provider's throttle.go for the server half):
//
//   - Read coalescing: concurrent reads of the same owner group collapse
//     into one provider round trip (readGroup → flights), before they
//     reach the wire. It is the read path's only coalescer: the provider
//     executes every read it admits.
//   - Read-through segment cache: repeat loads of hot lineage prefixes
//     skip the provider entirely. A segment is admitted on its second
//     touch (a read miss, or this client's Store of it), so a scan of
//     segments read once each leaves the cache as it was. Safe because
//     stored segments are immutable and model IDs are never reused.

import (
	"bytes"
	"container/list"
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
// fresh reports that parts are views into a response read off the wire
// for this flight alone (rpc.Message.Fresh).
type groupRead struct {
	table []proto.SegmentRef
	parts [][]byte
	fresh bool
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
// segments read more than once, shared across loads. Safe because stored
// segments are immutable: an (owner, vertex) pair is written once and
// model IDs are never reused, so an entry can go stale only by pointing at
// a freed segment — wasted memory, never wrong bytes.
//
// Admission is on the second touch. A touch is a read miss (put) or a
// successful Store of the segment by this client (touch). A first touch
// only records the ref in the doorkeeper, a FIFO of keys and lengths
// bounded by the cache's own byte bound; a touch that finds the ref there
// admits it. So a cyclic scan larger than the cache admits nothing and
// evicts no resident, a model this client stored is cached from its first
// read, and everything else from its second. Residents are bounded by
// total payload size with FIFO eviction; lineage sweeps touch entries
// oldest-first, so FIFO approximates LRU here without per-hit bookkeeping.
//
// One deliberate accounting simplification: an entry is a view into its
// group read's response buffer, so it pins that whole buffer, which is
// larger than the entry when sibling segments came in the same read.
// Sizing still counts len(b).
type segCache struct {
	mu      sync.Mutex
	max     int64
	size    int64
	entries map[segRef][]byte
	order   []segRef

	// door is the doorkeeper: refs touched once, oldest at the front of
	// doorFIFO (values are doorRefs), doorSize their summed lengths.
	door     map[segRef]*list.Element
	doorFIFO list.List
	doorSize int64

	// hits/misses are the client.segcache_* counters; nil (bare tests)
	// disables counting.
	hits, misses *metrics.Counter
}

// doorRef is one doorkeeper entry.
type doorRef struct {
	ref segRef
	n   int64
}

// defaultSegCacheBytes bounds the segment cache. Sized to hold the working
// set of a lineage sweep (a few hundred tensor segments) without mattering
// next to the tensors a loading process holds anyway.
const defaultSegCacheBytes = 64 << 20

func newSegCache(max int64) *segCache {
	return &segCache{max: max, entries: make(map[segRef][]byte), door: make(map[segRef]*list.Element)}
}

// get returns ref's bytes. They are shared with every other reader and
// stay valid after eviction: never write them.
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

// touch records a touch of ref, n bytes long, and reports whether it is
// the second: then the doorkeeper forgets ref and the caller admits it.
// A resident, or an entry that cannot fit even an empty cache, is not
// recorded.
func (sc *segCache) touch(ref segRef, n int64) bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.touchLocked(ref, n)
}

func (sc *segCache) touchLocked(ref segRef, n int64) bool {
	if n > sc.max || sc.max <= 0 {
		return false
	}
	if _, ok := sc.entries[ref]; ok {
		return false
	}
	if e, ok := sc.door[ref]; ok {
		sc.doorSize -= sc.doorFIFO.Remove(e).(doorRef).n
		delete(sc.door, ref)
		return true
	}
	for sc.doorSize+n > sc.max {
		old := sc.doorFIFO.Remove(sc.doorFIFO.Front()).(doorRef)
		delete(sc.door, old.ref)
		sc.doorSize -= old.n
	}
	sc.door[ref] = sc.doorFIFO.PushBack(doorRef{ref, n})
	sc.doorSize += n
	return false
}

// put touches ref for a read miss that fetched b, and admits b if that
// was its second touch, evicting residents FIFO. It reports whether b was
// admitted: b is then shared with the cache and must never be written.
func (sc *segCache) put(ref segRef, b []byte) bool {
	n := int64(len(b))
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if !sc.touchLocked(ref, n) {
		return false
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
	return true
}

// readGroup fetches one owner group's segments: concurrent identical
// reads share one flight, and the flight's leader issues the one
// consolidated ReadSegments through readCall's replica pass and offers
// every part to the cache. The parts it returns are the caller's: a part
// read off the wire by a flight nobody joined, that the cache did not
// admit, is handed over as is; every other part is a copy, since the
// flight's other callers or the cache share the original.
func (c *Client) readGroup(ctx context.Context, owner ownermap.ModelID, vs []graph.VertexID) ([]proto.SegmentRef, [][]byte, error) {
	led := false
	g, shared, err := c.flights.Do(flightKey(owner, vs), func() (groupRead, error) {
		led = true
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
	if !led {
		c.coalesced.Inc()
	}
	parts := g.parts
	if shared {
		parts = make([][]byte, len(g.parts)) // g.parts is every caller's
	}
	for i, ref := range g.table {
		b := g.parts[i]
		// Read-through cache fill, leader only: a waiter's read is no
		// second touch, and it would only re-take the lock to find every
		// entry present.
		admitted := led && c.cache.put(segRef{owner, ref.Vertex}, b)
		if admitted || shared || !g.fresh {
			b = bytes.Clone(b)
		}
		parts[i] = b
	}
	return g.table, parts, nil
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
	return groupRead{table: table, parts: parts, fresh: resp.Fresh}, nil
}
