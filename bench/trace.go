package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kvstore"
	"repro/internal/rpc"
)

// layer names a seam of the deployment at which the benchmark records
// spans. The seams are interfaces the program already has (rpc.Conn,
// rpc.Handler, kvstore.KV), so tracing changes no program code.
type layer uint8

const (
	layerCore       layer = iota // one core.Repository call (the op)
	layerConn                    // rpc.Conn between resilient and rpc.Pool: one attempt
	layerHandler                 // TCP-facing relay in front of the provider's rpc.Server
	layerKVLogical               // kvstore.KV between provider and dedup.KV
	layerKVPhysical              // kvstore.KV between dedup.KV and LSMKV
	numLayers
)

var layerNames = [numLayers]string{"core", "conn", "handler", "kv.logical", "kv.physical"}

// stallNs is the Put/Sync/Delete duration above which a kv.physical span
// counts as a foreground stall (a flush or full compaction ran inline).
const stallNs = int64(50 * time.Millisecond)

// span is one timed call at a seam. Times are nanoseconds since the
// recorder's epoch.
type span struct {
	start, end int64
	op         uint32 // benchmark op ID; 0 where the seam cannot know it (across TCP)
	bytes      uint32 // kv Put value size; 0 elsewhere
	name       uint16 // index into recorder.names
	layer      layer
	node       uint8 // 0 = client, 1+i = provider i
}

func (s span) dur() int64 { return s.end - s.start }

// recorder keeps spans in a preallocated buffer; nothing is written out
// until the run has ended.
type recorder struct {
	epoch   time.Time
	spans   []span
	n       atomic.Int64
	nextOp  atomic.Uint32
	enabled atomic.Bool

	mu    sync.RWMutex
	ids   map[string]uint16
	names []string
}

func newRecorder(capacity int) *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, capacity), ids: make(map[string]uint16)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) add(s span) {
	if !r.enabled.Load() {
		return
	}
	if i := r.n.Add(1) - 1; int(i) < len(r.spans) {
		r.spans[i] = s
	}
}

// start clears the buffer and begins recording; stop ends it and returns
// the recorded spans and how many did not fit.
func (r *recorder) start() {
	r.n.Store(0)
	r.enabled.Store(true)
}

func (r *recorder) stop() (spans []span, dropped int) {
	r.enabled.Store(false)
	n := int(r.n.Load())
	if n > len(r.spans) {
		return r.spans, n - len(r.spans)
	}
	return r.spans[:n], 0
}

func (r *recorder) nameID(name string) uint16 {
	r.mu.RLock()
	id, ok := r.ids[name]
	r.mu.RUnlock()
	if ok {
		return id
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if id, ok = r.ids[name]; !ok {
		id = uint16(len(r.names))
		r.ids[name] = id
		r.names = append(r.names, name)
	}
	return id
}

func (r *recorder) nameOf(id uint16) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.names[id]
}

type opKey struct{}

// withOp starts a core span: it returns a context carrying a fresh op ID,
// which conn spans below inherit, and the function that ends the span.
func (r *recorder) withOp(ctx context.Context, name string) (context.Context, func()) {
	op := r.nextOp.Add(1)
	id := r.nameID(name)
	t0 := r.now()
	return context.WithValue(ctx, opKey{}, op), func() {
		r.add(span{start: t0, end: r.now(), op: op, name: id, layer: layerCore})
	}
}

// --- seam decorators -----------------------------------------------------

// tracedConn records one conn span per attempt that reaches the pool.
type tracedConn struct {
	rpc.Conn
	rec  *recorder
	node uint8
}

func (c *tracedConn) Call(ctx context.Context, name string, req rpc.Message) (rpc.Message, error) {
	op, _ := ctx.Value(opKey{}).(uint32)
	t0 := c.rec.now()
	resp, err := c.Conn.Call(ctx, name, req)
	c.rec.add(span{start: t0, end: c.rec.now(), op: op, name: c.rec.nameID(name), layer: layerConn, node: c.node})
	return resp, err
}

// relay returns the handler the TCP-facing server registers under name: it
// times the call and forwards it over an in-process conn to the provider's
// own rpc.Server.
func relay(rec *recorder, node uint8, inner rpc.Conn, name string) rpc.Handler {
	id := rec.nameID(name)
	return func(ctx context.Context, req rpc.Message) (rpc.Message, error) {
		t0 := rec.now()
		resp, err := inner.Call(ctx, name, req)
		rec.add(span{start: t0, end: rec.now(), name: id, layer: layerHandler, node: node})
		return resp, err
	}
}

// tracedKV records one span per store call. Chunk writes of the dedup layer
// ("cas/" keys) get their own name so the chunk hit rate can be read off
// the spans.
type tracedKV struct {
	inner kvstore.KV
	rec   *recorder
	layer layer
	node  uint8

	put, putChunk, get, del, scan, sync uint16
}

func (k *tracedKV) done(name uint16, t0 int64, bytes int) {
	k.rec.add(span{start: t0, end: k.rec.now(), bytes: uint32(bytes), name: name, layer: k.layer, node: k.node})
}

func (k *tracedKV) Put(key string, value []byte) error {
	name := k.put
	if strings.HasPrefix(key, "cas/") {
		name = k.putChunk
	}
	t0 := k.rec.now()
	err := k.inner.Put(key, value)
	k.done(name, t0, len(value))
	return err
}

func (k *tracedKV) Get(key string) ([]byte, bool, error) {
	t0 := k.rec.now()
	v, ok, err := k.inner.Get(key)
	k.done(k.get, t0, 0)
	return v, ok, err
}

func (k *tracedKV) Delete(key string) error {
	t0 := k.rec.now()
	err := k.inner.Delete(key)
	k.done(k.del, t0, 0)
	return err
}

func (k *tracedKV) Scan(prefix string, fn func(key string, value []byte) bool) error {
	t0 := k.rec.now()
	err := k.inner.Scan(prefix, fn)
	k.done(k.scan, t0, 0)
	return err
}

func (k *tracedKV) Len() int         { return k.inner.Len() }
func (k *tracedKV) SizeBytes() int64 { return k.inner.SizeBytes() }
func (k *tracedKV) Close() error     { return k.inner.Close() }

// The optional interfaces are added only where the wrapped store has them,
// because dedup.Wrap, provider.New and the durable catalog each choose a
// code path by asserting for them.
type (
	tracedSyncKV struct {
		*tracedKV
		s kvstore.Syncer
	}
	tracedGetBKV struct {
		*tracedKV
		b kvstore.ByteKeyGetter
	}
	tracedSyncGetBKV struct {
		tracedSyncKV
		b kvstore.ByteKeyGetter
	}
)

func (k tracedSyncKV) Sync() error {
	t0 := k.rec.now()
	err := k.s.Sync()
	k.done(k.sync, t0, 0)
	return err
}

func (k *tracedKV) getB(b kvstore.ByteKeyGetter, key []byte) ([]byte, bool, error) {
	t0 := k.rec.now()
	v, ok, err := b.GetB(key)
	k.done(k.get, t0, 0)
	return v, ok, err
}

func (k tracedGetBKV) GetB(key []byte) ([]byte, bool, error)     { return k.getB(k.b, key) }
func (k tracedSyncGetBKV) GetB(key []byte) ([]byte, bool, error) { return k.getB(k.b, key) }

func traceKV(inner kvstore.KV, rec *recorder, l layer, node uint8) kvstore.KV {
	k := &tracedKV{inner: inner, rec: rec, layer: l, node: node,
		put: rec.nameID("Put"), putChunk: rec.nameID("PutChunk"), get: rec.nameID("Get"),
		del: rec.nameID("Delete"), scan: rec.nameID("Scan"), sync: rec.nameID("Sync")}
	s, isSyncer := inner.(kvstore.Syncer)
	b, isGetB := inner.(kvstore.ByteKeyGetter)
	switch {
	case isSyncer && isGetB:
		return tracedSyncGetBKV{tracedSyncKV{k, s}, b}
	case isSyncer:
		return tracedSyncKV{k, s}
	case isGetB:
		return tracedGetBKV{k, b}
	}
	return k
}

// --- span arithmetic -----------------------------------------------------

// unionLen returns the total length covered by the intervals [start,end),
// counting overlaps once. It sorts ivs in place.
func unionLen(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	curStart, curEnd := int64(math.MinInt64), int64(math.MinInt64)
	for _, iv := range ivs {
		switch {
		case iv[1] <= iv[0]:
		case iv[0] > curEnd:
			total += curEnd - curStart
			curStart, curEnd = iv[0], iv[1]
		case iv[1] > curEnd:
			curEnd = iv[1]
		}
	}
	return total + curEnd - curStart
}

// selfTime is the parent's duration minus the part of it its children
// cover; children are clipped to the parent and overlaps count once.
func selfTime(parent span, children []span) int64 {
	ivs := make([][2]int64, 0, len(children))
	for _, c := range children {
		s, e := max(c.start, parent.start), min(c.end, parent.end)
		if e > s {
			ivs = append(ivs, [2]int64{s, e})
		}
	}
	return parent.dur() - unionLen(ivs)
}

// layerTimes is what one traced window's spans reduce to. Sums are over
// the whole window, in nanoseconds.
type layerTimes struct {
	clientSelf int64            // Σ (core span − ∪ its conn spans)
	sum        [numLayers]int64 // Σ span durations per layer
	count      [numLayers]int64 // spans per layer; a conn span is one attempt
	byName     [numLayers]map[string]int64
	chunkPuts  int64 // kv.physical PutChunk spans
	putBytes   int64 // Σ value bytes of kv.physical Put + PutChunk
	stalls     int64 // kv.physical Put/PutChunk/Delete/Sync spans over stallNs
	putMaxNs   int64 // longest kv.physical Put/PutChunk
}

func reduceSpans(rec *recorder, spans []span) layerTimes {
	var lt layerTimes
	for l := range lt.byName {
		lt.byName[l] = make(map[string]int64)
	}
	connsByOp := make(map[uint32][]span)
	for _, s := range spans {
		name := rec.nameOf(s.name)
		lt.sum[s.layer] += s.dur()
		lt.count[s.layer]++
		lt.byName[s.layer][name] += s.dur()
		switch s.layer {
		case layerConn:
			connsByOp[s.op] = append(connsByOp[s.op], s)
		case layerKVPhysical:
			isPut := name == "Put" || name == "PutChunk"
			if isPut {
				lt.putBytes += int64(s.bytes)
				lt.putMaxNs = max(lt.putMaxNs, s.dur())
			}
			if name == "PutChunk" {
				lt.chunkPuts++
			}
			if (isPut || name == "Delete" || name == "Sync") && s.dur() > stallNs {
				lt.stalls++
			}
		}
	}
	for _, s := range spans {
		if s.layer == layerCore {
			lt.clientSelf += selfTime(s, connsByOp[s.op])
		}
	}
	return lt
}

// writeChromeTrace writes spans as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto): one process per node, one thread per layer.
func writeChromeTrace(path string, rec *recorder, spans []span) error {
	type event struct {
		Name string            `json:"name"`
		Cat  string            `json:"cat"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]uint32 `json:"args,omitempty"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		e := event{Name: rec.nameOf(s.name), Cat: layerNames[s.layer], Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.dur()) / 1e3, Pid: int(s.node), Tid: int(s.layer)}
		if s.op != 0 {
			e.Args = map[string]uint32{"op": s.op}
		}
		events[i] = e
	}
	b, err := json.Marshal(events)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
