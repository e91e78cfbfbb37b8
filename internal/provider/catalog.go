package provider

// Durable catalog: write-through persistence of the provider's metadata
// state — model catalog entries, refcounts, repair journals, retire
// tombstones — into the same kvstore.KV that holds segment payloads, so a
// crashed provider recovers everything a repairer needs by reopening its
// data directory (ROADMAP "Durable providers"; the paper's RocksDB
// deployment mode made persistent end to end).
//
// Keyspace (all under the "cat/" prefix, disjoint from "seg/" payloads
// and the dedup wrapper's "cas/" chunks):
//
//	cat/m/<model16>          catalog entry: bytes32 encoded ModelMeta, then
//	                         a u32-counted (u32 vertex, u32 size) table that
//	                         is always written empty; a non-empty one (older
//	                         records) is bounds-checked and skipped on read
//	cat/r/<owner16>          live refcounts (proto.EncodeRefCounts)
//	cat/j/<owner16>/<idx16>  one journal delta (proto.EncodeRefDelta); idx
//	                         is the delta's monotonic append index
//	cat/jm/<owner16>         journal meta: u64 appended | u8 trimmed
//	cat/t/<model16>          retire tombstone: u64 seq
//
// Journal persistence is incremental: the in-memory journal holds the
// index window [appended-len(deltas), appended), and the catalog tracks
// the persisted window per owner, deleting keys that trimmed out and
// appending only new deltas — so a steady-state mutation persists O(1)
// catalog keys, not the whole journal.
//
// Durability contract, kept by Provider.commit alone — every catalog
// mutation (store, inc_ref/dec_ref, retire, repair apply, evict) is one
// call of it: the in-memory change and the rewrite of the cat/ records it
// dirtied happen under p.mu; segment payloads are put and deleted after
// p.mu is released; one kvstore.Syncer fsync then covers the records and
// the payloads (sequential WAL) before the request is acknowledged, so an
// acknowledged mutation is fully durable. Payloads of unacknowledged
// requests may be lost on kill −9 and reconverge via the repairer's
// NeedPayload backfill. If a catalog write fails mid-request the in-memory
// state stays applied and the request errors: the divergence is exactly a
// partial write, which the anti-entropy repairer already converges.

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/graph"
	"repro/internal/kvstore"
	"repro/internal/ownermap"
	"repro/internal/proto"
	"repro/internal/wire"
)

const (
	catModelPrefix = "cat/m/"
	catRefsPrefix  = "cat/r/"
	catJrnPrefix   = "cat/j/"
	catJMetaPrefix = "cat/jm/"
	catTombPrefix  = "cat/t/"
)

// jspan is the persisted journal-index window [lo, hi) of one owner.
type jspan struct {
	lo, hi uint64
}

// catalogStore is the provider's write-through catalog persistence state.
type catalogStore struct {
	kv   kvstore.KV
	sync func() error // fsync hook; no-op when the KV is not a Syncer
	// jspans tracks the persisted journal window per owner (guarded by
	// the provider's mu, like every other catalog structure).
	jspans map[ownermap.ModelID]jspan
}

// NewDurable creates a provider whose catalog is persisted write-through
// in kv and recovered from it on open. Use with a persistent backend
// (kvstore.LSMKV): the recovered provider resumes with the exact models,
// refcounts, journals and tombstones it had acknowledged before a crash,
// so repair only converges the divergent tail.
func NewDurable(id int, kv kvstore.KV) (*Provider, error) {
	p := New(id, kv)
	cs := &catalogStore{kv: kv, jspans: make(map[ownermap.ModelID]jspan)}
	if s, ok := kv.(kvstore.Syncer); ok {
		cs.sync = s.Sync
	} else {
		cs.sync = func() error { return nil }
	}
	p.cat = cs
	if err := p.loadCatalog(); err != nil {
		return nil, fmt.Errorf("provider %d: recovering catalog: %w", id, err)
	}
	return p, nil
}

// --- keys --------------------------------------------------------------------

func catKey(prefix string, id uint64) string {
	b := make([]byte, len(prefix)+16)
	copy(b, prefix)
	putHex(b[len(prefix):], id)
	return string(b)
}

func catJrnKey(owner ownermap.ModelID, idx uint64) string {
	b := make([]byte, len(catJrnPrefix)+16+1+16)
	copy(b, catJrnPrefix)
	putHex(b[len(catJrnPrefix):len(catJrnPrefix)+16], uint64(owner))
	b[len(catJrnPrefix)+16] = '/'
	putHex(b[len(catJrnPrefix)+17:], idx)
	return string(b)
}

// --- the write path --------------------------------------------------------

// Dirty bits: the cat/ records of one model that a change rewrote in memory.
const (
	dirtyModel   uint8 = 1 << iota // cat/m/
	dirtyRefs                      // cat/r/
	dirtyJournal                   // cat/j/ and cat/jm/
	dirtyTomb                      // cat/t/
	// journalRewritten: the journal's history was replaced rather than
	// appended to, so its persisted window is dropped before the rewrite
	// (the incremental reconciler must never keep stale delta keys under
	// a replaced index range).
	journalRewritten
	dirtyAll = dirtyModel | dirtyRefs | dirtyJournal | dirtyTomb
)

// change is what one mutation did under p.mu: the cat/ records of its model
// it dirtied, the records of other models the caps evicted, and the segment
// payloads to delete and put once p.mu is released.
type change struct {
	dirty   uint8
	evicted []evictedRecord
	dels    []segKey
	puts    []segKey
	vals    [][]byte
}

// evictedRecord names cat/ records whose in-memory state a cap dropped.
type evictedRecord struct {
	id    ownermap.ModelID
	dirty uint8
}

func (c *change) put(k segKey, v []byte) {
	c.puts = append(c.puts, k)
	c.vals = append(c.vals, v)
}

// commit is the provider's one write path; the durability contract above
// lives here. guard admits or rejects the write for id (acceptsWrite for
// every mutation but Evict). apply runs next, also under p.mu: it
// validates, changes the in-memory state, marks the cat/ records of id it
// changed dirty and queues payload writes in c. An apply error means
// nothing was changed.
func (p *Provider) commit(op string, id ownermap.ModelID, guard func(ownermap.ModelID) error, apply func(c *change) error) error {
	var c change
	p.mu.Lock()
	// The guard runs under p.mu: a placement install that a later listing
	// of this provider's models follows then also rejects every write the
	// listing did not see (the rebalancer lists before it evicts).
	if err := guard(id); err != nil {
		p.mu.Unlock()
		return fmt.Errorf("%s: %w", op, err)
	}
	journals := len(p.journals)
	if err := apply(&c); err != nil {
		p.mu.Unlock()
		return err
	}
	p.capLocked(id, len(p.journals) > journals, &c)
	durable := p.cat != nil
	var catErr error
	if durable {
		catErr = p.persistLocked(id, c.dirty)
		for _, e := range c.evicted {
			if p.persistLocked(e.id, e.dirty) != nil {
				// Best-effort: a stale tombstone only re-rejects a late store
				// after recovery, and a stale drained journal is history
				// repair treats as converged-by-emptiness.
				p.reg.Counter("provider.catalog_evict_err").Inc()
			}
		}
	}
	p.mu.Unlock()
	if catErr != nil {
		return fmt.Errorf("provider %d: %s %d: catalog: %w", p.id, op, id, catErr)
	}
	for _, k := range c.dels {
		if err := p.kv.Delete(k.String()); err != nil {
			return fmt.Errorf("provider %d: %s: deleting %s: %w", p.id, op, k, err)
		}
	}
	for i, k := range c.puts {
		if err := p.kv.Put(k.String(), c.vals[i]); err != nil {
			return fmt.Errorf("provider %d: %s: persisting %s: %w", p.id, op, k, err)
		}
	}
	if !durable {
		return nil
	}
	if err := p.cat.sync(); err != nil {
		return fmt.Errorf("provider %d: %s %d: catalog sync: %w", p.id, op, id, err)
	}
	return nil
}

// capLocked enforces the tombstone and journal-owner caps after a change
// to id, noting every record it evicts in c. Only a change that added a
// journal pays for the journal scan. Callers hold p.mu.
func (p *Provider) capLocked(id ownermap.ModelID, newJournal bool, c *change) {
	for len(p.retiredOrder) > tombstoneCap {
		// Evict leaves ghost entries in the FIFO; popping one deletes an
		// already-absent tombstone, which is harmless.
		old := p.retiredOrder[0]
		p.retiredOrder = p.retiredOrder[1:]
		delete(p.retired, old)
		c.evicted = append(c.evicted, evictedRecord{old, dirtyTomb})
	}
	if !newJournal || len(p.journals) <= journalOwnersCap {
		return
	}
	// Drop the journals of drained owners (not cataloged, no live refs):
	// their replicas are converged-by-emptiness, so losing the history only
	// forgoes a merge that would have replayed nothing.
	for owner := range p.journals {
		if owner != id && p.models[owner] == nil && len(p.refs[owner]) == 0 {
			delete(p.journals, owner)
			c.evicted = append(c.evicted, evictedRecord{owner, dirtyJournal})
			p.reg.Counter("provider.journal_evict").Inc()
		}
	}
}

// persistLocked rewrites the dirty cat/ records of id from the in-memory
// state, deleting each one whose state is gone. Callers hold p.mu.
func (p *Provider) persistLocked(id ownermap.ModelID, dirty uint8) error {
	var err error
	step := func(bit uint8, write func(ownermap.ModelID) error) {
		if err == nil && dirty&bit != 0 {
			err = write(id)
		}
	}
	step(journalRewritten, p.catDropJournalLocked)
	step(dirtyTomb, p.catPersistTombLocked)
	step(dirtyModel, p.catPersistModelLocked)
	step(dirtyRefs, p.catPersistRefsLocked)
	step(dirtyJournal, p.catPersistJournalLocked)
	return err
}

// catPersistModelLocked rewrites id's catalog entry record.
func (p *Provider) catPersistModelLocked(id ownermap.ModelID) error {
	meta := p.models[id]
	if meta == nil {
		return p.cat.kv.Delete(catKey(catModelPrefix, uint64(id)))
	}
	enc := meta.entry.Encode()
	w := wire.NewWriter(8 + len(enc))
	w.Bytes32(enc)
	w.U32(0) // the segment table, kept empty for the record layout
	return p.cat.kv.Put(catKey(catModelPrefix, uint64(id)), w.Bytes())
}

// catPersistRefsLocked rewrites owner's refcount record (deleting it when
// no refs remain).
func (p *Provider) catPersistRefsLocked(owner ownermap.ModelID) error {
	live := p.refs[owner]
	if len(live) == 0 {
		return p.cat.kv.Delete(catKey(catRefsPrefix, uint64(owner)))
	}
	cs := make([]proto.RefCount, 0, len(live))
	for _, v := range sortedRefVertices(live) {
		cs = append(cs, proto.RefCount{Vertex: v, Count: uint64(live[v])})
	}
	return p.cat.kv.Put(catKey(catRefsPrefix, uint64(owner)), proto.EncodeRefCounts(cs))
}

// catPersistJournalLocked reconciles owner's persisted journal window with
// the in-memory one: deltas that trimmed out are deleted, new deltas are
// appended, and the journal-meta record is rewritten. A window that moved
// backwards is dropped and re-persisted wholesale.
func (p *Provider) catPersistJournalLocked(owner ownermap.ModelID) error {
	jl := p.journals[owner]
	if jl == nil {
		return p.catDropJournalLocked(owner)
	}
	memHi := jl.appended
	memLo := memHi - uint64(len(jl.deltas))
	span, havePrev := p.cat.jspans[owner]
	if havePrev && (memLo < span.lo || memHi < span.hi) {
		if err := p.catDropJournalLocked(owner); err != nil {
			return err
		}
		span, havePrev = jspan{}, false
	}
	if !havePrev {
		span = jspan{lo: memLo, hi: memLo}
	}
	for i := span.lo; i < memLo && i < span.hi; i++ {
		if err := p.cat.kv.Delete(catJrnKey(owner, i)); err != nil {
			return err
		}
	}
	start := span.hi
	if start < memLo {
		start = memLo
	}
	for i := start; i < memHi; i++ {
		d := &jl.deltas[i-memLo]
		if err := p.cat.kv.Put(catJrnKey(owner, i), proto.EncodeRefDelta(d)); err != nil {
			return err
		}
	}
	p.cat.jspans[owner] = jspan{lo: memLo, hi: memHi}
	w := wire.NewWriter(9)
	w.U64(jl.appended)
	if jl.trimmed {
		w.U8(1)
	} else {
		w.U8(0)
	}
	return p.cat.kv.Put(catKey(catJMetaPrefix, uint64(owner)), w.Bytes())
}

// catDropJournalLocked deletes every persisted journal key of owner.
func (p *Provider) catDropJournalLocked(owner ownermap.ModelID) error {
	span, ok := p.cat.jspans[owner]
	if ok {
		for i := span.lo; i < span.hi; i++ {
			if err := p.cat.kv.Delete(catJrnKey(owner, i)); err != nil {
				return err
			}
		}
		delete(p.cat.jspans, owner)
	}
	return p.cat.kv.Delete(catKey(catJMetaPrefix, uint64(owner)))
}

// catPersistTombLocked rewrites id's retire tombstone record (deleting it
// when id is not retired).
func (p *Provider) catPersistTombLocked(id ownermap.ModelID) error {
	seq, ok := p.retired[id]
	if !ok {
		return p.cat.kv.Delete(catKey(catTombPrefix, uint64(id)))
	}
	w := wire.NewWriter(8)
	w.U64(seq)
	return p.cat.kv.Put(catKey(catTombPrefix, uint64(id)), w.Bytes())
}

// --- recovery ----------------------------------------------------------------

// loadCatalog rebuilds the in-memory catalog from the cat/ keyspace. It
// runs once, from NewDurable, before the provider serves traffic.
func (p *Provider) loadCatalog() error {
	type jacc struct {
		deltas  []proto.RefDelta
		lo, hi  uint64
		gap     bool
		haveJM  bool
		applied uint64 // jm.appended
		trimmed bool
	}
	jaccs := make(map[ownermap.ModelID]*jacc)
	type tomb struct {
		id  ownermap.ModelID
		seq uint64
	}
	var tombs []tomb
	var firstErr error
	scanErr := p.kv.Scan("cat/", func(key string, value []byte) bool {
		var err error
		switch {
		case strings.HasPrefix(key, catModelPrefix):
			err = p.loadModelRecord(key[len(catModelPrefix):], value)
		case strings.HasPrefix(key, catRefsPrefix):
			err = p.loadRefsRecord(key[len(catRefsPrefix):], value)
		case strings.HasPrefix(key, catJMetaPrefix):
			var owner uint64
			if owner, err = parseHex16(key[len(catJMetaPrefix):]); err == nil {
				r := wire.NewReader(value)
				appended, trimmed := r.U64(), r.U8() != 0
				if err = r.Err(); err == nil {
					ja := jaccAt(jaccs, ownermap.ModelID(owner))
					ja.haveJM, ja.applied, ja.trimmed = true, appended, trimmed
				}
			}
		case strings.HasPrefix(key, catJrnPrefix):
			rest := key[len(catJrnPrefix):]
			if len(rest) != 33 || rest[16] != '/' {
				err = fmt.Errorf("malformed journal key %q", key)
				break
			}
			var owner, idx uint64
			if owner, err = parseHex16(rest[:16]); err != nil {
				break
			}
			if idx, err = parseHex16(rest[17:]); err != nil {
				break
			}
			var d proto.RefDelta
			if d, err = proto.DecodeRefDelta(value); err != nil {
				break
			}
			ja := jaccAt(jaccs, ownermap.ModelID(owner))
			if len(ja.deltas) == 0 {
				ja.lo = idx
			} else if idx != ja.hi {
				ja.gap = true
			}
			ja.hi = idx + 1
			ja.deltas = append(ja.deltas, d)
		case strings.HasPrefix(key, catTombPrefix):
			var id uint64
			if id, err = parseHex16(key[len(catTombPrefix):]); err == nil {
				r := wire.NewReader(value)
				seq := r.U64()
				if err = r.Err(); err == nil {
					tombs = append(tombs, tomb{ownermap.ModelID(id), seq})
				}
			}
		}
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("catalog key %q: %w", key, err)
		}
		return firstErr == nil
	})
	if scanErr != nil {
		return scanErr
	}
	if firstErr != nil {
		return firstErr
	}

	for owner, ja := range jaccs {
		jl := &refJournal{
			deltas:  ja.deltas,
			seen:    make(map[uint64]struct{}, len(ja.deltas)),
			trimmed: ja.trimmed,
		}
		for _, d := range ja.deltas {
			if d.ReqID != 0 {
				jl.seen[d.ReqID] = struct{}{}
			}
		}
		// The journal-meta record and the last delta are written in the
		// same request, but a crash can tear between them; reconcile
		// conservatively — when the accounting disagrees, keep the deltas
		// we have and mark the journal trimmed so repair falls back to an
		// absolute push instead of trusting incomplete history.
		hi := ja.hi
		if len(ja.deltas) == 0 {
			hi = ja.applied
			jl.trimmed = jl.trimmed || !ja.haveJM
		}
		jl.appended = hi
		if ja.gap || !ja.haveJM || ja.applied != hi {
			jl.trimmed = true
		}
		p.journals[owner] = jl
		lo := hi - uint64(len(ja.deltas))
		p.cat.jspans[owner] = jspan{lo: lo, hi: hi}
	}

	// Tombstone FIFO order is not persisted; seq order is the best
	// available approximation for cap eviction.
	sort.Slice(tombs, func(i, j int) bool {
		if tombs[i].seq != tombs[j].seq {
			return tombs[i].seq < tombs[j].seq
		}
		return tombs[i].id < tombs[j].id
	})
	for _, t := range tombs {
		p.retired[t.id] = t.seq
		p.retiredOrder = append(p.retiredOrder, t.id)
	}
	return nil
}

func (p *Provider) loadModelRecord(hexID string, value []byte) error {
	id, err := parseHex16(hexID)
	if err != nil {
		return err
	}
	r := wire.NewReader(value)
	enc := r.Bytes32()
	if r.Err() != nil {
		return r.Err()
	}
	m, err := proto.DecodeModelMeta(enc)
	if err != nil {
		return err
	}
	if uint64(m.Model) != id {
		return fmt.Errorf("model record %s holds model %d", hexID, m.Model)
	}
	// The (vertex, size) table that follows is written empty; an older
	// record's entries are skipped, but must fill the record exactly.
	n := r.U32()
	if r.Err() != nil || uint64(n)*8 != uint64(r.Remaining()) {
		return fmt.Errorf("model record %s: segment table of %d entries in %d bytes", hexID, n, r.Remaining())
	}
	p.models[ownermap.ModelID(id)] = &modelMeta{entry: m}
	return nil
}

func (p *Provider) loadRefsRecord(hexID string, value []byte) error {
	owner, err := parseHex16(hexID)
	if err != nil {
		return err
	}
	cs, err := proto.DecodeRefCounts(value)
	if err != nil {
		return err
	}
	if len(cs) == 0 {
		return nil
	}
	vs := make(map[graph.VertexID]int, len(cs))
	for _, c := range cs {
		if c.Count > 0 {
			vs[c.Vertex] = int(c.Count)
		}
	}
	if len(vs) > 0 {
		p.refs[ownermap.ModelID(owner)] = vs
	}
	return nil
}

func parseHex16(s string) (uint64, error) {
	if len(s) != 16 {
		return 0, fmt.Errorf("bad hex id %q", s)
	}
	return strconv.ParseUint(s, 16, 64)
}

func jaccAt[T any](m map[ownermap.ModelID]*T, id ownermap.ModelID) *T {
	ja := m[id]
	if ja == nil {
		ja = new(T)
		m[id] = ja
	}
	return ja
}
