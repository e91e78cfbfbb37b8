package kvstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// ErrStoreFailed marks an LSMKV that hit an unrecoverable error at a
// durability boundary (a memtable could not be written as a table, a merge
// could not be committed, or a crash-injection hook fired). Accepting
// further writes would risk acknowledging data the store can no longer
// flush, so every subsequent mutation fails with this error; the on-disk
// state is intact and a reopen recovers it.
var ErrStoreFailed = errors.New("kvstore: store failed; reopen the directory to recover")

// Crash-injection hooks for the recovery test matrix. When non-nil, the
// hook runs at its durability boundary on the background goroutine; a
// non-nil return simulates the process dying right there: the step aborts,
// the store is marked failed (as a crashed process would be unusable), and
// the test reopens the directory to assert convergence. Always nil in
// production.
var (
	// crashAfterSeal fires in flushSealed before anything of the sealed
	// memtable's table is written: two WALs are on disk, no table.
	crashAfterSeal func() error
	// crashAfterTableSync fires in flushSealed after the new SSTable and
	// its directory entry are durable but before the sealed WAL is removed.
	crashAfterTableSync func() error
	// crashAfterWALRemove fires in flushSealed after the sealed WAL has
	// been removed and the removal fsynced.
	crashAfterWALRemove func() error
	// crashMidCompaction fires in merge after the merged table and its
	// commit marker are durable but before the table list is swapped and
	// the superseded tables are removed.
	crashMidCompaction func() error
)

// errClosing ends a merge that Close interrupted.
var errClosing = errors.New("kvstore: store closing")

// syncDir fsyncs a directory so that entry creations/removals inside it
// are durable. Rename/remove durability requires this on POSIX; without
// it a crash can lose a just-flushed SSTable or resurrect a removed WAL.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

// LSMKV is a persistent log-structured merge store: the analogue of the
// paper's RocksDB provider backend. Writes go to a WAL and an in-memory
// memtable. A memtable that exceeds FlushBytes is sealed together with its
// WAL and a fresh pair takes the writes; one background goroutine per store
// writes the sealed memtable as an immutable SSTable and, when more than
// CompactAfter tables accumulate, merges a run of the newest ones
// (size-tiered; see pickRun). No lock a reader or writer needs is held
// across that disk work: mu covers only map and slice updates.
type LSMKV struct {
	dir  string
	opts LSMOptions

	mu     sync.RWMutex
	wake   *sync.Cond // on mu's write side: sealed, tables, failed, closed or a Compact request changed
	mem    *memtable  // takes the writes
	sealed *memtable  // full, being written as a table; nil when there is none
	tables []*sstable // oldest first
	closed bool
	failed error // non-nil after an unrecoverable durability error
	// Compact asks for a full merge by raising fullWanted; a merge that
	// included the oldest table raises fullDone to the value it started at.
	fullWanted, fullDone int

	done chan struct{} // closed when the background goroutine has exited
	// nextID names the next table file. Only the background goroutine uses
	// it: ids are handed out in the order tables come to be, a merge's when
	// it starts, so that file-id order is age order when a reopen sorts them.
	nextID  int
	nextWAL int // names the next WAL file; guarded by mu
}

// memtable is one generation of writes: the map, its accounted size and the
// log that makes it durable until it is a table.
type memtable struct {
	m    map[string]memEntry
	size int64
	log  *wal
	old  []string // logs an earlier process left, replayed into m
	// flushed is set, under the store's mu, once the table is durable and
	// the logs are gone: what Flush waits for.
	flushed bool
}

// memEntry is one memtable slot: either a value or a tombstone. Keeping an
// explicit flag (rather than a nil sentinel) lets zero-length values — such
// as the empty tensor segments of parameter-free leaf layers — round-trip
// correctly.
type memEntry struct {
	val  []byte
	tomb bool
}

// LSMOptions tunes LSMKV behaviour.
type LSMOptions struct {
	// FlushBytes is the memtable payload size that triggers an SSTable
	// flush. Default 4 MiB.
	FlushBytes int64
	// CompactAfter is the SSTable count that triggers a merge. Default 6.
	CompactAfter int
}

func (o *LSMOptions) setDefaults() {
	if o.FlushBytes <= 0 {
		o.FlushBytes = 4 << 20
	}
	if o.CompactAfter <= 0 {
		o.CompactAfter = 6
	}
}

func (kv *LSMKV) tablePath(id int) string { return filepath.Join(kv.dir, fmt.Sprintf("%06d.sst", id)) }

// fileID reads the number a table, marker or WAL file name starts with.
func fileID(path string) (int, error) {
	base := filepath.Base(path)
	return strconv.Atoi(base[:strings.IndexByte(base, '.')])
}

// OpenLSM opens (or creates) a store rooted at dir, finishing any merge and
// replaying any WAL a previous process left.
func OpenLSM(dir string, opts LSMOptions) (*LSMKV, error) {
	opts.setDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	kv := &LSMKV{dir: dir, opts: opts, done: make(chan struct{})}
	kv.wake = sync.NewCond(&kv.mu)

	// A *.tmp file is a table or marker that never got its name.
	tmps, _ := filepath.Glob(filepath.Join(dir, "*.sst*.tmp"))
	for _, name := range tmps {
		if err := os.Remove(name); err != nil {
			return nil, err
		}
	}
	names, _ := filepath.Glob(filepath.Join(dir, "*.sst"))
	sort.Strings(names) // IDs are zero-padded so lexical = numeric order

	// Crash-mid-merge recovery: a `<id>.sst.compact` marker lists the ids
	// the table with that id supersedes (an empty one, written by the format
	// before partial merges: every older table). A full merge dropped their
	// tombstones, so reading a leftover input beside it could resurrect
	// deleted keys. Finish the interrupted removal, then drop the marker.
	markers, _ := filepath.Glob(filepath.Join(dir, "*.sst.compact"))
	superseded := make(map[string]bool)
	for _, m := range markers {
		out, err := fileID(m)
		if err != nil {
			continue
		}
		// Marker without its table cannot occur (the marker is written
		// after the table is durable); treat it as stale either way.
		if _, err := os.Stat(kv.tablePath(out)); err != nil {
			continue
		}
		raw, err := os.ReadFile(m)
		if err != nil {
			return nil, err
		}
		for _, f := range strings.Fields(string(raw)) {
			if id, err := strconv.Atoi(f); err == nil {
				superseded[kv.tablePath(id)] = true
			}
		}
		for _, name := range names {
			if id, err := fileID(name); len(raw) == 0 && err == nil && id < out {
				superseded[name] = true
			}
		}
	}
	for _, name := range names {
		if superseded[name] {
			if err := os.Remove(name); err != nil {
				return nil, fmt.Errorf("kvstore: removing superseded %s: %w", name, err)
			}
			continue
		}
		t, err := openSSTable(name)
		if err != nil {
			return nil, fmt.Errorf("kvstore: opening %s: %w", name, err)
		}
		kv.tables = append(kv.tables, t)
		if id, err := fileID(name); err == nil && id >= kv.nextID {
			kv.nextID = id + 1
		}
	}
	for _, m := range markers {
		if err := os.Remove(m); err != nil {
			return nil, err
		}
	}
	if len(markers) > 0 || len(tmps) > 0 {
		if err := syncDir(dir); err != nil {
			return nil, err
		}
	}

	// Logs, oldest first: wal.log (the one log of the format before the
	// hand-off), then the numbered ones — at most a sealed one and the one
	// that was taking writes. They stay on disk, owned by the memtable they
	// are replayed into, until that memtable is a table.
	kv.mem = &memtable{m: make(map[string]memEntry)}
	logs, _ := filepath.Glob(filepath.Join(dir, "*.wal"))
	sort.Strings(logs)
	if _, err := os.Stat(filepath.Join(dir, "wal.log")); err == nil {
		logs = append([]string{filepath.Join(dir, "wal.log")}, logs...)
	}
	for _, name := range logs {
		if id, err := fileID(name); err == nil && id >= kv.nextWAL {
			kv.nextWAL = id + 1
		}
		records := 0
		err := replayWAL(name, func(op byte, key string, value []byte) {
			kv.mem.apply(key, value, op == walOpDelete)
			records++
		})
		if err != nil {
			return nil, err
		}
		if records > 0 {
			kv.mem.old = append(kv.mem.old, name)
		} else if err := os.Remove(name); err != nil { // or restarts without writes pile up empty logs
			return nil, err
		}
	}
	var err error
	if kv.mem.log, err = kv.createWAL(); err != nil {
		return nil, err
	}
	go kv.background()
	return kv, nil
}

// createWAL opens the next numbered log. Caller holds mu (or is OpenLSM).
func (kv *LSMKV) createWAL() (*wal, error) {
	l, err := createWAL(filepath.Join(kv.dir, fmt.Sprintf("%06d.wal", kv.nextWAL)))
	if err == nil {
		kv.nextWAL++
	}
	return l, err
}

// memEntryCost is the accounted per-entry overhead beyond the value
// payload (map slot, tombstone flag, WAL header). Charging it — and the
// key bytes — for every entry means delete-heavy workloads (mass Retire)
// grow the memtable too and reach the flush threshold, instead of
// accumulating tombstones unboundedly.
const memEntryCost = 32

// apply installs an entry, tracking its accounted size (key + overhead +
// value; tombstones carry no value).
func (mt *memtable) apply(key string, value []byte, tomb bool) {
	if old, ok := mt.m[key]; ok {
		mt.size -= int64(len(key)) + memEntryCost + int64(len(old.val))
	}
	if tomb {
		mt.m[key] = memEntry{tomb: true}
		mt.size += int64(len(key)) + memEntryCost
		return
	}
	cp := append([]byte(nil), value...)
	mt.m[key] = memEntry{val: cp}
	mt.size += int64(len(key)) + memEntryCost + int64(len(cp))
}

// usableLocked gates mutations on store health. Caller holds mu.
func (kv *LSMKV) usableLocked() error {
	if kv.failed != nil {
		return fmt.Errorf("%w (cause: %v)", ErrStoreFailed, kv.failed)
	}
	if kv.closed {
		return fmt.Errorf("%w (store closed)", ErrStoreFailed)
	}
	return nil
}

// Put implements KV.
func (kv *LSMKV) Put(key string, value []byte) error { return kv.write(walOpPut, key, value) }

// Delete implements KV.
func (kv *LSMKV) Delete(key string) error { return kv.write(walOpDelete, key, nil) }

func (kv *LSMKV) write(op byte, key string, value []byte) error {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	if err := kv.usableLocked(); err != nil {
		return err
	}
	if err := kv.mem.log.append(op, key, value); err != nil {
		return err
	}
	kv.mem.apply(key, value, op == walOpDelete)
	return kv.sealLocked(kv.opts.FlushBytes)
}

// sealLocked hands the memtable, once it accounts for atLeast bytes, and its
// log to the background goroutine and starts a fresh pair; it costs one file
// creation. The one wait left on the write path is here: a writer that fills
// the memtable while the sealed one before it is still being written as a
// table waits for that table, which bounds memory at two memtables. Caller
// holds mu.
func (kv *LSMKV) sealLocked(atLeast int64) error {
	for kv.mem.size >= atLeast {
		if err := kv.usableLocked(); err != nil {
			return err
		}
		if kv.sealed == nil {
			log, err := kv.createWAL()
			if err != nil {
				return err
			}
			kv.sealed, kv.mem = kv.mem, &memtable{m: make(map[string]memEntry), log: log}
			kv.wake.Broadcast()
			return nil
		}
		kv.wake.Wait()
	}
	return nil
}

// Sync makes every write acknowledged before the call durable without
// forcing a memtable flush, and without mu: it fsyncs the sealed memtable's
// log, if its table is not durable yet, and then the log taking writes;
// concurrent callers share fsyncs (see wal.sync). The durable provider
// catalog calls this after catalog mutations so acknowledged state survives
// kill −9; because each log is sequential, the sync also hardens all
// earlier unsynced appends (segment payloads included).
func (kv *LSMKV) Sync() error {
	kv.mu.RLock()
	err, mem, sealed := kv.usableLocked(), kv.mem, kv.sealed
	kv.mu.RUnlock()
	if err != nil {
		return err
	}
	if sealed != nil {
		if err := sealed.log.sync(); err != nil {
			return err
		}
	}
	return mem.log.sync()
}

// Get implements KV: the memtable, the sealed one, then SSTables
// newest-first.
func (kv *LSMKV) Get(key string) ([]byte, bool, error) {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	e, ok := kv.mem.m[key]
	if !ok && kv.sealed != nil {
		e, ok = kv.sealed.m[key]
	}
	if ok {
		return e.val, !e.tomb, nil
	}
	for i := len(kv.tables) - 1; i >= 0; i-- {
		v, found, tomb, err := kv.tables[i].get(key)
		if err != nil {
			return nil, false, err
		}
		if found {
			if tomb {
				return nil, false, nil
			}
			return v, true, nil
		}
	}
	return nil, false, nil
}

// Scan implements KV: a merge over all tables and both memtables with
// newest-wins shadowing.
func (kv *LSMKV) Scan(prefix string, fn func(key string, value []byte) bool) error {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	merged := make(map[string]memEntry)
	// Oldest table first; newer entries overwrite. Keys under a prefix are
	// contiguous, so each table is entered at the prefix through its index
	// and left at the first key past it.
	for _, t := range kv.tables {
		from, _ := t.seek(prefix)
		err := t.iterate(from, func(e ssEntry) bool {
			if strings.HasPrefix(e.key, prefix) {
				merged[e.key] = memEntry{val: e.value, tomb: e.tombstone}
				return true
			}
			return e.key < prefix
		})
		if err != nil {
			return err
		}
	}
	for _, mt := range []*memtable{kv.sealed, kv.mem} {
		if mt == nil {
			continue
		}
		for k, e := range mt.m {
			if strings.HasPrefix(k, prefix) {
				merged[k] = e
			}
		}
	}
	keys := make([]string, 0, len(merged))
	for k, e := range merged {
		if !e.tomb {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !fn(k, merged[k].val) {
			break
		}
	}
	return nil
}

// Len implements KV. It merges live keys, so it is O(total entries).
func (kv *LSMKV) Len() int {
	n := 0
	kv.Scan("", func(string, []byte) bool { n++; return true })
	return n
}

// SizeBytes implements KV (live payload bytes).
func (kv *LSMKV) SizeBytes() int64 {
	var n int64
	kv.Scan("", func(_ string, v []byte) bool { n += int64(len(v)); return true })
	return n
}

// Flush forces the memtable to disk as an SSTable and returns when the
// table is durable and the log that covered it is gone.
func (kv *LSMKV) Flush() error {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	if err := kv.sealLocked(1); err != nil {
		return err
	}
	for mine := kv.sealed; mine != nil && !mine.flushed; kv.wake.Wait() {
		if err := kv.usableLocked(); err != nil {
			return err
		}
	}
	return kv.usableLocked()
}

// Compact merges all SSTables into one, dropping shadowed versions and
// tombstones, and returns when the merged table has replaced them.
func (kv *LSMKV) Compact() error {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	kv.fullWanted++
	kv.wake.Broadcast()
	for want := kv.fullWanted; kv.fullDone < want; kv.wake.Wait() {
		if err := kv.usableLocked(); err != nil {
			return err
		}
	}
	return kv.usableLocked()
}

// background is the store's one maintenance goroutine: it turns the sealed
// memtable into a table and keeps the table count bounded, until Close or
// the first failure, which it records for the next mutation to report.
func (kv *LSMKV) background() {
	defer close(kv.done)
	for {
		kv.mu.Lock()
		for kv.failed == nil && !kv.closed && kv.sealed == nil &&
			kv.fullDone == kv.fullWanted && len(kv.tables) <= kv.opts.CompactAfter {
			kv.wake.Wait()
		}
		if kv.failed != nil || kv.closed {
			kv.mu.Unlock()
			return
		}
		sealed, want, lo := kv.sealed, kv.fullWanted, 0
		var run []*sstable
		// A sealed memtable goes first, unless the tables are over their
		// bound: then a merge does, and lets the memtable out as it starts
		// (see merge) — or writers that fill memtables back to back would
		// keep merges from ever running.
		if sealed == nil || len(kv.tables) > kv.opts.CompactAfter {
			sealed = nil
			if want == kv.fullDone {
				lo = pickRun(kv.tables)
			}
			if run = append(run, kv.tables[lo:]...); len(run) < 2 {
				kv.fullDone = want // Compact of one table is a no-op
				kv.wake.Broadcast()
				kv.mu.Unlock()
				continue
			}
		}
		kv.mu.Unlock()

		var err error
		if sealed != nil {
			err = kv.flushSealed(sealed)
		} else {
			err = kv.merge(lo, run, want)
		}
		if err != nil && err != errClosing {
			kv.mu.Lock()
			kv.failed = err
			kv.wake.Broadcast()
			kv.mu.Unlock()
		}
	}
}

// flushSealed writes the sealed memtable as a table, publishes it, and
// removes the logs that covered it. Runs on the background goroutine.
func (kv *LSMKV) flushSealed(mt *memtable) error {
	if hook := crashAfterSeal; hook != nil {
		if err := hook(); err != nil {
			return err
		}
	}
	keys := make([]string, 0, len(mt.m))
	for k := range mt.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w, err := newSSWriter(kv.tablePath(kv.nextID))
	if err != nil {
		return err
	}
	kv.nextID++
	for _, k := range keys {
		e := mt.m[k]
		w.add(ssEntry{key: k, value: e.val, tombstone: e.tomb})
	}
	t, err := w.finish()
	if err != nil {
		return err
	}
	// The table's directory entry must be durable before the logs (which
	// still cover its contents) go away.
	if err := syncDir(kv.dir); err != nil {
		return err
	}
	if hook := crashAfterTableSync; hook != nil {
		if err := hook(); err != nil {
			t.close()
			return err
		}
	}
	kv.mu.Lock()
	kv.tables = append(kv.tables, t)
	kv.sealed = nil
	kv.wake.Broadcast()
	kv.mu.Unlock()

	// Writers are on their way again; the logs go after the fact. A Sync
	// that picked this log up before the swap finds it closed, which counts
	// as synced: the table is durable.
	if err := mt.log.close(); err != nil {
		return fmt.Errorf("closing wal: %w", err)
	}
	for _, name := range append(mt.old, mt.log.path) {
		if err := os.Remove(name); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("removing wal: %w", err)
		}
	}
	if err := syncDir(kv.dir); err != nil {
		return fmt.Errorf("syncing dir after wal removal: %w", err)
	}
	if hook := crashAfterWALRemove; hook != nil {
		if err := hook(); err != nil {
			return err
		}
	}
	kv.mu.Lock()
	mt.flushed = true
	kv.wake.Broadcast()
	kv.mu.Unlock()
	return nil
}

// pickRun chooses the tables to merge, as the index its run tables[lo:]
// starts at: size-tiered over the newest tables. Walking from the newest, a
// table joins while it is no larger than everything newer than it put
// together, so tables are merged with their like, and the oldest (and
// largest) is rewritten only once as much again has piled up behind it. At
// least two tables are merged, so that the table count falls.
func pickRun(tables []*sstable) int {
	lo := len(tables) - 1
	for sum := tables[lo].dataEnd; lo > 0 && (len(tables)-lo < 2 || tables[lo-1].dataEnd <= sum); lo-- {
		sum += tables[lo-1].dataEnd
	}
	return lo
}

// merge replaces run, which is tables[lo:] as the merge starts, with one
// table: a k-way merge of the inputs' cursors, newest version of a key wins,
// streamed into the output. Tombstones are dropped only when the run starts
// at the oldest table; before any other, they still shadow what lies in the
// tables the merge leaves alone. Every FlushBytes of output it lets a sealed
// memtable out first — a writer waits for at most that much of a merge, and
// a merge advances at least as fast as tables pile up behind it — and gives
// way to Close. Tables flushed meanwhile land behind the run. Runs on the
// background goroutine.
func (kv *LSMKV) merge(lo int, run []*sstable, want int) error {
	path := kv.tablePath(kv.nextID)
	w, err := newSSWriter(path)
	if err != nil {
		return err
	}
	kv.nextID++
	type input struct {
		c  *ssCursor
		e  ssEntry
		ok bool
	}
	ins := make([]input, len(run))
	for i, t := range run {
		ins[i].c = t.cursor(8, true)
		if ins[i].e, ins[i].ok, err = ins[i].c.next(); err != nil {
			w.abort()
			return err
		}
	}
	for yieldAt := uint64(0); ; {
		best := -1
		for i := range ins { // oldest first, so that on equal keys the newest wins
			if ins[i].ok && (best < 0 || ins[i].e.key <= ins[best].e.key) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		e := ins[best].e
		if !e.tombstone || lo > 0 {
			w.add(e)
		}
		for i := range ins {
			if ins[i].ok && ins[i].e.key == e.key {
				if ins[i].e, ins[i].ok, err = ins[i].c.next(); err != nil {
					w.abort()
					return err
				}
			}
		}
		if w.off < yieldAt {
			continue
		}
		yieldAt = w.off + uint64(kv.opts.FlushBytes)
		kv.mu.RLock()
		sealed, closed := kv.sealed, kv.closed
		kv.mu.RUnlock()
		if closed {
			err = errClosing
		} else if sealed != nil {
			err = kv.flushSealed(sealed)
		}
		if err != nil {
			w.abort()
			return err
		}
	}
	t, err := w.finish()
	if err != nil {
		return err
	}
	if err := syncDir(kv.dir); err != nil {
		return err
	}
	// Commit marker: once an input is gone, the others must not be read
	// again — a full merge dropped tombstones, so a crash after some inputs
	// are removed but others remain would resurrect deleted keys on replay.
	// The durable `<id>.sst.compact` marker tells OpenLSM which tables this
	// one supersedes; it is removed only after all of them are.
	var ids strings.Builder
	for _, in := range run {
		id, _ := fileID(in.path)
		fmt.Fprintln(&ids, id)
	}
	marker := path + ".compact"
	if err := writeFileAtomic(marker, []byte(ids.String())); err != nil {
		return err
	}
	if hook := crashMidCompaction; hook != nil {
		if err := hook(); err != nil {
			t.close()
			return err
		}
	}
	kv.mu.Lock()
	kv.tables = append(append(kv.tables[:lo:lo], t), kv.tables[lo+len(run):]...)
	if lo == 0 {
		kv.fullDone = want
	}
	for _, in := range run {
		in.close() // no reader is inside a table while mu is held exclusively
	}
	kv.wake.Broadcast()
	kv.mu.Unlock()

	for _, in := range run {
		os.Remove(in.path)
	}
	if err := syncDir(kv.dir); err != nil {
		return err
	}
	os.Remove(marker)
	return syncDir(kv.dir)
}

// writeFileAtomic durably creates or replaces path with data: temp file +
// fsync + rename + dir fsync, so a crash leaves the old file or the new one,
// never a torn one.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// Close waits for the background goroutine, makes the logs durable and
// releases all resources. A sealed memtable that is not a table yet stays
// in its log for the next open to replay. Closing twice is a no-op, and
// closing a failed store still releases its table handles.
func (kv *LSMKV) Close() error {
	kv.mu.Lock()
	if kv.closed {
		kv.mu.Unlock()
		return nil
	}
	kv.closed = true
	kv.wake.Broadcast()
	kv.mu.Unlock()
	<-kv.done

	kv.mu.Lock()
	defer kv.mu.Unlock()
	var first error
	for _, mt := range []*memtable{kv.sealed, kv.mem} {
		if mt == nil {
			continue
		}
		if err := mt.log.sync(); err != nil && first == nil {
			first = err
		}
		if err := mt.log.close(); err != nil && first == nil {
			first = err
		}
	}
	for _, t := range kv.tables {
		if err := t.close(); err != nil && first == nil {
			first = err
		}
	}
	kv.tables = nil
	return first
}

// TableCount reports the number of SSTables (for tests and stats).
func (kv *LSMKV) TableCount() int {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	return len(kv.tables)
}

var _ KV = (*LSMKV)(nil)
