package kvstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// ErrStoreFailed marks an LSMKV that hit an unrecoverable error at a
// durability boundary (the WAL could not be rotated after a flush, or a
// crash-injection hook fired). Accepting further writes would risk
// acknowledging data into a dead file descriptor, so every subsequent
// operation fails with this error; the on-disk state is intact and a
// reopen recovers it.
var ErrStoreFailed = errors.New("kvstore: store failed; reopen the directory to recover")

// Crash-injection hooks for the recovery test matrix. When non-nil, the
// hook runs at its durability boundary; a non-nil return simulates the
// process dying right there: the operation aborts, the store is marked
// failed (as a crashed process would be unusable), and the test reopens
// the directory to assert convergence. Always nil in production.
var (
	// crashAfterTableSync fires in flushLocked after the new SSTable and
	// its directory entry are durable but before the WAL is removed.
	crashAfterTableSync func() error
	// crashAfterWALRemove fires in flushLocked after wal.log has been
	// removed (and the removal fsynced) but before a fresh WAL exists.
	crashAfterWALRemove func() error
	// crashMidCompaction fires in compactLocked after the merged table
	// and its commit marker are durable but before the superseded tables
	// are removed.
	crashMidCompaction func() error
)

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
// memtable; when the memtable exceeds FlushBytes it is written as an
// immutable SSTable. When more than CompactAfter tables accumulate they
// are merged into one (full compaction), dropping shadowed entries and
// tombstones.
type LSMKV struct {
	dir  string
	opts LSMOptions

	mu     sync.RWMutex
	mem    map[string]memEntry
	memLen int64
	log    *wal
	tables []*sstable // newest last
	nextID int
	closed bool
	failed error // non-nil after an unrecoverable durability error
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
	// CompactAfter is the SSTable count that triggers a full compaction.
	// Default 6.
	CompactAfter int
	// SyncEveryPut forces an fsync per Put; default false (sync on flush
	// and close), matching typical RocksDB deployment.
	SyncEveryPut bool
}

func (o *LSMOptions) setDefaults() {
	if o.FlushBytes <= 0 {
		o.FlushBytes = 4 << 20
	}
	if o.CompactAfter <= 0 {
		o.CompactAfter = 6
	}
}

// OpenLSM opens (or creates) a store rooted at dir, replaying any WAL left
// by a previous process.
func OpenLSM(dir string, opts LSMOptions) (*LSMKV, error) {
	opts.setDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	kv := &LSMKV{dir: dir, opts: opts, mem: make(map[string]memEntry)}

	// Crash-mid-compaction recovery: a `<id>.sst.compact` marker means the
	// table with that id supersedes every older table (compaction dropped
	// their tombstones, so replaying the old tables would resurrect deleted
	// keys). Finish the interrupted removal, then drop the marker.
	cutoff := -1
	markers, err := filepath.Glob(filepath.Join(dir, "*.sst.compact"))
	if err != nil {
		return nil, err
	}
	for _, m := range markers {
		var id int
		if _, err := fmt.Sscanf(filepath.Base(m), "%06d.sst.compact", &id); err != nil {
			continue
		}
		if _, err := os.Stat(strings.TrimSuffix(m, ".compact")); err == nil && id > cutoff {
			cutoff = id
		}
		// Marker without its table cannot occur (the marker is written
		// after the table is durable); treat it as stale either way.
	}

	names, err := filepath.Glob(filepath.Join(dir, "*.sst"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names) // IDs are zero-padded so lexical = numeric order
	for _, name := range names {
		var id int
		fmt.Sscanf(filepath.Base(name), "%06d.sst", &id)
		if id < cutoff {
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
		if id >= kv.nextID {
			kv.nextID = id + 1
		}
	}
	for _, m := range markers {
		if err := os.Remove(m); err != nil {
			return nil, err
		}
	}
	if cutoff >= 0 || len(markers) > 0 {
		if err := syncDir(dir); err != nil {
			return nil, err
		}
	}

	walPath := filepath.Join(dir, "wal.log")
	err = replayWAL(walPath, func(op byte, key string, value []byte) {
		switch op {
		case walOpPut:
			kv.memApply(key, value, false)
		case walOpDelete:
			kv.memApply(key, nil, true)
		}
	})
	if err != nil {
		return nil, err
	}
	kv.log, err = createWAL(walPath)
	if err != nil {
		return nil, err
	}
	return kv, nil
}

// memEntryCost is the accounted per-entry overhead beyond the value
// payload (map slot, tombstone flag, WAL header). Charging it — and the
// key bytes — for every entry means delete-heavy workloads (mass Retire)
// grow memLen too and reach the flush threshold, instead of accumulating
// tombstones unboundedly.
const memEntryCost = 32

// memApply installs an entry into the memtable, tracking its accounted
// size (key + overhead + value; tombstones carry no value). Caller holds
// mu (or is single-threaded during open).
func (kv *LSMKV) memApply(key string, value []byte, tomb bool) {
	if old, ok := kv.mem[key]; ok {
		kv.memLen -= int64(len(key)) + memEntryCost + int64(len(old.val))
	}
	if tomb {
		kv.mem[key] = memEntry{tomb: true}
		kv.memLen += int64(len(key)) + memEntryCost
		return
	}
	cp := append([]byte(nil), value...)
	kv.mem[key] = memEntry{val: cp}
	kv.memLen += int64(len(key)) + memEntryCost + int64(len(cp))
}

// usableLocked gates mutations on store health. Caller holds mu.
func (kv *LSMKV) usableLocked() error {
	if kv.failed != nil {
		return fmt.Errorf("%w (cause: %v)", ErrStoreFailed, kv.failed)
	}
	if kv.closed || kv.log == nil {
		return fmt.Errorf("%w (store closed)", ErrStoreFailed)
	}
	return nil
}

// failLocked marks the store permanently failed. Caller holds mu.
func (kv *LSMKV) failLocked(cause error) error {
	kv.failed = cause
	return fmt.Errorf("%w: %v", ErrStoreFailed, cause)
}

// Put implements KV.
func (kv *LSMKV) Put(key string, value []byte) error {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	if err := kv.usableLocked(); err != nil {
		return err
	}
	if err := kv.log.append(walOpPut, key, value); err != nil {
		return err
	}
	if kv.opts.SyncEveryPut {
		if err := kv.log.sync(); err != nil {
			return err
		}
	}
	kv.memApply(key, value, false)
	if kv.memLen >= kv.opts.FlushBytes {
		return kv.flushLocked()
	}
	return nil
}

// Delete implements KV.
func (kv *LSMKV) Delete(key string) error {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	if err := kv.usableLocked(); err != nil {
		return err
	}
	if err := kv.log.append(walOpDelete, key, nil); err != nil {
		return err
	}
	kv.memApply(key, nil, true)
	if kv.memLen >= kv.opts.FlushBytes {
		return kv.flushLocked()
	}
	return nil
}

// Sync makes every acknowledged write durable (WAL flush + fsync) without
// forcing a memtable flush. The durable provider catalog calls this after
// catalog mutations so acknowledged state survives kill −9; because the
// WAL is sequential, the sync also hardens all earlier unsynced appends
// (segment payloads included).
func (kv *LSMKV) Sync() error {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	if err := kv.usableLocked(); err != nil {
		return err
	}
	return kv.log.sync()
}

// Get implements KV: memtable first, then SSTables newest-first.
func (kv *LSMKV) Get(key string) ([]byte, bool, error) {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	if e, ok := kv.mem[key]; ok {
		if e.tomb {
			return nil, false, nil
		}
		return e.val, true, nil
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

// Scan implements KV: a merge over memtable and all tables with
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
	for k, e := range kv.mem {
		if strings.HasPrefix(k, prefix) {
			merged[k] = e
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

// Flush forces the memtable to disk as an SSTable.
func (kv *LSMKV) Flush() error {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	return kv.flushLocked()
}

func (kv *LSMKV) flushLocked() error {
	if err := kv.usableLocked(); err != nil {
		return err
	}
	if len(kv.mem) == 0 {
		return nil
	}
	entries := make([]ssEntry, 0, len(kv.mem))
	for k, e := range kv.mem {
		entries = append(entries, ssEntry{key: k, value: e.val, tombstone: e.tomb})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })

	path := filepath.Join(kv.dir, fmt.Sprintf("%06d.sst", kv.nextID))
	kv.nextID++
	t, err := writeSSTable(path, entries)
	if err != nil {
		// Memtable and WAL are untouched: nothing is lost, the flush can
		// simply be retried. Clear any partial table file.
		os.Remove(path)
		return err
	}
	// The table's directory entry must be durable before the WAL (which
	// still covers its contents) goes away.
	if err := syncDir(kv.dir); err != nil {
		t.close()
		os.Remove(path)
		return err
	}
	if hook := crashAfterTableSync; hook != nil {
		if err := hook(); err != nil {
			return kv.failLocked(err)
		}
	}
	kv.tables = append(kv.tables, t)
	kv.mem = make(map[string]memEntry)
	kv.memLen = 0

	// Rotate the WAL: its contents are now durable in the SSTable. From
	// here on a failure leaves no usable log handle, so instead of letting
	// later Puts write into a dead descriptor the store is marked failed
	// (writes error with ErrStoreFailed; on-disk state stays recoverable).
	log := kv.log
	kv.log = nil
	if err := log.close(); err != nil {
		return kv.failLocked(fmt.Errorf("closing wal: %w", err))
	}
	walPath := filepath.Join(kv.dir, "wal.log")
	if err := os.Remove(walPath); err != nil && !os.IsNotExist(err) {
		return kv.failLocked(fmt.Errorf("removing wal: %w", err))
	}
	if err := syncDir(kv.dir); err != nil {
		return kv.failLocked(fmt.Errorf("syncing dir after wal removal: %w", err))
	}
	if hook := crashAfterWALRemove; hook != nil {
		if err := hook(); err != nil {
			return kv.failLocked(err)
		}
	}
	nl, err := createWAL(walPath)
	if err != nil {
		return kv.failLocked(fmt.Errorf("recreating wal: %w", err))
	}
	kv.log = nl
	if len(kv.tables) > kv.opts.CompactAfter {
		return kv.compactLocked()
	}
	return nil
}

// Compact merges all SSTables into one, dropping shadowed versions and
// tombstones.
func (kv *LSMKV) Compact() error {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	return kv.compactLocked()
}

func (kv *LSMKV) compactLocked() error {
	if len(kv.tables) <= 1 {
		return nil
	}
	merged := make(map[string][]byte)
	for _, t := range kv.tables { // oldest first, newer wins
		err := t.iterate(8, func(e ssEntry) bool {
			if e.tombstone {
				delete(merged, e.key)
			} else {
				merged[e.key] = e.value // iterate's buffer is per entry
			}
			return true
		})
		if err != nil {
			return err
		}
	}
	entries := make([]ssEntry, 0, len(merged))
	for k, v := range merged {
		entries = append(entries, ssEntry{key: k, value: v})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })

	path := filepath.Join(kv.dir, fmt.Sprintf("%06d.sst", kv.nextID))
	kv.nextID++
	nt, err := writeSSTable(path, entries)
	if err != nil {
		os.Remove(path)
		return err
	}
	if err := syncDir(kv.dir); err != nil {
		nt.close()
		os.Remove(path)
		return err
	}
	// Commit marker: compaction dropped tombstones, so a crash after some
	// old tables are gone but others remain would resurrect deleted keys
	// on replay. The durable `<id>.sst.compact` marker tells OpenLSM that
	// this table supersedes every older one; it is removed only after all
	// superseded tables are.
	marker := path + ".compact"
	if err := writeFileSync(marker); err != nil {
		nt.close()
		os.Remove(path)
		return err
	}
	if err := syncDir(kv.dir); err != nil {
		return kv.failLocked(err)
	}
	if hook := crashMidCompaction; hook != nil {
		if err := hook(); err != nil {
			return kv.failLocked(err)
		}
	}
	old := kv.tables
	kv.tables = []*sstable{nt}
	for _, t := range old {
		t.close()
		os.Remove(t.path)
	}
	os.Remove(marker)
	if err := syncDir(kv.dir); err != nil {
		return kv.failLocked(err)
	}
	return nil
}

// writeFileSync durably creates an empty file (the compaction marker).
func writeFileSync(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Close flushes and releases all resources. Closing twice is a no-op, and
// closing a failed store still releases its table handles.
func (kv *LSMKV) Close() error {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	if kv.closed {
		return nil
	}
	kv.closed = true
	var first error
	if kv.log != nil {
		if err := kv.log.sync(); err != nil {
			first = err
		}
		if err := kv.log.close(); err != nil && first == nil {
			first = err
		}
		kv.log = nil
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
