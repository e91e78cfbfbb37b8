package kvstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// These tests inject storage-level failures and verify the LSM backend
// degrades safely: corruption is detected (never silently served) and
// torn WAL tails are truncated without losing earlier records.

// TestSSTableCorruptionDetected: a flipped payload byte is caught through
// the LSM, and damaged lengths, counts and offsets are refused at open,
// cheaply. (The parent commit panicked on several of the latter — index out
// of range, divide by zero, negative make — asked the allocator for
// gigabytes on others, or opened the table and silently dropped keys.)
func TestSSTableCorruptionDetected(t *testing.T) {
	t.Run("flipped value byte", flippedValueByteDetected)
	damagedLengthsRefused(t)
}

func flippedValueByteDetected(t *testing.T) {
	dir := t.TempDir()
	kv, err := OpenLSM(dir, LSMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		kv.Put(fmt.Sprintf("k%03d", i), []byte(fmt.Sprintf("value-%03d", i)))
	}
	if err := kv.Flush(); err != nil {
		t.Fatal(err)
	}
	kv.Close()

	// Flip one byte inside a value payload region of the table file.
	names, _ := filepath.Glob(filepath.Join(dir, "*.sst"))
	if len(names) != 1 {
		t.Fatalf("tables = %v", names)
	}
	raw, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	// Entry region starts at offset 8; find the byte sequence "value-000"
	// and corrupt its middle.
	idx := -1
	for i := 0; i+9 < len(raw); i++ {
		if string(raw[i:i+6]) == "value-" {
			idx = i + 3
			break
		}
	}
	if idx < 0 {
		t.Fatal("payload not found in table file")
	}
	raw[idx] ^= 0xff
	if err := os.WriteFile(names[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	kv2, err := OpenLSM(dir, LSMOptions{})
	if err != nil {
		// Detection at open time (the recovery scan) is acceptable.
		return
	}
	defer kv2.Close()
	// Otherwise the corrupted entry must fail loudly at read time.
	sawError := false
	for i := 0; i < 50; i++ {
		v, ok, err := kv2.Get(fmt.Sprintf("k%03d", i))
		if err != nil {
			sawError = true
			continue
		}
		if ok && string(v) != fmt.Sprintf("value-%03d", i) {
			t.Fatalf("corrupted value served silently: k%03d = %q", i, v)
		}
	}
	if !sawError {
		t.Error("corruption neither detected at open nor at read")
	}
}

// smallTable writes a table of 50 small records and one tombstone and
// returns its path and bytes.
func smallTable(t testing.TB) (string, []byte) {
	t.Helper()
	var entries []ssEntry
	for i := 0; i < 50; i++ {
		entries = append(entries, ssEntry{key: fmt.Sprintf("k%03d", i), value: []byte(fmt.Sprintf("value-%03d", i))})
	}
	entries[7] = ssEntry{key: "k007", tombstone: true}
	path := filepath.Join(t.TempDir(), "000000.sst")
	tbl, err := writeSSTable(path, entries)
	if err != nil {
		t.Fatal(err)
	}
	tbl.close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, raw
}

func damagedLengthsRefused(t *testing.T) {
	path, valid := smallTable(t)
	le := binary.LittleEndian
	size := len(valid)
	bloomOff, indexOff := int(le.Uint64(valid[size-20:])), int(le.Uint64(valid[size-12:]))
	firstIdxOff := indexOff + 4 + 4 + int(le.Uint32(valid[indexOff+4:]))
	cases := []struct {
		name   string
		damage func(b []byte) []byte
		inData bool // the error must name the file and a data-region offset
	}{
		{"key length bit flip", func(b []byte) []byte { b[8+3] |= 0x80; return b }, true},
		{"value length bit flip", func(b []byte) []byte { b[12+3] |= 0x40; return b }, true},
		{"stray bytes where an entry header should start", func(b []byte) []byte {
			b = append(b[:bloomOff:bloomOff], append(make([]byte, 5), b[bloomOff:]...)...)
			le.PutUint64(b[len(b)-20:], uint64(bloomOff+5))
			le.PutUint64(b[len(b)-12:], uint64(indexOff+5))
			return b
		}, true},
		{"entry count", func(b []byte) []byte { le.PutUint32(b[4:], 51); return b }, false},
		{"bloom bit count 0", func(b []byte) []byte { le.PutUint32(b[bloomOff:], 0); return b }, false},
		{"bloom bit count 2^32-1", func(b []byte) []byte { le.PutUint32(b[bloomOff:], 0xffffffff); return b }, false},
		{"index count 2^32-1", func(b []byte) []byte { le.PutUint32(b[indexOff:], 0xffffffff); return b }, false},
		{"index entry offset past the data", func(b []byte) []byte { le.PutUint64(b[firstIdxOff:], 1<<40); return b }, false},
		{"bloom offset past the file", func(b []byte) []byte { le.PutUint64(b[size-20:], uint64(size)); return b }, false},
		{"bloom offset 2^64-2", func(b []byte) []byte { le.PutUint64(b[size-20:], 1<<64-2); return b }, false},
		{"index offset before bloom offset", func(b []byte) []byte { le.PutUint64(b[size-12:], 0); return b }, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			raw := c.damage(append([]byte(nil), valid...))
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			tbl, err := openSSTable(path)
			runtime.ReadMemStats(&after)
			if err == nil {
				tbl.close()
				t.Fatal("damaged table opened")
			}
			if c.inData && !(strings.Contains(err.Error(), path) && strings.Contains(err.Error(), "offset")) {
				t.Errorf("error does not name the file and offset: %v", err)
			}
			if d := after.TotalAlloc - before.TotalAlloc; d > 64<<10+8*uint64(len(raw)) {
				t.Errorf("refusing a %d-byte table allocated %d bytes", len(raw), d)
			}
		})
	}
}

// TestSSTableGetVerifiesWhatItServes damages a value after the table was
// opened (so the open-time pass cannot have caught it): the point read of
// that key must fail, and neighbours whose bytes are intact still read.
func TestSSTableGetVerifiesWhatItServes(t *testing.T) {
	path, raw := smallTable(t)
	tbl, err := openSSTable(path)
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.close()
	raw[bytes.Index(raw, []byte("value-020"))+7] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if e, found, err := tbl.get("k020"); err == nil {
		t.Fatalf("damaged value served: found=%v %q", found, e.value)
	}
	for _, k := range []string{"k019", "k021"} {
		if e, found, err := tbl.get(k); err != nil || !found || string(e.value) != "value-0"+k[2:] {
			t.Fatalf("get(%s) beside the damage: %q found=%v err=%v", k, e.value, found, err)
		}
	}
}

// onlyWAL returns the one log a store that never sealed leaves in dir.
func onlyWAL(t *testing.T, dir string) string {
	t.Helper()
	logs, _ := filepath.Glob(filepath.Join(dir, "*.wal"))
	if len(logs) != 1 {
		t.Fatalf("logs in %s = %v, want one", dir, logs)
	}
	return logs[0]
}

func TestWALTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	kv, err := OpenLSM(dir, LSMOptions{FlushBytes: 1 << 30}) // WAL-only
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		kv.Put(fmt.Sprintf("k%02d", i), []byte(fmt.Sprintf("v%02d", i)))
	}
	if err := kv.Close(); err != nil { // close syncs the WAL
		t.Fatal(err)
	}

	// Tear the tail: chop the last few bytes (mid-record crash).
	walPath := onlyWAL(t, dir)
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	kv2, err := OpenLSM(dir, LSMOptions{})
	if err != nil {
		t.Fatalf("reopen after torn tail: %v", err)
	}
	defer kv2.Close()
	// Everything except (at most) the final record must survive.
	for i := 0; i < 19; i++ {
		v, ok, err := kv2.Get(fmt.Sprintf("k%02d", i))
		if err != nil || !ok || string(v) != fmt.Sprintf("v%02d", i) {
			t.Errorf("k%02d lost after torn tail: %q ok=%v err=%v", i, v, ok, err)
		}
	}
	if _, ok, _ := kv2.Get("k19"); ok {
		t.Log("final record survived the tear (tear landed in the crc only) — fine")
	}
}

func TestWALTrailingGarbageIgnored(t *testing.T) {
	dir := t.TempDir()
	kv, err := OpenLSM(dir, LSMOptions{FlushBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	kv.Put("good", []byte("payload"))
	kv.Close()

	f, err := os.OpenFile(onlyWAL(t, dir), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x01, 0xff, 0xff, 0xff, 0x7f}) // bogus partial header
	f.Close()

	kv2, err := OpenLSM(dir, LSMOptions{})
	if err != nil {
		t.Fatalf("reopen with trailing garbage: %v", err)
	}
	defer kv2.Close()
	if v, ok, _ := kv2.Get("good"); !ok || string(v) != "payload" {
		t.Errorf("good record lost: %q ok=%v", v, ok)
	}
}

func TestLSMManyReopens(t *testing.T) {
	// Repeated crash-free reopen cycles must neither lose nor duplicate.
	dir := t.TempDir()
	for cycle := 0; cycle < 5; cycle++ {
		kv, err := OpenLSM(dir, LSMOptions{FlushBytes: 2 << 10})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			key := fmt.Sprintf("c%d-k%02d", cycle, i)
			if err := kv.Put(key, []byte(key)); err != nil {
				t.Fatal(err)
			}
		}
		// All prior cycles' keys must still read back.
		for pc := 0; pc <= cycle; pc++ {
			for i := 0; i < 20; i++ {
				key := fmt.Sprintf("c%d-k%02d", pc, i)
				v, ok, err := kv.Get(key)
				if err != nil || !ok || string(v) != key {
					t.Fatalf("cycle %d: %s = %q ok=%v err=%v", cycle, key, v, ok, err)
				}
			}
		}
		if err := kv.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// --- crash-injection matrix ----------------------------------------------
//
// Each case arms one crash hook at a durability boundary, drives the store
// into it, asserts the store fails sticky (every later op returns
// ErrStoreFailed), then reopens the directory and asserts the surviving
// state is exactly what the durability contract promises.

// crashErr is what the armed hooks return; the sticky failure must wrap
// ErrStoreFailed regardless.
var crashErr = errors.New("injected crash")

func assertSticky(t *testing.T, kv *LSMKV) {
	t.Helper()
	if err := kv.Put("post-crash", []byte("x")); !errors.Is(err, ErrStoreFailed) {
		t.Errorf("Put after crash = %v, want ErrStoreFailed", err)
	}
	if err := kv.Delete("post-crash"); !errors.Is(err, ErrStoreFailed) {
		t.Errorf("Delete after crash = %v, want ErrStoreFailed", err)
	}
	if err := kv.Sync(); !errors.Is(err, ErrStoreFailed) {
		t.Errorf("Sync after crash = %v, want ErrStoreFailed", err)
	}
	if err := kv.Flush(); !errors.Is(err, ErrStoreFailed) {
		t.Errorf("Flush after crash = %v, want ErrStoreFailed", err)
	}
}

func TestCrashAfterTableSyncRecovers(t *testing.T) {
	dir := t.TempDir()
	kv, err := OpenLSM(dir, LSMOptions{FlushBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := kv.Put(fmt.Sprintf("k%02d", i), []byte(fmt.Sprintf("v%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	crashAfterTableSync = func() error { return crashErr }
	defer func() { crashAfterTableSync = nil }()
	if err := kv.Flush(); !errors.Is(err, ErrStoreFailed) {
		t.Fatalf("Flush with crash hook = %v, want ErrStoreFailed", err)
	}
	assertSticky(t, kv)
	kv.Close()
	crashAfterTableSync = nil

	// The table was durable before the "crash" and the WAL still exists;
	// replaying both must yield every record exactly once.
	kv2, err := OpenLSM(dir, LSMOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer kv2.Close()
	for i := 0; i < 10; i++ {
		v, ok, err := kv2.Get(fmt.Sprintf("k%02d", i))
		if err != nil || !ok || string(v) != fmt.Sprintf("v%02d", i) {
			t.Errorf("k%02d after crash-reopen: %q ok=%v err=%v", i, v, ok, err)
		}
	}
}

func TestCrashAfterWALRemoveRecovers(t *testing.T) {
	dir := t.TempDir()
	kv, err := OpenLSM(dir, LSMOptions{FlushBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := kv.Put(fmt.Sprintf("k%02d", i), []byte(fmt.Sprintf("v%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	crashAfterWALRemove = func() error { return crashErr }
	defer func() { crashAfterWALRemove = nil }()
	if err := kv.Flush(); !errors.Is(err, ErrStoreFailed) {
		t.Fatalf("Flush with crash hook = %v, want ErrStoreFailed", err)
	}
	assertSticky(t, kv)
	kv.Close()
	crashAfterWALRemove = nil

	// No WAL on disk, but the SSTable made it: nothing may be lost.
	kv2, err := OpenLSM(dir, LSMOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer kv2.Close()
	for i := 0; i < 10; i++ {
		v, ok, err := kv2.Get(fmt.Sprintf("k%02d", i))
		if err != nil || !ok || string(v) != fmt.Sprintf("v%02d", i) {
			t.Errorf("k%02d after crash-reopen: %q ok=%v err=%v", i, v, ok, err)
		}
	}
}

func TestCrashMidCompactionNoResurrection(t *testing.T) {
	dir := t.TempDir()
	kv, err := OpenLSM(dir, LSMOptions{FlushBytes: 1 << 30, CompactAfter: 100})
	if err != nil {
		t.Fatal(err)
	}
	// Table 1: k1 live. Table 2: k1's tombstone + k2. The compaction merges
	// them into a table holding only k2 (tombstones dropped).
	if err := kv.Put("k1", []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	if err := kv.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := kv.Delete("k1"); err != nil {
		t.Fatal(err)
	}
	if err := kv.Put("k2", []byte("kept")); err != nil {
		t.Fatal(err)
	}
	if err := kv.Flush(); err != nil {
		t.Fatal(err)
	}
	crashMidCompaction = func() error { return crashErr }
	defer func() { crashMidCompaction = nil }()
	// The merged table and its commit marker are durable; the crash lands
	// before the superseded tables (including k1's only tombstone) are
	// removed.
	if err := kv.Compact(); !errors.Is(err, ErrStoreFailed) {
		t.Fatalf("Compact with crash hook = %v, want ErrStoreFailed", err)
	}
	assertSticky(t, kv)
	kv.Close()
	crashMidCompaction = nil

	// Without the marker, reopen would load the pre-compaction tables next
	// to the merged one — and since the merged table dropped the tombstone,
	// k1 would come back from the dead.
	kv2, err := OpenLSM(dir, LSMOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer kv2.Close()
	if v, ok, _ := kv2.Get("k1"); ok {
		t.Errorf("deleted key resurrected after crash mid-compaction: k1 = %q", v)
	}
	if v, ok, err := kv2.Get("k2"); err != nil || !ok || string(v) != "kept" {
		t.Errorf("k2 after crash-reopen: %q ok=%v err=%v", v, ok, err)
	}
	if markers, _ := filepath.Glob(filepath.Join(dir, "*.sst.compact")); len(markers) != 0 {
		t.Errorf("compaction markers survived recovery: %v", markers)
	}
}

// await blocks until cond, evaluated under the store's lock, holds or the
// store has failed; the background goroutine broadcasts every change.
func await(kv *LSMKV, cond func() bool) {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	for !cond() && kv.failed == nil {
		kv.wake.Wait()
	}
}

// refStore applies writes to a store and to the map the store must equal.
type refStore struct {
	t   *testing.T
	kv  *LSMKV
	ref map[string]string
}

func (r *refStore) put(key, val string) {
	r.t.Helper()
	if err := r.kv.Put(key, []byte(val)); err != nil {
		r.t.Fatal(err)
	}
	r.ref[key] = val
}

func (r *refStore) del(key string) {
	r.t.Helper()
	if err := r.kv.Delete(key); err != nil {
		r.t.Fatal(err)
	}
	delete(r.ref, key)
}

func (r *refStore) flush() {
	r.t.Helper()
	if err := r.kv.Flush(); err != nil {
		r.t.Fatal(err)
	}
}

// assertState requires kv's visible state to be ref, byte for byte: a scan
// yields exactly ref, and every key of ref — and every key in gone — reads
// the same through Get.
func assertState(t *testing.T, kv *LSMKV, ref map[string]string, gone ...string) {
	t.Helper()
	got := make(map[string]string)
	if err := kv.Scan("", func(k string, v []byte) bool { got[k] = string(v); return true }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ref) {
		for k, v := range got {
			if want, ok := ref[k]; !ok || v != want {
				t.Errorf("scan yields %s: %.40q (%d bytes), want %.40q (%d bytes, present %v)", k, v, len(v), want, len(want), ok)
			}
		}
		for k := range ref {
			if _, ok := got[k]; !ok {
				t.Errorf("scan lacks %s", k)
			}
		}
	}
	for k, want := range ref {
		if v, ok, err := kv.Get(k); err != nil || !ok || string(v) != want {
			t.Errorf("Get(%s) = %.40q (%d bytes) ok=%v err=%v, want %.40q (%d bytes)", k, v, len(v), ok, err, want, len(want))
		}
	}
	for _, k := range gone {
		if v, ok, err := kv.Get(k); err != nil || ok {
			t.Errorf("Get(%s) = %q ok=%v err=%v, want not found", k, v, ok, err)
		}
	}
}

func globCount(dir, pattern string) int {
	names, _ := filepath.Glob(filepath.Join(dir, pattern))
	return len(names)
}

// sealedWithParkedFlush opens a store, parks its background goroutine at
// crashAfterSeal, and writes until a memtable is sealed — its log's records
// still in the log's buffer — and a few more writes, among them a delete and
// an overwrite of sealed keys, sit in the fresh log. release lets the hook
// return err.
func sealedWithParkedFlush(t *testing.T, dir string) (r *refStore, release func(err error)) {
	t.Helper()
	kv, err := OpenLSM(dir, LSMOptions{FlushBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	parked := make(chan error)
	crashAfterSeal = func() error { return <-parked }
	t.Cleanup(func() { crashAfterSeal = nil })
	r = &refStore{t: t, kv: kv, ref: make(map[string]string)}
	sealed := func() bool {
		kv.mu.RLock()
		defer kv.mu.RUnlock()
		return kv.sealed != nil
	}
	for i := 0; !sealed(); i++ {
		r.put(fmt.Sprintf("k%02d", i), fmt.Sprintf("v%02d-%0100d", i, i))
	}
	r.put("after-seal", "x")
	r.put("k01", "overwritten")
	r.del("k00")
	return r, func(err error) { parked <- err }
}

// (a) The crash lands after the seal and before the table: two logs on
// disk, no table, and a reopen yields every acknowledged write.
func TestCrashAfterSealRecovers(t *testing.T) {
	dir := t.TempDir()
	r, release := sealedWithParkedFlush(t, dir)
	if err := r.kv.Sync(); err != nil {
		t.Fatalf("Sync across a seal: %v", err)
	}
	release(crashErr)
	await(r.kv, func() bool { return false })
	assertSticky(t, r.kv)
	r.kv.Close()
	if logs, tables := globCount(dir, "*.wal"), globCount(dir, "*.sst"); logs != 2 || tables != 0 {
		t.Fatalf("after a crash past the seal: %d logs and %d tables on disk, want 2 and 0", logs, tables)
	}
	kv2, err := OpenLSM(dir, LSMOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer kv2.Close()
	assertState(t, kv2, r.ref, "k00")
}

// (d) Sync reaches writes that a seal moved out of the log taking writes:
// with the sealed memtable's table not written yet, a copy of the directory
// taken right after Sync — no Close, nothing flushed since — holds them all.
func TestSyncCoversSealedLog(t *testing.T) {
	dir, snap := t.TempDir(), t.TempDir()
	r, release := sealedWithParkedFlush(t, dir)
	if err := r.kv.Sync(); err != nil {
		t.Fatal(err)
	}
	names, _ := filepath.Glob(filepath.Join(dir, "*"))
	for _, name := range names {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(snap, filepath.Base(name)), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	release(nil)
	if err := r.kv.Close(); err != nil {
		t.Fatal(err)
	}
	kv2, err := OpenLSM(snap, LSMOptions{})
	if err != nil {
		t.Fatalf("opening the snapshot: %v", err)
	}
	defer kv2.Close()
	assertState(t, kv2, r.ref, "k00")
}

// tieredStore builds the shape a partial merge meets: one large old table,
// then three small ones that shadow and delete some of its keys. With
// CompactAfter 3 the third small flush starts a merge of the small run only.
func tieredStore(t *testing.T, dir string) *refStore {
	t.Helper()
	kv, err := OpenLSM(dir, LSMOptions{FlushBytes: 1 << 30, CompactAfter: 3})
	if err != nil {
		t.Fatal(err)
	}
	r := &refStore{t: t, kv: kv, ref: make(map[string]string)}
	for i := 0; i < 40; i++ {
		r.put(fmt.Sprintf("old%02d", i), fmt.Sprintf("base-%0200d", i))
	}
	r.put("victim", "doomed")
	r.flush()
	r.put("old01", "tier1")
	r.put("x", "stale")
	r.flush()
	r.del("victim")
	r.del("old02")
	r.put("x", "fresh")
	r.flush()
	r.put("old03", "tier3")
	return r
}

// (b) The crash lands mid partial merge, with some inputs already unlinked:
// the marker names exactly the run, so a reopen drops the rest of it, keeps
// the old table the merge never touched, and shows no stale version.
func TestCrashMidPartialMergeInputsUnlinked(t *testing.T) {
	dir := t.TempDir()
	r := tieredStore(t, dir)
	crashMidCompaction = func() error { return crashErr }
	defer func() { crashMidCompaction = nil }()
	if err := r.kv.Flush(); err != nil && !errors.Is(err, ErrStoreFailed) {
		t.Fatal(err)
	}
	await(r.kv, func() bool { return false })
	assertSticky(t, r.kv)
	r.kv.Close()
	crashMidCompaction = nil
	// Tables 0..3 and the merged 4 are on disk. The process got as far as
	// unlinking table 2, the only input that held x's newest version and
	// victim's tombstone.
	if n := globCount(dir, "*.sst"); n != 5 {
		t.Fatalf("%d tables on disk at the crash, want 5", n)
	}
	if err := os.Remove(filepath.Join(dir, "000002.sst")); err != nil {
		t.Fatal(err)
	}
	kv2, err := OpenLSM(dir, LSMOptions{CompactAfter: 3})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer kv2.Close()
	assertState(t, kv2, r.ref, "victim", "old02")
	if kv2.TableCount() != 2 || globCount(dir, "*.sst") != 2 || globCount(dir, "*.compact") != 0 {
		t.Errorf("after recovery: %d tables open, %d on disk, %d markers; want 2, 2, 0",
			kv2.TableCount(), globCount(dir, "*.sst"), globCount(dir, "*.compact"))
	}
	if _, err := os.Stat(filepath.Join(dir, "000000.sst")); err != nil {
		t.Errorf("the table outside the run is gone: %v", err)
	}
}

// (c) A tombstone in the merged run shadows a value in the older table the
// merge leaves alone: it must survive the merge, and a reopen, or the
// deleted key comes back.
func TestTombstoneSurvivesPartialMerge(t *testing.T) {
	dir := t.TempDir()
	r := tieredStore(t, dir)
	r.flush()
	await(r.kv, func() bool { return len(r.kv.tables) == 2 })
	if e, found, err := r.kv.tables[1].get("victim"); err != nil || !found || !e.tombstone {
		t.Errorf("merged run: victim found=%v tombstone=%v err=%v, want its tombstone kept", found, e.tombstone, err)
	}
	assertState(t, r.kv, r.ref, "victim", "old02")
	if err := r.kv.Close(); err != nil {
		t.Fatal(err)
	}
	kv2, err := OpenLSM(dir, LSMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer kv2.Close()
	assertState(t, kv2, r.ref, "victim", "old02")
	// Only a merge that reaches the oldest table may drop it.
	if err := kv2.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, found, _ := kv2.tables[0].get("victim"); found || kv2.TableCount() != 1 {
		t.Errorf("full merge: victim found=%v in %d tables, want it dropped from one table", found, kv2.TableCount())
	}
	assertState(t, kv2, r.ref, "victim", "old02")
}

// TestDeleteHeavyFlush pins the memLen accounting fix: tombstones carry
// key + overhead cost, so a delete-only workload must still cross
// FlushBytes and flush (before the fix, Delete never checked the
// threshold and tombstones accounted zero bytes, growing the memtable and
// WAL without bound).
func TestDeleteHeavyFlush(t *testing.T) {
	dir := t.TempDir()
	kv, err := OpenLSM(dir, LSMOptions{FlushBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	for i := 0; i < 200; i++ {
		if err := kv.Delete(fmt.Sprintf("some/reasonably/long/deleted/key/%06d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if handOffs(kv) == 0 {
		t.Errorf("no memtable sealed after 200 deletes with a 4 KiB threshold: delete path never flushes")
	}
	if err := kv.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := kv.TableCount(); got == 0 {
		t.Errorf("TableCount = 0 after 200 deletes and a Flush")
	}
}

func TestLSMDoubleCloseIsNoop(t *testing.T) {
	kv, err := OpenLSM(t.TempDir(), LSMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	kv.Put("a", []byte("1"))
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := kv.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// --- value logs ---------------------------------------------------------

// bigVal is a value large enough to be kept in its log.
func bigVal(seed, n int) string { return string(patterned(seed, vlogMin+n)) }

// (e) The crash lands after the table is durable and published, before its
// log is renamed to a value log: a reopen replays the log and serves the
// table's pointers from it, and the next flush keeps it as a value log.
func TestCrashBeforeLogKeepRecovers(t *testing.T) {
	dir := t.TempDir()
	kv, err := OpenLSM(dir, LSMOptions{FlushBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	r := &refStore{t: t, kv: kv, ref: make(map[string]string)}
	for i := 0; i < 10; i++ {
		r.put(fmt.Sprintf("big%02d", i), bigVal(i, i*1000))
		r.put(fmt.Sprintf("small%02d", i), fmt.Sprintf("v%02d", i))
	}
	r.put("big03", bigVal(99, 5))
	r.del("big04")
	crashBeforeLogKeep = func() error { return crashErr }
	defer func() { crashBeforeLogKeep = nil }()
	if err := kv.Flush(); !errors.Is(err, ErrStoreFailed) {
		t.Fatalf("Flush with crash hook = %v, want ErrStoreFailed", err)
	}
	assertSticky(t, kv)
	kv.Close()
	crashBeforeLogKeep = nil
	if logs, tables, vlogs := globCount(dir, "*.wal"), globCount(dir, "*.sst"), globCount(dir, "*.vlog"); logs != 2 || tables != 1 || vlogs != 0 {
		t.Fatalf("at the crash: %d logs, %d tables, %d value logs on disk; want 2, 1, 0", logs, tables, vlogs)
	}

	kv2, err := OpenLSM(dir, LSMOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	assertState(t, kv2, r.ref, "big04")
	// The replayed memtable shadows the table; its pointers still resolve.
	kv2.mu.RLock()
	for k, want := range r.ref {
		e, found, err := kv2.tables[0].get(k)
		if err == nil && found && e.ptr {
			var v []byte
			if v, err = kv2.resolveLocked(e); err == nil && string(v) != want {
				err = fmt.Errorf("read %d bytes that differ from the %d written", len(v), len(want))
			}
		}
		if err != nil || !found || e.ptr != (len(want) >= vlogMin) {
			t.Errorf("table entry %s: found=%v ptr=%v err=%v", k, found, e.ptr, err)
		}
	}
	kv2.mu.RUnlock()
	if err := kv2.Flush(); err != nil {
		t.Fatal(err)
	}
	if logs, vlogs := globCount(dir, "*.wal"), globCount(dir, "*.vlog"); logs != 1 || vlogs != 1 {
		t.Errorf("after the next flush: %d logs and %d value logs, want 1 and 1", logs, vlogs)
	}
	assertState(t, kv2, r.ref, "big04")
	if err := kv2.Close(); err != nil {
		t.Fatal(err)
	}
	kv3, err := OpenLSM(dir, LSMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer kv3.Close()
	assertState(t, kv3, r.ref, "big04")
}

// churnUntil overwrites and deletes large values on a store small enough to
// start value-log GC, until a write fails (an armed hook marked the store
// failed) or the rounds run out. It returns the acknowledged state, and the
// write that failed, if one did: a write that failed while it waited for a
// flush may or may not have been applied, so settle takes its outcome from
// the store.
func churnUntil(t *testing.T, kv *LSMKV, rounds int) (ref map[string]string, settle func(*LSMKV)) {
	t.Helper()
	ref = make(map[string]string)
	write := func(key string, val string, del bool) bool {
		var err error
		if del {
			err = kv.Delete(key)
		} else {
			err = kv.Put(key, []byte(val))
		}
		if errors.Is(err, ErrStoreFailed) {
			settle = func(kv *LSMKV) {
				if v, ok, _ := kv.Get(key); del && !ok {
					delete(ref, key)
				} else if !del && ok && string(v) == val {
					ref[key] = val
				}
			}
			return false
		}
		if err != nil {
			t.Fatal(err)
		}
		if del {
			delete(ref, key)
		} else {
			ref[key] = val
		}
		return true
	}
	for round := 0; round < rounds; round++ {
		for i := 0; i < 16; i++ {
			if !write(fmt.Sprintf("chunk%02d", i), bigVal(round*16+i, i*97), (round+i)%5 == 4) ||
				!write(fmt.Sprintf("meta%02d", i), fmt.Sprint(round), false) {
				return ref, settle
			}
		}
	}
	return ref, nil
}

// crashInValueGC arms hook, churns until the value-log GC reaches it and
// the store fails, and returns the acknowledged state, to be settled against
// the reopened store, and the value logs on disk when the hook fired.
func crashInValueGC(t *testing.T, dir string, hook *func() error) (map[string]string, func(*LSMKV), []string) {
	t.Helper()
	kv, err := OpenLSM(dir, LSMOptions{FlushBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	var atCrash []string
	*hook = func() error {
		atCrash, _ = filepath.Glob(filepath.Join(dir, "*.vlog"))
		return crashErr
	}
	defer func() { *hook = nil }()
	ref, settle := churnUntil(t, kv, 200)
	if settle == nil {
		await(kv, func() bool { return false })
		settle = func(*LSMKV) {}
	}
	if atCrash == nil {
		t.Fatal("the churn never started a value-log GC")
	}
	assertSticky(t, kv)
	kv.Close()
	return ref, settle, atCrash
}

// (f) The crash lands mid value-GC, after the live values are appended
// again and synced, before the old value log is unlinked: a reopen reads
// the relocated values, beside the old log, and GC carries on from there.
func TestCrashMidValueGCRecovers(t *testing.T) {
	dir := t.TempDir()
	ref, settle, atCrash := crashInValueGC(t, dir, &crashMidValueGC)
	for _, name := range atCrash {
		if _, err := os.Stat(name); err != nil {
			t.Errorf("value log %s was on disk when the GC crashed, now: %v", name, err)
		}
	}
	kv, err := OpenLSM(dir, LSMOptions{FlushBytes: 16 << 10})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer kv.Close()
	settle(kv)
	assertState(t, kv, ref)
	if err := kv.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := kv.Compact(); err != nil {
		t.Fatal(err)
	}
	await(kv, func() bool { return kv.collectableLocked() == nil })
	assertState(t, kv, ref)
}

// (g) The crash lands after the old value log is unlinked, before the
// directory fsync: a reopen reads every value from where GC moved it.
func TestCrashAfterVlogUnlinkRecovers(t *testing.T) {
	dir := t.TempDir()
	ref, settle, _ := crashInValueGC(t, dir, &crashAfterVlogUnlink)
	kv, err := OpenLSM(dir, LSMOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer kv.Close()
	settle(kv)
	assertState(t, kv, ref)
}

// TestTableNeverAheadOfItsValues: when a flushed table becomes durable,
// every value it points to is durable too. At that moment a copy of the
// directory is taken that keeps of each log only the prefix known fsynced
// (a power cut loses the rest); every entry of the copy's tables must
// still resolve.
func TestTableNeverAheadOfItsValues(t *testing.T) {
	dir, snap := t.TempDir(), t.TempDir()
	kv, err := OpenLSM(dir, LSMOptions{FlushBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	for i := 0; i < 8; i++ {
		if err := kv.Put(fmt.Sprintf("big%02d", i), []byte(bigVal(i, 100*i))); err != nil {
			t.Fatal(err)
		}
	}
	copied := false
	crashAfterTableSync = func() error {
		kv.mu.RLock()
		synced := map[string]int64{}
		for _, mt := range []*memtable{kv.sealed, kv.mem} {
			mt.log.mu.Lock()
			synced[mt.log.path] = mt.log.synced
			mt.log.mu.Unlock()
		}
		kv.mu.RUnlock()
		names, _ := filepath.Glob(filepath.Join(dir, "*"))
		for _, name := range names {
			raw, err := os.ReadFile(name)
			if err != nil {
				return err
			}
			if n, ok := synced[name]; ok {
				raw = raw[:min(int64(len(raw)), n)]
			}
			if err := os.WriteFile(filepath.Join(snap, filepath.Base(name)), raw, 0o644); err != nil {
				return err
			}
		}
		copied = true
		return nil
	}
	defer func() { crashAfterTableSync = nil }()
	if err := kv.Flush(); err != nil {
		t.Fatal(err)
	}
	crashAfterTableSync = nil
	if !copied {
		t.Fatal("the hook never ran")
	}
	kv2, err := OpenLSM(snap, LSMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer kv2.Close()
	if kv2.TableCount() != 1 {
		t.Fatalf("%d tables in the copy, want 1", kv2.TableCount())
	}
	kv2.mu.RLock()
	defer kv2.mu.RUnlock()
	n := 0
	err = kv2.tables[0].iterate(8, func(e ssEntry) bool {
		if _, err := kv2.resolveLocked(e); err != nil {
			t.Errorf("%s: %v", e.key, err)
		}
		n++
		return true
	})
	if err != nil || n != 8 {
		t.Errorf("iterated %d entries, err=%v", n, err)
	}
}

// TestValueLogReadBounded: a pointer whose length or offset a damaged table
// made up is refused before anything is sized by it, and bytes whose CRC
// does not match are never served.
func TestValueLogReadBounded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "000001.vlog")
	val := patterned(1, 8<<10)
	if err := os.WriteFile(path, append(make([]byte, 100), val...), 0o644); err != nil {
		t.Fatal(err)
	}
	v, err := openValueLog(1, path)
	if err != nil {
		t.Fatal(err)
	}
	defer v.f.Close()
	good := vptr{log: 1, off: 100, n: uint32(len(val)), crc: crc32.ChecksumIEEE(val)}
	if got, err := v.read(good); err != nil || !bytes.Equal(got, val) {
		t.Fatalf("good pointer: %d bytes, err=%v", len(got), err)
	}
	for name, p := range map[string]vptr{
		"length 2^32-1":       {log: 1, off: 100, n: 1<<32 - 1, crc: good.crc},
		"offset past the end": {log: 1, off: 1 << 40, n: 10, crc: good.crc},
		"offset 2^64-1":       {log: 1, off: 1<<64 - 1, n: 2, crc: good.crc},
		"one byte too long":   {log: 1, off: 100, n: good.n + 1, crc: good.crc},
		"wrong crc":           {log: 1, off: 100, n: good.n, crc: good.crc ^ 1},
		"shifted":             {log: 1, off: 99, n: good.n, crc: good.crc},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := v.read(p)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: served %d bytes", name, len(got))
		}
		if d := after.TotalAlloc - before.TotalAlloc; d > 64<<10 {
			t.Errorf("%s: refusing allocated %d bytes", name, d)
		}
	}
}
