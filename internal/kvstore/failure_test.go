package kvstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
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
	if v, found, _, err := tbl.get("k020"); err == nil {
		t.Fatalf("damaged value served: found=%v %q", found, v)
	}
	for _, k := range []string{"k019", "k021"} {
		if v, found, _, err := tbl.get(k); err != nil || !found || string(v) != "value-0"+k[2:] {
			t.Fatalf("get(%s) beside the damage: %q found=%v err=%v", k, v, found, err)
		}
	}
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
	walPath := filepath.Join(dir, "wal.log")
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

	f, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_APPEND|os.O_WRONLY, 0o644)
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
	if got := kv.TableCount(); got == 0 {
		t.Errorf("TableCount = 0 after 200 deletes with a 4 KiB threshold: delete path never flushes")
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
