package kvstore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// patterned returns n bytes that differ per seed and per position, so a
// read that lands at the wrong offset or length cannot pass by accident.
func patterned(seed, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(seed*131 + i*7 + i>>8)
	}
	return b
}

// mixedEntries is one table's worth of everything the point read has to
// get right: runs of small records, values on either side of ssBlock,
// dedup-chunk- and segment-sized values, empty values, tombstones and a key
// longer than the read window. Keys come back sorted.
func mixedEntries() []ssEntry {
	var es []ssEntry
	for i := 0; i < 300; i++ { // ~30 B each encoded: several share one index slot
		es = append(es, ssEntry{key: fmt.Sprintf("a/%04d", i), value: patterned(i, 10)})
	}
	for i, n := range []int{ssBlock - 1, ssBlock, ssBlock + 1, 64 << 10, 1 << 20, 0, 64 << 10} {
		es = append(es, ssEntry{key: fmt.Sprintf("b/%02d", i), value: patterned(1000+i, n)})
		es = append(es, ssEntry{key: fmt.Sprintf("b/%02d/small", i), value: patterned(2000+i, 10)})
	}
	for i := 0; i < 40; i++ {
		e := ssEntry{key: fmt.Sprintf("c/%04d", i), value: patterned(3000+i, 3000)}
		switch i % 4 {
		case 1:
			e = ssEntry{key: e.key, tombstone: true}
		case 2:
			e.value = []byte{}
		}
		es = append(es, e)
	}
	long := "d/" + strings.Repeat("k", ssBlock+100)
	es = append(es,
		ssEntry{key: long, value: patterned(4000, 50)},
		ssEntry{key: long + "x", value: patterned(4001, 64<<10)},
		ssEntry{key: "e/last", value: patterned(5000, 10)},
	)
	sort.Slice(es, func(i, j int) bool { return es[i].key < es[j].key })
	return es
}

// absentKeys are keys mixedEntries does not hold: before the first, between
// neighbours (small, large and long-keyed ones), and after the last.
func absentKeys() []string {
	return []string{
		"", "a", "a/", "a/0000x", "a/0150x", "a/9999", "b/03x", "b/04/smal", "b/04/smallx",
		"c/0001x", "c/0039x", "d/" + strings.Repeat("k", ssBlock+99), "d/" + strings.Repeat("k", ssBlock+100) + "w",
		"d/" + strings.Repeat("k", ssBlock+101), "e/lasu", "zzz",
	}
}

func writeTable(t testing.TB, entries []ssEntry) *sstable {
	t.Helper()
	tbl, err := writeSSTable(filepath.Join(t.TempDir(), "t.sst"), entries)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tbl.close() })
	return tbl
}

// checkTable asserts get agrees with entries on every key held and on the
// absent ones, and that iterate yields exactly entries.
func checkTable(t *testing.T, tbl *sstable, entries []ssEntry) {
	t.Helper()
	for _, e := range entries {
		g, found, err := tbl.get(e.key)
		if err != nil || !found || g.tombstone != e.tombstone || g.ptr != e.ptr || !bytes.Equal(g.value, e.value) || g.value == nil {
			t.Fatalf("get(%.40q): found=%v tomb=%v ptr=%v len=%d err=%v; want tomb=%v ptr=%v len=%d", e.key, found, g.tombstone, g.ptr, len(g.value), err, e.tombstone, e.ptr, len(e.value))
		}
	}
	for _, k := range absentKeys() {
		if g, found, err := tbl.get(k); found || err != nil || g.value != nil {
			t.Fatalf("get(absent %.40q): found=%v err=%v", k, found, err)
		}
	}
	i := 0
	err := tbl.iterate(8, func(e ssEntry) bool {
		w := entries[i]
		if e.key != w.key || e.tombstone != w.tombstone || !bytes.Equal(e.value, w.value) {
			t.Fatalf("iterate entry %d = %.40q (tomb %v, %d bytes); want %.40q (tomb %v, %d bytes)", i, e.key, e.tombstone, len(e.value), w.key, w.tombstone, len(w.value))
		}
		i++
		return true
	})
	if err != nil || i != len(entries) {
		t.Fatalf("iterate yielded %d of %d entries, err=%v", i, len(entries), err)
	}
}

func TestSSTablePointRead(t *testing.T) {
	entries := mixedEntries()
	tbl := writeTable(t, entries)
	if tbl.minKey != "a/0000" || tbl.maxKey != "e/last" {
		t.Fatalf("min/max = %q/%q", tbl.minKey, tbl.maxKey)
	}
	checkTable(t, tbl, entries)
	re, err := openSSTable(tbl.path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.close()
	if re.count != tbl.count || re.bytes != tbl.bytes || re.minKey != tbl.minKey || re.maxKey != tbl.maxKey ||
		!reflect.DeepEqual(re.index, tbl.index) {
		t.Fatalf("reopened table differs: count %d/%d bytes %d/%d index %d/%d", re.count, tbl.count, re.bytes, tbl.bytes, len(re.index), len(tbl.index))
	}
	checkTable(t, re, entries)
}

// TestSSTableIndexDensity pins the index rule on a table that mixes small
// and large entries (an all-large table would pass under "index
// everything"; an all-small one under "every Nth").
func TestSSTableIndexDensity(t *testing.T) {
	entries := mixedEntries()
	tbl := writeTable(t, entries)
	indexed := make(map[string]uint64, len(tbl.index))
	for _, ie := range tbl.index {
		indexed[ie.key] = ie.offset
	}
	off, last := uint64(8), uint64(0)
	smallBytes, smallIndexed, large := uint64(0), 0, 0
	for i, e := range entries {
		size := uint64(8 + len(e.key) + len(e.value) + 4)
		at, isIndexed := indexed[e.key]
		if isIndexed && at != off {
			t.Fatalf("index offset of %.40q = %d, entry is at %d", e.key, at, off)
		}
		if (i == 0 || size >= ssBlock) && !isIndexed {
			t.Errorf("entry %.40q (%d bytes encoded) is not indexed itself", e.key, size)
		}
		if isIndexed {
			last = off
		}
		if off-last >= ssBlock {
			t.Errorf("entry %.40q starts %d bytes past the last indexed entry", e.key, off-last)
		}
		if size >= ssBlock {
			large++
		} else {
			smallBytes += size
			if isIndexed {
				smallIndexed++
			}
		}
		off += size
	}
	if off != tbl.dataEnd {
		t.Fatalf("walked to %d, dataEnd %d", off, tbl.dataEnd)
	}
	// Small entries share slots: one is indexed per ssBlock of small-entry
	// bytes, plus the first entry and the one after each large entry.
	if max := int(smallBytes/ssBlock) + large + 1; smallIndexed > max || smallIndexed == 0 {
		t.Errorf("%d small entries indexed, want 1..%d (%d small bytes, %d large entries)", smallIndexed, max, smallBytes, large)
	}
}

// writeCountIndexedTable is the parent commit's writer: the same file
// layout, indexing every every-th entry by count.
func writeCountIndexedTable(t *testing.T, path string, entries []ssEntry, every int) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	var off uint64
	u32 := func(v uint32) { binary.Write(w, binary.LittleEndian, v); off += 4 }
	u64 := func(v uint64) { binary.Write(w, binary.LittleEndian, v); off += 8 }
	nbits := uint32(len(entries)*bloomBitsPer + 64)
	bloom := make([]uint64, (nbits+63)/64)
	var index []ssIndexEntry
	u32(ssMagic)
	u32(uint32(len(entries)))
	for i, e := range entries {
		if i%every == 0 {
			index = append(index, ssIndexEntry{key: e.key, offset: off})
		}
		bloomSet(bloom, nbits, e.key)
		u32(uint32(len(e.key)))
		if e.tombstone {
			u32(tombstoneMark)
		} else {
			u32(uint32(len(e.value)))
		}
		w.WriteString(e.key)
		w.Write(e.value)
		off += uint64(len(e.key) + len(e.value))
		u32(crc32.Update(crc32.ChecksumIEEE([]byte(e.key)), crc32.IEEETable, e.value))
	}
	bloomOff := off
	u32(nbits)
	for _, word := range bloom {
		u64(word)
	}
	indexOff := off
	u32(uint32(len(index)))
	for _, ie := range index {
		u32(uint32(len(ie.key)))
		w.WriteString(ie.key)
		off += uint64(len(ie.key))
		u64(ie.offset)
	}
	u64(bloomOff)
	u64(indexOff)
	u32(ssMagic)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestSSTableReadsParentIndexRule(t *testing.T) {
	entries := mixedEntries()
	path := filepath.Join(t.TempDir(), "old.sst")
	writeCountIndexedTable(t, path, entries, 16)
	old, err := openSSTable(path)
	if err != nil {
		t.Fatal(err)
	}
	defer old.close()
	cur := writeTable(t, entries)
	if len(old.index) != (len(entries)+15)/16 || len(old.index) == len(cur.index) {
		t.Fatalf("old table has %d index entries, new %d: the test-local writer is not the every-16th rule", len(old.index), len(cur.index))
	}
	if old.count != cur.count || old.bytes != cur.bytes || old.minKey != cur.minKey || old.maxKey != cur.maxKey || old.dataEnd != cur.dataEnd {
		t.Fatalf("old table meta differs from new: count %d/%d bytes %d/%d dataEnd %d/%d", old.count, cur.count, old.bytes, cur.bytes, old.dataEnd, cur.dataEnd)
	}
	checkTable(t, old, entries)
}

// bloomPositiveAbsent finds a key inside the table's range that it does
// not hold but its bloom filter admits, so a get for it walks a block.
func bloomPositiveAbsent(t *testing.T, tbl *sstable) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		if k := fmt.Sprintf("b/absent%d", i); bloomMayContain(tbl.bloom, tbl.nbits, k) {
			return k
		}
	}
	t.Fatal("no bloom false positive found")
	return ""
}

// TestSSTableGetAllocs pins the point read's allocations. The bounds hold
// under -race too, where the stack window moves to the heap: that is the
// second allocation of a hit and the one of a walking miss, and it is
// subtracted from the byte bound by measuring the miss.
func TestSSTableGetAllocs(t *testing.T) {
	tbl := writeTable(t, mixedEntries())
	miss := bloomPositiveAbsent(t, tbl)
	bytesPerGet := func(key string) uint64 {
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			tbl.get(key)
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	missBytes := bytesPerGet(miss)
	if n := testing.AllocsPerRun(50, func() { tbl.get(miss) }); n > 1 {
		t.Errorf("walking miss: %v allocs, want ≤ 1", n)
	}
	if n := testing.AllocsPerRun(50, func() { tbl.get("zzz") }); n != 0 {
		t.Errorf("out-of-range miss: %v allocs, want 0", n)
	}
	for _, key := range []string{"a/0150", "b/00", "b/03", "b/04", "c/0001"} {
		e, found, err := tbl.get(key)
		v := e.value
		if !found || err != nil {
			t.Fatalf("get(%q): found=%v err=%v", key, found, err)
		}
		if n := testing.AllocsPerRun(50, func() { tbl.get(key) }); n > 2 {
			t.Errorf("hit %q (%d bytes): %v allocs, want ≤ 2", key, len(v), n)
		}
		if got, max := bytesPerGet(key), missBytes+uint64(len(v))+1024; got > max {
			t.Errorf("hit %q: %d bytes allocated per get, want ≤ %d (value %d + walking miss %d + 1 KiB)", key, got, max, len(v), missBytes)
		}
	}
}

// TestHashesMatchStdlib pins the inlined FNV-1a and CRC-32 to the stdlib
// ones the parent wrote tables with, so existing filters and checksums
// still match.
func TestHashesMatchStdlib(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	keys := []string{"", "a", "cas/0123456789abcdef", strings.Repeat("\xff", 300)}
	for i := 0; i < 200; i++ {
		b := make([]byte, r.Intn(64))
		r.Read(b)
		keys = append(keys, string(b))
	}
	for _, k := range keys {
		h := fnv.New64a()
		h.Write([]byte(k))
		w1 := h.Sum64()
		h.Write([]byte{0x9d})
		if h1, h2 := bloomHashes(k); h1 != w1 || h2 != h.Sum64() {
			t.Fatalf("bloomHashes(%q) = %x, %x; hash/fnv gives %x, %x", k, h1, h2, w1, h.Sum64())
		}
		if got, want := crcString(k), crc32.ChecksumIEEE([]byte(k)); got != want {
			t.Fatalf("crcString(%q) = %x; crc32.ChecksumIEEE gives %x", k, got, want)
		}
	}
}

// TestLSMScanPrefixEquivalence: Scan(prefix), which enters each table
// through its index, must equal Scan("") filtered by the prefix, over
// several tables that shadow and tombstone each other plus a memtable.
func TestLSMScanPrefixEquivalence(t *testing.T) {
	kv, err := OpenLSM(t.TempDir(), LSMOptions{FlushBytes: 1 << 30, CompactAfter: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	r := rand.New(rand.NewSource(7))
	prefixes := []string{"cat/m/", "cat/r/", "cas/", "seg/", "z"}
	for round := 0; round < 5; round++ {
		for i := 0; i < 400; i++ {
			key := fmt.Sprintf("%s%03d", prefixes[r.Intn(len(prefixes))], r.Intn(300))
			switch r.Intn(5) {
			case 0:
				kv.Delete(key)
			case 1:
				kv.Put(key, patterned(i, 6000)) // indexed itself
			default:
				kv.Put(key, patterned(i, r.Intn(40)))
			}
		}
		if round < 4 { // the last round stays in the memtable
			if err := kv.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if kv.TableCount() != 4 {
		t.Fatalf("tables = %d, want 4", kv.TableCount())
	}
	type pair struct {
		k string
		v []byte
	}
	scan := func(prefix string) (out []pair) {
		if err := kv.Scan(prefix, func(k string, v []byte) bool {
			out = append(out, pair{k, append([]byte(nil), v...)})
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	all := scan("")
	if len(all) < 500 {
		t.Fatalf("only %d live keys: the fixture is too thin", len(all))
	}
	for _, prefix := range append(prefixes, "", "c", "cat/", "cat/m/1", "cat/m/299", "cat/m/3", "a", "seg/000", "zz", "\xff") {
		var want []pair
		for _, p := range all {
			if strings.HasPrefix(p.k, prefix) {
				want = append(want, p)
			}
		}
		if got := scan(prefix); !reflect.DeepEqual(got, want) {
			t.Errorf("Scan(%q) returned %d keys, filtered Scan(\"\") %d", prefix, len(got), len(want))
		}
	}
}

// ptrTable writes a value log of three large values and a table of 50
// records that mixes inline values, tombstones and vptrs into that log,
// and returns the log open and the table's path and bytes.
func ptrTable(t testing.TB) (*valueLog, string, []byte) {
	t.Helper()
	dir := t.TempDir()
	var logBytes []byte
	var ptrs []vptr
	for i := 0; i < 3; i++ {
		v := patterned(100+i, vlogMin+i*700)
		logBytes = append(logBytes, make([]byte, 30)...) // a record header and key
		ptrs = append(ptrs, vptr{log: 7, off: uint64(len(logBytes)), n: uint32(len(v)), crc: crc32.ChecksumIEEE(v)})
		logBytes = append(logBytes, v...)
	}
	logPath := filepath.Join(dir, "000007.vlog")
	if err := os.WriteFile(logPath, logBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	vl, err := openValueLog(7, logPath)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { vl.f.Close() })
	var entries []ssEntry
	for i := 0; i < 50; i++ {
		e := ssEntry{key: fmt.Sprintf("k%03d", i), value: []byte(fmt.Sprintf("value-%03d", i))}
		switch i % 7 {
		case 0:
			e = ssEntry{key: e.key, tombstone: true}
		case 3:
			e = ssEntry{key: e.key, value: ptrs[i%3].appendTo(nil), ptr: true}
		}
		entries = append(entries, e)
	}
	path := filepath.Join(dir, "000000.sst")
	tbl, err := writeSSTable(path, entries)
	if err != nil {
		t.Fatal(err)
	}
	tbl.close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return vl, path, raw
}

// TestSSTableMixedEntryKinds: inline, tombstone and vptr entries round-trip
// through get, iterate and a reopen, and the table counts the bytes its
// pointers reference.
func TestSSTableMixedEntryKinds(t *testing.T) {
	vl, path, _ := ptrTable(t)
	tbl, err := openSSTable(path)
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.close()
	kinds := map[string]int{}
	var refBytes int64
	err = tbl.iterate(8, func(e ssEntry) bool {
		g, found, err := tbl.get(e.key)
		if err != nil || !found || g.ptr != e.ptr || g.tombstone != e.tombstone || !bytes.Equal(g.value, e.value) {
			t.Errorf("get(%s) = %+v found=%v err=%v, iterate gave %+v", e.key, g, found, err, e)
		}
		switch {
		case e.ptr:
			kinds["ptr"]++
			refBytes += e.size()
			if v, err := vl.read(decodeVptr(e.value)); err != nil || int64(len(v)) != e.size() {
				t.Errorf("%s: read %d bytes, err=%v", e.key, len(v), err)
			}
		case e.tombstone:
			kinds["tombstone"]++
		default:
			kinds["inline"]++
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if kinds["ptr"] == 0 || kinds["tombstone"] == 0 || kinds["inline"] == 0 {
		t.Fatalf("entry kinds %v: want all three", kinds)
	}
	if tbl.refBytes != refBytes || refBytes == 0 {
		t.Errorf("refBytes = %d, the pointers reference %d", tbl.refBytes, refBytes)
	}
}

// FuzzSSTableGet feeds arbitrary bytes to the on-disk reader as a table
// file, seeded with a table that mixes inline, tombstone and vptr entries:
// open, a few point reads (a vptr found is read from a value log), a full
// iterate. Nothing may panic, nothing may be sized by a length the file
// claims but does not have — total allocation stays within a small
// multiple of the file and the value log — and a value-log read that
// succeeds serves bytes matching the pointer's CRC.
func FuzzSSTableGet(f *testing.F) {
	vl, _, valid := ptrTable(f)
	f.Add(valid)
	for n := len(valid) - 1; n > 0; n -= len(valid) / 9 {
		f.Add(valid[:n])
	}
	_, small := smallTable(f)
	f.Add(small)
	path := filepath.Join(f.TempDir(), "fuzz.sst")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if tbl, err := openSSTable(path); err == nil {
			for _, k := range []string{tbl.minKey, tbl.maxKey, "k003", "k007", "k020", "k020x", ""} {
				if e, found, err := tbl.get(k); err == nil && found && e.ptr {
					p := decodeVptr(e.value)
					if v, err := vl.read(p); err == nil && crc32.ChecksumIEEE(v) != p.crc {
						t.Fatalf("value log served %d bytes whose crc does not match the pointer's", len(v))
					}
				}
			}
			tbl.iterate(8, func(ssEntry) bool { return true })
			tbl.close()
		}
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; d > 64<<10+32*uint64(len(data))+7*uint64(vl.size) {
			t.Fatalf("a %d-byte file made the reader allocate %d bytes", len(data), d)
		}
	})
}
