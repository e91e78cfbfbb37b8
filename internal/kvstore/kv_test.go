package kvstore

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// runKVContract exercises behaviour every KV implementation must satisfy.
func runKVContract(t *testing.T, kv KV) {
	t.Helper()
	// Missing key.
	if _, ok, err := kv.Get("nope"); ok || err != nil {
		t.Fatalf("Get missing = ok=%v err=%v", ok, err)
	}
	// Put/Get.
	if err := kv.Put("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := kv.Get("a"); !ok || string(v) != "1" {
		t.Fatalf("Get(a) = %q ok=%v", v, ok)
	}
	// Overwrite.
	kv.Put("a", []byte("22"))
	if v, _, _ := kv.Get("a"); string(v) != "22" {
		t.Fatalf("overwrite failed: %q", v)
	}
	// Put must copy its input.
	buf := []byte("mutable")
	kv.Put("copy", buf)
	buf[0] = 'X'
	if v, _, _ := kv.Get("copy"); string(v) != "mutable" {
		t.Errorf("Put did not copy value: %q", v)
	}
	// Delete.
	kv.Put("b", []byte("x"))
	kv.Delete("b")
	if _, ok, _ := kv.Get("b"); ok {
		t.Error("Get found deleted key")
	}
	if err := kv.Delete("never-existed"); err != nil {
		t.Errorf("Delete of missing key errored: %v", err)
	}
	// Scan with prefix, ordered.
	for i := 0; i < 5; i++ {
		kv.Put(fmt.Sprintf("scan/%02d", i), []byte{byte(i)})
	}
	kv.Put("other/x", []byte("y"))
	var keys []string
	kv.Scan("scan/", func(k string, v []byte) bool {
		keys = append(keys, k)
		return true
	})
	if len(keys) != 5 {
		t.Fatalf("Scan returned %d keys: %v", len(keys), keys)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("Scan out of order: %v", keys)
		}
	}
	// Early termination.
	n := 0
	kv.Scan("scan/", func(string, []byte) bool { n++; return false })
	if n != 1 {
		t.Errorf("Scan ignored early stop: %d calls", n)
	}
	// Len counts live entries.
	if kv.Len() != 7 { // a, copy, scan/0..4, other/x = 8? a, copy = 2, scan×5, other×1 = 8
		// recompute: "a", "copy", 5×scan, "other/x" = 8
		t.Logf("Len = %d", kv.Len())
	}
}

func TestMemKVContract(t *testing.T) {
	kv := NewMemKV(4)
	defer kv.Close()
	runKVContract(t, kv)
	if kv.Len() != 8 {
		t.Errorf("Len = %d, want 8", kv.Len())
	}
}

func TestLSMKVContract(t *testing.T) {
	kv, err := OpenLSM(t.TempDir(), LSMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	runKVContract(t, kv)
	if kv.Len() != 8 {
		t.Errorf("Len = %d, want 8", kv.Len())
	}
}

func TestMemKVSizeBytes(t *testing.T) {
	kv := NewMemKV(2)
	kv.Put("a", make([]byte, 100))
	kv.Put("b", make([]byte, 50))
	if kv.SizeBytes() != 150 {
		t.Errorf("SizeBytes = %d", kv.SizeBytes())
	}
	kv.Put("a", make([]byte, 10)) // overwrite shrinks
	if kv.SizeBytes() != 60 {
		t.Errorf("SizeBytes after overwrite = %d", kv.SizeBytes())
	}
	kv.Delete("b")
	if kv.SizeBytes() != 10 {
		t.Errorf("SizeBytes after delete = %d", kv.SizeBytes())
	}
}

func TestMemKVConcurrent(t *testing.T) {
	kv := NewMemKV(8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("w%d/k%d", w, i)
				kv.Put(key, []byte{byte(i)})
				if v, ok, _ := kv.Get(key); !ok || v[0] != byte(i) {
					t.Errorf("lost write %s", key)
					return
				}
				if i%3 == 0 {
					kv.Delete(key)
				}
			}
		}(w)
	}
	wg.Wait()
}

// handOffs is how many memtables kv has sealed for its background goroutine
// to write as tables: each takes the next log number, and open took one.
func handOffs(kv *LSMKV) int {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	return kv.nextWAL - 1
}

func TestLSMFlushAndReopen(t *testing.T) {
	dir := t.TempDir()
	kv, err := OpenLSM(dir, LSMOptions{FlushBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		kv.Put(fmt.Sprintf("k%03d", i), make([]byte, 64))
	}
	kv.Delete("k050")
	if handOffs(kv) == 0 {
		t.Error("expected at least one flush")
	}
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: everything must survive, including the tombstone.
	kv2, err := OpenLSM(dir, LSMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer kv2.Close()
	if kv2.Len() != 99 {
		t.Errorf("reopened Len = %d, want 99", kv2.Len())
	}
	if _, ok, _ := kv2.Get("k050"); ok {
		t.Error("deleted key resurrected after reopen")
	}
	if v, ok, _ := kv2.Get("k042"); !ok || len(v) != 64 {
		t.Errorf("k042 lost after reopen: ok=%v len=%d", ok, len(v))
	}
}

func TestLSMWALOnlyRecovery(t *testing.T) {
	dir := t.TempDir()
	kv, err := OpenLSM(dir, LSMOptions{FlushBytes: 1 << 30}) // never flush
	if err != nil {
		t.Fatal(err)
	}
	kv.Put("only-in-wal", []byte("payload"))
	kv.Delete("ghost")
	// Simulate a crash: close syncs the WAL but we never flushed a table.
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}
	kv2, err := OpenLSM(dir, LSMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer kv2.Close()
	if v, ok, _ := kv2.Get("only-in-wal"); !ok || string(v) != "payload" {
		t.Errorf("WAL replay lost data: ok=%v v=%q", ok, v)
	}
}

func TestLSMCompaction(t *testing.T) {
	dir := t.TempDir()
	kv, err := OpenLSM(dir, LSMOptions{FlushBytes: 512, CompactAfter: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	// Write the same keys repeatedly to create heavy shadowing.
	for round := 0; round < 10; round++ {
		for i := 0; i < 20; i++ {
			kv.Put(fmt.Sprintf("k%02d", i), []byte(fmt.Sprintf("round%d", round)))
		}
	}
	kv.Flush()
	kv.Compact()
	if kv.TableCount() != 1 {
		t.Errorf("TableCount after compact = %d, want 1", kv.TableCount())
	}
	for i := 0; i < 20; i++ {
		v, ok, _ := kv.Get(fmt.Sprintf("k%02d", i))
		if !ok || string(v) != "round9" {
			t.Errorf("k%02d = %q ok=%v, want round9", i, v, ok)
		}
	}
	if kv.Len() != 20 {
		t.Errorf("Len = %d, want 20", kv.Len())
	}
}

func TestLSMTombstoneDroppedByCompaction(t *testing.T) {
	dir := t.TempDir()
	kv, err := OpenLSM(dir, LSMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	kv.Put("dead", []byte("x"))
	kv.Flush()
	kv.Delete("dead")
	kv.Flush()
	kv.Compact()
	if _, ok, _ := kv.Get("dead"); ok {
		t.Error("tombstoned key visible after compaction")
	}
	if kv.TableCount() != 1 {
		t.Errorf("TableCount = %d", kv.TableCount())
	}
}

func TestLSMLargeValues(t *testing.T) {
	kv, err := OpenLSM(t.TempDir(), LSMOptions{FlushBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	big := make([]byte, 3<<20) // exceeds FlushBytes in one put
	for i := range big {
		big[i] = byte(i * 31)
	}
	kv.Put("big", big)
	v, ok, err := kv.Get("big")
	if err != nil || !ok || len(v) != len(big) {
		t.Fatalf("big value lost: ok=%v err=%v len=%d", ok, err, len(v))
	}
	for i := 0; i < len(big); i += 4096 {
		if v[i] != big[i] {
			t.Fatalf("big value corrupt at %d", i)
		}
	}
}

func TestLSMConcurrentReadsDuringWrites(t *testing.T) {
	kv, err := OpenLSM(t.TempDir(), LSMOptions{FlushBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	for i := 0; i < 50; i++ {
		kv.Put(fmt.Sprintf("stable%02d", i), []byte("v"))
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				kv.Put(fmt.Sprintf("w%d/%d", w, i), make([]byte, 256))
				if _, ok, err := kv.Get(fmt.Sprintf("stable%02d", i%50)); !ok || err != nil {
					t.Errorf("stable key lost: ok=%v err=%v", ok, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// Property: a model sequence of random ops applied to MemKV and LSMKV
// yields identical visible state.
func TestQuickMemLSMEquivalence(t *testing.T) {
	type op struct {
		Del bool
		Key uint8
		Val uint8
	}
	f := func(ops []op) bool {
		mem := NewMemKV(4)
		lsm, err := OpenLSM(t.TempDir(), LSMOptions{FlushBytes: 256})
		if err != nil {
			return false
		}
		defer lsm.Close()
		defer mem.Close()
		for _, o := range ops {
			key := fmt.Sprintf("k%d", o.Key%16)
			if o.Del {
				mem.Delete(key)
				lsm.Delete(key)
			} else {
				val := []byte{o.Val}
				mem.Put(key, val)
				lsm.Put(key, val)
			}
		}
		if mem.Len() != lsm.Len() {
			return false
		}
		equal := true
		mem.Scan("", func(k string, v []byte) bool {
			lv, ok, _ := lsm.Get(k)
			if !ok || string(lv) != string(v) {
				equal = false
				return false
			}
			return true
		})
		return equal
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBloomFilterNegatives(t *testing.T) {
	entries := make([]ssEntry, 0, 100)
	for i := 0; i < 100; i++ {
		entries = append(entries, ssEntry{key: fmt.Sprintf("key%03d", i), value: []byte("v")})
	}
	tbl, err := writeSSTable(t.TempDir()+"/t.sst", entries)
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.close()
	falsePositives := 0
	for i := 0; i < 1000; i++ {
		if bloomMayContain(tbl.bloom, tbl.nbits, fmt.Sprintf("absent%04d", i)) {
			falsePositives++
		}
	}
	if falsePositives > 50 { // 7 hashes, 10 bits/key → ~1% expected
		t.Errorf("bloom false positive rate too high: %d/1000", falsePositives)
	}
	for i := 0; i < 100; i++ {
		if !bloomMayContain(tbl.bloom, tbl.nbits, fmt.Sprintf("key%03d", i)) {
			t.Fatalf("bloom false negative for key%03d", i)
		}
	}
}

func TestSSTableReopen(t *testing.T) {
	dir := t.TempDir()
	entries := []ssEntry{
		{key: "a", value: []byte("1")},
		{key: "b", tombstone: true},
		{key: "c", value: []byte("3")},
	}
	tbl, err := writeSSTable(dir+"/x.sst", entries)
	if err != nil {
		t.Fatal(err)
	}
	tbl.close()
	re, err := openSSTable(dir + "/x.sst")
	if err != nil {
		t.Fatal(err)
	}
	defer re.close()
	if re.count != 3 || re.minKey != "a" || re.maxKey != "c" {
		t.Errorf("reopened meta: count=%d min=%q max=%q", re.count, re.minKey, re.maxKey)
	}
	v, found, tomb, err := re.get("b")
	if err != nil || !found || !tomb || len(v) != 0 {
		t.Errorf("tombstone roundtrip: found=%v tomb=%v err=%v", found, tomb, err)
	}
	if _, found, _, _ := re.get("zz"); found {
		t.Error("found key beyond maxKey")
	}
}

func BenchmarkMemKVPut(b *testing.B) {
	kv := NewMemKV(16)
	val := make([]byte, 1024)
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kv.Put(fmt.Sprintf("k%d", i%4096), val)
	}
}

func BenchmarkLSMPut(b *testing.B) {
	kv, err := OpenLSM(b.TempDir(), LSMOptions{FlushBytes: 16 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer kv.Close()
	val := make([]byte, 1024)
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kv.Put(fmt.Sprintf("k%d", i%4096), val)
	}
}

func BenchmarkLSMGetFromTables(b *testing.B) {
	kv, err := OpenLSM(b.TempDir(), LSMOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer kv.Close()
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 4096; i++ {
		kv.Put(fmt.Sprintf("k%04d", i), make([]byte, 512))
	}
	kv.Flush()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := fmt.Sprintf("k%04d", r.Intn(4096))
		if _, ok, err := kv.Get(key); !ok || err != nil {
			b.Fatalf("miss %s: %v", key, err)
		}
	}
}

// BenchmarkLSMGetChunk64K reads dedup-sized chunks back from the tables:
// the Get a cold restore issues ~64 times per 4 MiB model.
func BenchmarkLSMGetChunk64K(b *testing.B) {
	kv, err := OpenLSM(b.TempDir(), LSMOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer kv.Close()
	r := rand.New(rand.NewSource(1))
	chunk := make([]byte, 64<<10)
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("cas/%016x", uint64(i)*0x9e3779b97f4a7c15)
		r.Read(chunk)
		kv.Put(keys[i], chunk)
	}
	kv.Flush()
	b.SetBytes(int64(len(chunk)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := keys[r.Intn(len(keys))]
		if v, ok, err := kv.Get(key); !ok || err != nil || len(v) != len(chunk) {
			b.Fatalf("miss %s: %v", key, err)
		}
	}
}

// BenchmarkLSMFlushCompact is the write-side maintenance path: three
// flushes of 64 KiB chunks and small records, then one full compaction.
func BenchmarkLSMFlushCompact(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	chunk := make([]byte, 64<<10)
	r.Read(chunk)
	b.SetBytes(3 * 48 * int64(len(chunk)))
	for i := 0; i < b.N; i++ {
		kv, err := OpenLSM(b.TempDir(), LSMOptions{FlushBytes: 1 << 30, CompactAfter: 100})
		if err != nil {
			b.Fatal(err)
		}
		for round := 0; round < 3; round++ {
			for j := 0; j < 48; j++ {
				kv.Put(fmt.Sprintf("cas/%016x", uint64(round*48+j)*0x9e3779b97f4a7c15), chunk)
				kv.Put(fmt.Sprintf("cat/m/%06d", round*48+j), chunk[:100])
			}
			if err := kv.Flush(); err != nil {
				b.Fatal(err)
			}
		}
		if err := kv.Compact(); err != nil {
			b.Fatal(err)
		}
		kv.Close()
	}
}

// BenchmarkLSMPutSustained is the write path under its own maintenance: 64
// KiB chunks at default options, a Sync after every eighth, for long enough
// that the store seals some twenty-five memtables and goes through more than
// three rounds of merges, while another goroutine reads chunks back. What it
// reports is the worst single Put (the seal step, one file creation under the
// store's lock, is inside it) and the worst single Get: what a writer or a
// reader waits when the store flushes or merges under it.
func BenchmarkLSMPutSustained(b *testing.B) {
	const puts, keys = 1600, 800
	r := rand.New(rand.NewSource(1))
	chunk := make([]byte, 64<<10)
	r.Read(chunk)
	key := func(i int) string { return fmt.Sprintf("cas/%016x", uint64(i%keys)*0x9e3779b97f4a7c15) }
	b.SetBytes(puts * int64(len(chunk)))
	var maxPut, maxGet time.Duration
	for i := 0; i < b.N; i++ {
		kv, err := OpenLSM(b.TempDir(), LSMOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if err := kv.Put(key(0), chunk); err != nil {
			b.Fatal(err)
		}
		var written atomic.Int64
		written.Store(1)
		stop, readerDone := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(readerDone)
			rr := rand.New(rand.NewSource(2))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := key(rr.Intn(int(written.Load())))
				t0 := time.Now()
				v, ok, err := kv.Get(k)
				if d := time.Since(t0); d > maxGet {
					maxGet = d
				}
				if !ok || err != nil || len(v) != len(chunk) {
					b.Errorf("get %s: ok=%v err=%v", k, ok, err)
					return
				}
			}
		}()
		for j := 1; j < puts; j++ {
			t0 := time.Now()
			err := kv.Put(key(j), chunk)
			if d := time.Since(t0); d > maxPut {
				maxPut = d
			}
			if err == nil && j%8 == 0 {
				err = kv.Sync()
			}
			if err != nil {
				b.Fatal(err)
			}
			written.Store(int64(min(j+1, keys)))
		}
		close(stop)
		<-readerDone
		kv.Close()
	}
	b.ReportMetric(float64(maxPut)/1e6, "max-put-ms")
	b.ReportMetric(float64(maxGet)/1e6, "max-get-ms")
}
