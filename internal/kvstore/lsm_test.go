package kvstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestLSMConcurrentMaintenance runs writers, which also call Flush, Compact
// and Sync between rounds, and readers against a store small enough to hand
// off and merge all the time. Each writer owns a key range, so what a key must read
// as is known without a global order: a versioned key only ever moves to a
// higher version, and a key its writer has deleted for good stays deleted.
// A reader that finds a key older than its writer had already published, or
// older than the reader itself saw before, or finds a deleted key again, has
// caught a version reappearing on the way active → sealed → table → merged
// table.
func TestLSMConcurrentMaintenance(t *testing.T) {
	const writers, keysPer, rounds = 4, 24, 24
	goroutines := runtime.NumGoroutine()
	dir := t.TempDir()
	kv, err := OpenLSM(dir, LSMOptions{FlushBytes: 4 << 10, CompactAfter: 3})
	if err != nil {
		t.Fatal(err)
	}
	key := func(w, k int) string { return fmt.Sprintf("w%d/k%02d", w, k) }
	doomed := func(w, k int) string { return fmt.Sprintf("w%d/doomed%02d", w, k) }
	val := func(version int) []byte { return []byte(fmt.Sprintf("%d/%0120d", version, version)) }
	version := func(v []byte) int {
		n, err := strconv.Atoi(string(v[:strings.IndexByte(string(v), '/')]))
		if err != nil {
			t.Errorf("unparsable value %q", v)
		}
		return n
	}
	// published[w][k] is the version of key(w, k) whose Put has returned;
	// deleted[w][k] is set once doomed(w, k)'s Delete has returned.
	var published [writers][keysPer]atomic.Int64
	var deleted [writers][keysPer]atomic.Bool

	var wg, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < keysPer; k++ {
				if err := kv.Put(doomed(w, k), val(0)); err != nil {
					t.Error(err)
					return
				}
			}
			for round := 1; round <= rounds; round++ {
				for k := 0; k < keysPer; k++ {
					if err := kv.Put(key(w, k), val(round)); err != nil {
						t.Error(err)
						return
					}
					published[w][k].Store(int64(round))
				}
				if k := round - 1; k < keysPer {
					if err := kv.Delete(doomed(w, k)); err != nil {
						t.Error(err)
						return
					}
					deleted[w][k].Store(true)
				}
				var err error
				switch (round + w) % 4 {
				case 0:
					err = kv.Flush()
				case 1:
					err = kv.Compact()
				case 2:
					err = kv.Sync()
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			var seen [writers][keysPer]int
			check := func(w, k, floor int, v []byte) {
				got := version(v)
				if got < floor || got < seen[w][k] {
					t.Errorf("%s reads version %d after %d was published and %d seen", key(w, k), got, floor, seen[w][k])
				}
				seen[w][k] = got
			}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				w, k := rng.Intn(writers), rng.Intn(keysPer)
				floor := int(published[w][k].Load())
				if v, ok, err := kv.Get(key(w, k)); err != nil {
					t.Error(err)
				} else if ok {
					check(w, k, floor, v)
				} else if floor > 0 || seen[w][k] > 0 {
					t.Errorf("%s vanished after version %d was published", key(w, k), floor)
				}
				wasDeleted := deleted[w][k].Load()
				if _, ok, err := kv.Get(doomed(w, k)); err != nil {
					t.Error(err)
				} else if ok && wasDeleted {
					t.Errorf("%s is back after its delete", doomed(w, k))
				}
				if i%16 != 0 {
					continue
				}
				var floors [keysPer]int
				for k := range floors {
					floors[k] = int(published[w][k].Load())
				}
				found, last := 0, ""
				err := kv.Scan(fmt.Sprintf("w%d/k", w), func(name string, v []byte) bool {
					if name <= last {
						t.Errorf("scan out of order: %s after %s", name, last)
					}
					last = name
					k, _ := strconv.Atoi(name[len(name)-2:])
					check(w, k, floors[k], v)
					found++
					return true
				})
				if err != nil {
					t.Error(err)
				}
				want := 0
				for _, floor := range floors {
					if floor > 0 {
						want++
					}
				}
				if found < want {
					t.Errorf("scan of writer %d yields %d keys, %d were published before it", w, found, want)
				}
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}
	// Each memtable takes a log number and each table and merge a table
	// number: the run must have been through dozens of hand-offs and merges.
	flushes := kv.nextWAL - 1
	if merges := kv.nextID - flushes; flushes < 24 || merges < 12 {
		t.Errorf("only %d hand-offs and %d merges: the test no longer exercises them", flushes, merges)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before the store was opened, %d after Close", goroutines, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}

	ref := make(map[string]string)
	var gone []string
	for w := 0; w < writers; w++ {
		for k := 0; k < keysPer; k++ {
			ref[key(w, k)] = string(val(rounds))
			gone = append(gone, doomed(w, k))
		}
	}
	kv2, err := OpenLSM(dir, LSMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer kv2.Close()
	assertState(t, kv2, ref, gone...)
}

// TestOpensParentFormatDirectory: a directory as the formats before value
// logs left it — inline tables, the one wal.log of the layout before the
// background hand-off, numbered NNNNNN.wal logs and, after a crash
// mid-compaction, an empty `.sst.compact` marker meaning "supersedes every
// older table" — opens and reads the same. At the next flush the large
// values of the numbered logs become vptrs into them, and the logs value
// logs. (Inline and tombstone entries and log records did not move, so the
// writers here produce those formats' bytes.)
func TestOpensParentFormatDirectory(t *testing.T) {
	for _, marker := range []bool{false, true} {
		t.Run(fmt.Sprintf("marker=%v", marker), func(t *testing.T) {
			dir := t.TempDir()
			write := func(id int, entries ...ssEntry) {
				tbl, err := writeSSTable(filepath.Join(dir, fmt.Sprintf("%06d.sst", id)), entries)
				if err != nil {
					t.Fatal(err)
				}
				tbl.close()
			}
			write(0, ssEntry{key: "a", value: []byte("a0")}, ssEntry{key: "b", value: []byte("b0")}, ssEntry{key: "dead", value: []byte("x")})
			write(1, ssEntry{key: "b", value: []byte("b1")}, ssEntry{key: "dead", tombstone: true})
			if marker {
				// Table 2 is the compaction of 0 and 1 (tombstone dropped); the
				// crash came after table 1 was unlinked and before table 0 was.
				write(2, ssEntry{key: "a", value: []byte("a0")}, ssEntry{key: "b", value: []byte("b1")})
				os.Remove(filepath.Join(dir, "000001.sst"))
				if err := os.WriteFile(filepath.Join(dir, "000002.sst.compact"), nil, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			big := func(seed, n int) string { return string(patterned(seed, n)) }
			ref := map[string]string{"b": "b1", "c": "c-in-wal", "legacy-big": big(1, vlogMin),
				"big/a": big(2, vlogMin), "big/b": big(3, 64<<10), "small": "s"}
			writeLog := func(name string, recs ...string) {
				log, err := createWAL(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range recs {
					if v, ok := ref[k]; ok {
						log.append(walOpPut, k, []byte(v))
					} else {
						log.append(walOpDelete, k, nil)
					}
				}
				if err := log.close(); err != nil {
					t.Fatal(err)
				}
			}
			writeLog("wal.log", "c", "a", "legacy-big")
			writeLog("000004.wal", "big/a", "small")
			writeLog("000005.wal", "big/b")
			kv, err := OpenLSM(dir, LSMOptions{})
			if err != nil {
				t.Fatal(err)
			}
			assertState(t, kv, ref, "a", "dead")
			if marker && (kv.TableCount() != 1 || globCount(dir, "*.compact") != 0) {
				t.Errorf("%d tables and %d markers after recovery, want 1 and 0", kv.TableCount(), globCount(dir, "*.compact"))
			}
			// The old log goes once its records are in a table, and the
			// directory carries on in today's layout.
			if err := kv.Put("d", []byte("new")); err != nil {
				t.Fatal(err)
			}
			ref["d"] = "new"
			if err := kv.Flush(); err != nil {
				t.Fatal(err)
			}
			if _, err := os.Stat(filepath.Join(dir, "wal.log")); !os.IsNotExist(err) {
				t.Errorf("wal.log after a flush: %v, want it removed", err)
			}
			newest := kv.tables[len(kv.tables)-1]
			for k, wantPtr := range map[string]bool{"big/a": true, "big/b": true, "legacy-big": false, "small": false} {
				if e, found, err := newest.get(k); err != nil || !found || e.ptr != wantPtr {
					t.Errorf("flushed %s: found=%v ptr=%v err=%v, want ptr=%v", k, found, e.ptr, err, wantPtr)
				}
			}
			if logs, vlogs := globCount(dir, "*.wal"), globCount(dir, "*.vlog"); logs != 1 || vlogs != 2 {
				t.Errorf("after the flush: %d logs and %d value logs, want 1 (taking writes) and 2", logs, vlogs)
			}
			assertState(t, kv, ref, "a", "dead")
			if err := kv.Close(); err != nil {
				t.Fatal(err)
			}
			kv2, err := OpenLSM(dir, LSMOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer kv2.Close()
			assertState(t, kv2, ref, "a", "dead")
		})
	}
}

// TestLSMValueLogGC drives value-log GC with random puts, overwrites and
// deletes of 100 B–70 KiB values over a small FlushBytes, through Flush,
// Compact and reopen cycles, while readers check every value they get. A
// value carries its own length and seed, so a read that lands at the wrong
// offset or length is caught even while writes race it. Between cycles
// every read must match the reference map, SizeBytes must equal its payload
// bytes exactly (so that space_amp cannot drift), and once GC has settled,
// the value logs may hold at most twice the live bytes plus its slack.
func TestLSMValueLogGC(t *testing.T) {
	const keys, cycles, opsPer, flushBytes = 48, 4, 200, 256 << 10
	goroutines := runtime.NumGoroutine()
	var collected atomic.Int64
	crashMidValueGC = func() error { collected.Add(1); return nil }
	defer func() { crashMidValueGC = nil }()
	value := func(seed, n int) []byte {
		v := patterned(seed, n)
		binary.LittleEndian.PutUint32(v, uint32(seed))
		binary.LittleEndian.PutUint32(v[4:], uint32(n))
		return v
	}
	wellFormed := func(v []byte) bool {
		return len(v) >= 8 && int(binary.LittleEndian.Uint32(v[4:])) == len(v) &&
			bytes.Equal(v, value(int(binary.LittleEndian.Uint32(v)), len(v)))
	}
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(1))
	ref := make(map[string][]byte)
	payload := func() (n int64) {
		for _, v := range ref {
			n += int64(len(v))
		}
		return n
	}
	opts := LSMOptions{FlushBytes: flushBytes, CompactAfter: 4}
	for cycle, seed := 0, 0; cycle < cycles; cycle++ {
		kv, err := OpenLSM(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		var readers sync.WaitGroup
		for r := 0; r < 2; r++ {
			readers.Add(1)
			go func(r int) {
				defer readers.Done()
				rr := rand.New(rand.NewSource(int64(cycle*10 + r)))
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					if v, ok, err := kv.Get(fmt.Sprintf("k%02d", rr.Intn(keys))); err != nil || (ok && !wellFormed(v)) {
						t.Errorf("read %d bytes, well-formed %v, err %v", len(v), wellFormed(v), err)
						return
					}
					if i%64 == 0 {
						err := kv.Scan("k", func(_ string, v []byte) bool {
							if !wellFormed(v) {
								t.Errorf("scan read %d bytes that are not what was written", len(v))
								return false
							}
							return true
						})
						if err != nil {
							t.Error(err)
							return
						}
					}
				}
			}(r)
		}
		for i := 0; i < opsPer; i++ {
			key := fmt.Sprintf("k%02d", rng.Intn(keys))
			switch op := rng.Intn(10); {
			case op == 0:
				if err := kv.Delete(key); err != nil {
					t.Fatal(err)
				}
				delete(ref, key)
			default:
				n := 100 + rng.Intn(70<<10-100)
				if op < 4 {
					n = 8 + rng.Intn(vlogMin)
				}
				seed++
				v := value(seed, n)
				if err := kv.Put(key, v); err != nil {
					t.Fatal(err)
				}
				ref[key] = v
			}
			if i%100 == 99 {
				if err := [...]func() error{kv.Flush, kv.Compact, kv.Sync}[cycle%3](); err != nil {
					t.Fatal(err)
				}
			}
		}
		close(stop)
		readers.Wait()
		want := make(map[string]string, len(ref))
		for k, v := range ref {
			want[k] = string(v)
		}
		assertState(t, kv, want)
		if got := kv.SizeBytes(); got != payload() {
			t.Errorf("cycle %d: SizeBytes = %d, the reference map holds %d", cycle, got, payload())
		}
		if got := kv.Len(); got != len(ref) {
			t.Errorf("cycle %d: Len = %d, want %d", cycle, got, len(ref))
		}
		// Settle: flush, merge everything, and let GC run until a round
		// starts none.
		for round, before := 0, int64(-1); before != collected.Load(); round++ {
			if round == 10 {
				t.Fatalf("cycle %d: value-log GC still running after %d rounds of Flush and Compact", cycle, round)
			}
			before = collected.Load()
			if err := kv.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := kv.Compact(); err != nil {
				t.Fatal(err)
			}
			await(kv, func() bool { return kv.sealed == nil && kv.collectableLocked() == nil })
		}
		var logBytes int64
		names, _ := filepath.Glob(filepath.Join(dir, "*.vlog"))
		for _, name := range names {
			st, err := os.Stat(name)
			if err != nil {
				t.Fatal(err)
			}
			logBytes += st.Size()
		}
		if bound := 2*payload() + gcSlackMemtables*flushBytes; logBytes > bound {
			t.Errorf("cycle %d: settled value logs hold %d bytes, want ≤ %d (2 × %d live + slack)", cycle, logBytes, bound, payload())
		}
		assertState(t, kv, want)
		if err := kv.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if collected.Load() < 5 {
		t.Errorf("%d value logs collected: the test no longer exercises GC", collected.Load())
	}
	t.Logf("%d value logs collected", collected.Load())
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before the store was opened, %d after Close", goroutines, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}
