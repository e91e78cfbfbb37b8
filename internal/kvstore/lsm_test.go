package kvstore

import (
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

// TestOpensParentFormatDirectory: a directory as the format before the
// background hand-off left it — tables, the one wal.log and, after a crash
// mid-compaction, an empty `.sst.compact` marker meaning "supersedes every
// older table" — opens and reads the same. (The table and log record
// formats did not move, so the writers here produce that format's bytes.)
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
			log, err := createWAL(filepath.Join(dir, "wal.log"))
			if err != nil {
				t.Fatal(err)
			}
			log.append(walOpPut, "c", []byte("c-in-wal"))
			log.append(walOpDelete, "a", nil)
			if err := log.close(); err != nil {
				t.Fatal(err)
			}

			ref := map[string]string{"b": "b1", "c": "c-in-wal"}
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
