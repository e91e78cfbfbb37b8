package kvstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// A byte flipped inside the first of five synced records, with valid
// records after it, ends replay there like a torn tail, and the store opens
// but lists the log in WALDamage instead of dropping the four records
// silently.
func TestWALDamageBeforeValidRecordReported(t *testing.T) {
	dir := t.TempDir()
	kv, err := OpenLSM(dir, LSMOptions{FlushBytes: 1 << 30}) // WAL-only
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := kv.Put(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("value-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := kv.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := onlyWAL(t, dir)
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(raw, []byte("value-0"))
	if at < 0 {
		t.Fatal("first record's value not in the log")
	}
	raw[at] ^= 0x20
	if err := os.WriteFile(walPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	kv2, err := OpenLSM(dir, LSMOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer kv2.Close()
	if d := kv2.WALDamage(); len(d) != 1 || !strings.Contains(d[0], "offset 0 ") {
		t.Errorf("WALDamage = %q, want the log, damaged at offset 0", d)
	}
	for i := 0; i < 5; i++ {
		if _, ok, _ := kv2.Get(fmt.Sprintf("k%d", i)); ok {
			t.Errorf("k%d replayed from behind the damaged record", i)
		}
	}
}

// A crash can persist a later page of the log and lose an earlier one: the
// buffered writer hands one sync's records to the kernel in several writes,
// and dirty pages reach the disk in any order. Here the middle page of an
// unsynced 12 KiB value reads as zeros while the small record after it
// survived. The store must open with what preceded the torn record (this
// looks like damage to synced data, and is listed in WALDamage), accept
// writes, and reopen again.
func TestWALTornMiddlePageBehindUnsyncedRecord(t *testing.T) {
	const page = 4096
	dir := t.TempDir()
	kv, err := OpenLSM(dir, LSMOptions{FlushBytes: 1 << 30}) // WAL-only
	if err != nil {
		t.Fatal(err)
	}
	if err := kv.Put("synced", []byte("before")); err != nil {
		t.Fatal(err)
	}
	if err := kv.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := kv.Put("big", bytes.Repeat([]byte{0xab}, 3*page)); err != nil {
		t.Fatal(err)
	}
	if err := kv.Put("after", []byte("small")); err != nil {
		t.Fatal(err)
	}
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := onlyWAL(t, dir)
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) < 3*page {
		t.Fatalf("log is %d bytes, want the big value to span pages", len(raw))
	}
	clear(raw[page : 2*page])
	if err := os.WriteFile(walPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	kv2, err := OpenLSM(dir, LSMOptions{FlushBytes: 1 << 30})
	if err != nil {
		t.Fatalf("reopen after a torn middle page: %v", err)
	}
	if v, ok, err := kv2.Get("synced"); err != nil || !ok || string(v) != "before" {
		t.Errorf("synced record: %q ok=%v err=%v", v, ok, err)
	}
	for _, k := range []string{"big", "after"} {
		if _, ok, _ := kv2.Get(k); ok {
			t.Errorf("%s replayed across the torn page", k)
		}
	}
	if d := kv2.WALDamage(); len(d) != 1 {
		t.Errorf("WALDamage = %q, want the torn log", d)
	}
	if err := kv2.Put("later", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := kv2.Close(); err != nil {
		t.Fatal(err)
	}
	kv3, err := OpenLSM(dir, LSMOptions{})
	if err != nil {
		t.Fatalf("second reopen: %v", err)
	}
	defer kv3.Close()
	for k, want := range map[string]string{"synced": "before", "later": "x"} {
		if v, ok, err := kv3.Get(k); err != nil || !ok || string(v) != want {
			t.Errorf("%s after the second reopen: %q ok=%v err=%v", k, v, ok, err)
		}
	}
}

// A header announcing more bytes than the file holds is a torn tail, and
// replay allocates nothing for it.
func TestWALReplayHugeHeaderAllocatesNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "000001.wal")
	rec := make([]byte, walHeader+8)
	rec[0] = walOpPut
	binary.LittleEndian.PutUint32(rec[1:], 128<<20)
	binary.LittleEndian.PutUint32(rec[5:], 128<<20)
	if err := os.WriteFile(path, rec, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	damaged, err := replayWAL(path, func(byte, string, []byte, int64) { t.Error("replayed a record") })
	runtime.ReadMemStats(&after)
	if err != nil || damaged >= 0 {
		t.Fatal(damaged, err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d > 64<<10 {
		t.Errorf("replaying a %d-byte log allocated %d bytes", len(rec), d)
	}
}

type walRec struct {
	op         byte
	key, value string
}

// FuzzWALReplay writes the records spec describes (each: an op byte, a key
// length and a value length, then the key and value bytes), cuts cut bytes
// off the end of the log and XORs flip into its byte at flipAt; with raw the
// log is spec itself. Replay must not panic, must allocate no more than a
// small multiple of the file size, and must replay a prefix of the records
// appended. An unflipped log replays, without error, every record the cut
// left whole; a flipped key, value or checksum byte with a whole record
// after it ends replay at its record, which is reported as damaged.
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte("\x01\x02\x03k1abc\x02\x02\x00k2\x01\x01\x05kvalue"), uint16(0), uint16(0), byte(0), false)
	f.Add([]byte("\x01\x02\x03k1abc\x02\x02\x00k2\x01\x01\x05kvalue"), uint16(3), uint16(0), byte(0), false)
	f.Add([]byte("\x01\x02\x03k1abc\x02\x02\x00k2\x01\x01\x05kvalue"), uint16(0), uint16(12), byte(0x40), false)
	f.Add([]byte("\x01\x02\x03k1abc\x02\x02\x00k2\x01\x01\x05kvalue"), uint16(0), uint16(2), byte(0x80), false)
	f.Add([]byte("\x01\x00\x00\x00\x08\x00\x00\x00\x08\x00\x00\x00\x00\x00\x00\x00"), uint16(0), uint16(0), byte(0), true)
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, spec []byte, cut, flipAt uint16, flip byte, raw bool) {
		path := filepath.Join(dir, "000001.wal")
		os.Remove(path)
		var recs []walRec
		var ends []int // where each record ends in the log
		var log []byte
		if raw {
			log = spec
		} else {
			l, err := createWAL(path)
			if err != nil {
				t.Fatal(err)
			}
			for len(spec) >= 3 {
				r := walRec{op: walOpPut}
				if spec[0]&1 == 0 {
					r.op = walOpDelete
				}
				kl, vl := int(spec[1]%16), int(spec[2])
				spec = spec[3:]
				kl, vl = min(kl, len(spec)), min(vl, len(spec)-min(kl, len(spec)))
				r.key, r.value = string(spec[:kl]), string(spec[kl:kl+vl])
				spec = spec[kl+vl:]
				at, err := l.append(r.op, r.key, []byte(r.value))
				if err != nil {
					t.Fatal(err)
				}
				recs = append(recs, r)
				ends = append(ends, int(at)+vl+4)
			}
			if err := l.close(); err != nil {
				t.Fatal(err)
			}
			if log, err = os.ReadFile(path); err != nil {
				t.Fatal(err)
			}
		}
		log = log[:len(log)-int(cut)%(len(log)+1)]
		flipped := -1
		if flip != 0 && len(log) > 0 {
			flipped = int(flipAt) % len(log)
			log[flipped] ^= flip
		}
		if err := os.WriteFile(path, log, 0o644); err != nil {
			t.Fatal(err)
		}

		var got []walRec
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		damaged, err := replayWAL(path, func(op byte, key string, value []byte, at int64) {
			got = append(got, walRec{op, key, string(value)})
		})
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; d > 64<<10+8*uint64(len(log)) {
			t.Fatalf("replaying a %d-byte log allocated %d bytes", len(log), d)
		}
		if raw {
			return
		}
		if len(got) > len(recs) {
			t.Fatalf("replayed %d records of %d appended", len(got), len(recs))
		}
		for i, r := range got {
			if r != recs[i] {
				t.Fatalf("replayed record %d is %+v, appended %+v", i, r, recs[i])
			}
		}
		whole := 0
		for whole < len(ends) && ends[whole] <= len(log) {
			whole++
		}
		if flipped < 0 {
			if err != nil || damaged >= 0 || len(got) != whole {
				t.Fatalf("an unflipped log cut to %d bytes replayed %d of its %d whole records, damaged %d, err %v", len(log), len(got), whole, damaged, err)
			}
			return
		}
		// The record holding the flipped byte, and whether the byte is in its
		// key, value or checksum rather than its header.
		rec, start := 0, 0
		for rec < len(ends) && ends[rec] <= flipped {
			start = ends[rec]
			rec++
		}
		if rec+1 < whole && flipped >= start+walHeader && (err != nil || damaged != int64(start) || len(got) != rec) {
			t.Fatalf("flipped byte %d in the body of record %d (offset %d) of %d whole records: replayed %d, damaged %d, err %v", flipped, rec, start, whole, len(got), damaged, err)
		}
	})
}
