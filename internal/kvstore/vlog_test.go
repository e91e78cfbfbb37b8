package kvstore

import (
	"bytes"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestLSMGetInto reads each kind of entry into a caller's buffer: a
// memtable value, an inline table value (a sub-4 KiB last chunk) and a
// value-log pointer. A buffer of another length is an error, a missing or
// deleted key is not found, and a byte flipped in a *.vlog is a CRC error,
// never bytes.
func TestLSMGetInto(t *testing.T) {
	dir := t.TempDir()
	kv, err := OpenLSM(dir, LSMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string][]byte{
		"inline": patterned(1, vlogMin-100),
		"vptr":   patterned(2, 64<<10),
		"mem":    patterned(3, 64<<10),
	}
	for _, k := range []string{"inline", "vptr", "gone"} {
		if err := kv.Put(k, append([]byte(nil), vals[k]...)); err != nil {
			t.Fatal(err)
		}
	}
	if err := kv.Delete("gone"); err != nil {
		t.Fatal(err)
	}
	if err := kv.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := kv.Put("mem", vals["mem"]); err != nil {
		t.Fatal(err)
	}
	// Each key is the kind of entry it is named for.
	kv.mu.RLock()
	_, inMem := kv.mem.m["mem"]
	inl, _, err1 := kv.newestLocked("inline")
	ptr, _, err2 := kv.newestLocked("vptr")
	kv.mu.RUnlock()
	if !inMem || err1 != nil || inl.ptr || err2 != nil || !ptr.ptr {
		t.Fatalf("entry kinds: mem in memtable %v, inline ptr %v (%v), vptr ptr %v (%v)", inMem, inl.ptr, err1, ptr.ptr, err2)
	}

	check := func(kv *LSMKV) {
		t.Helper()
		for k, want := range vals {
			dst := make([]byte, len(want))
			if ok, err := kv.GetInto(k, dst); !ok || err != nil || !bytes.Equal(dst, want) {
				t.Errorf("GetInto(%s): ok %v err %v, equal %v", k, ok, err, bytes.Equal(dst, want))
			}
			for _, n := range []int{len(want) - 1, len(want) + 1} {
				if ok, err := kv.GetInto(k, make([]byte, n)); ok || err == nil {
					t.Errorf("GetInto(%s) into %d bytes of a %d-byte value: ok %v err %v", k, n, len(want), ok, err)
				}
			}
		}
		for _, k := range []string{"gone", "never"} {
			if ok, err := kv.GetInto(k, nil); ok || err != nil {
				t.Errorf("GetInto(%s): ok %v err %v, want not found", k, ok, err)
			}
		}
	}
	check(kv)
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}
	kv, err = OpenLSM(dir, LSMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	check(kv)
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one byte of the pointed-to value in its value log.
	logs, _ := filepath.Glob(filepath.Join(dir, "*.vlog"))
	flipped := false
	for _, path := range logs {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if i := bytes.Index(raw, vals["vptr"]); i >= 0 {
			raw[i+len(vals["vptr"])/2] ^= 0x40
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			flipped = true
		}
	}
	if !flipped {
		t.Fatalf("no value log among %v holds the pointed-to value", logs)
	}
	kv, err = OpenLSM(dir, LSMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	dst := make([]byte, len(vals["vptr"]))
	if ok, err := kv.GetInto("vptr", dst); ok || err == nil {
		t.Fatalf("GetInto served a value whose log byte was flipped: ok %v err %v", ok, err)
	}
	if v, ok, err := kv.Get("vptr"); ok || err == nil {
		t.Fatalf("Get served %d bytes of a value whose log byte was flipped", len(v))
	}
}

// FuzzValueLog feeds arbitrary bytes to the value-log reader as a log file,
// with an arbitrary pointer into it (fixCRC sets the pointer's CRC to that
// of the bytes it covers, so the serving path is reached too). read,
// readInto and largePuts must not panic, must serve only bytes that are
// the file's bytes at the pointer and match its CRC, and must not allocate
// by a length the file does not have.
func FuzzValueLog(f *testing.F) {
	dir := f.TempDir()
	l, err := createWAL(filepath.Join(dir, "seed.wal"))
	if err != nil {
		f.Fatal(err)
	}
	big := patterned(5, vlogMin+300)
	at, err := l.append(walOpPut, "cas/big", big)
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range []struct {
		op  byte
		key string
		val []byte
	}{{walOpPut, "cat/small", []byte("small")}, {walOpDelete, "cat/small", nil}, {walOpPut, "seg/2", patterned(6, vlogMin)}} {
		if _, err := l.append(r.op, r.key, r.val); err != nil {
			f.Fatal(err)
		}
	}
	if err := l.close(); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(filepath.Join(dir, "seed.wal"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed, uint64(at), uint32(len(big)), crc32.ChecksumIEEE(big), false)
	f.Add(seed, uint64(at), uint32(len(big)), uint32(0), true)
	f.Add(seed[:len(seed)/2], uint64(at), uint32(len(big)), crc32.ChecksumIEEE(big), false)
	f.Add([]byte{}, uint64(0), uint32(0), uint32(0), true)
	f.Add(seed, uint64(1)<<63, uint32(1)<<31, uint32(0), false)

	path := filepath.Join(f.TempDir(), "000001.vlog")
	f.Fuzz(func(t *testing.T, data []byte, off uint64, n, crc uint32, fixCRC bool) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		v, err := openValueLog(1, path)
		if err != nil {
			t.Fatal(err)
		}
		defer v.f.Close()
		size := uint64(len(data))
		inside := off <= size && uint64(n) <= size-off
		if fixCRC && inside {
			crc = crc32.ChecksumIEEE(data[off : off+uint64(n)])
		}
		p := vptr{log: 1, off: off, n: n, crc: crc}
		served := func(what string, got []byte) {
			t.Helper()
			if !inside || !bytes.Equal(got, data[off:off+uint64(n)]) || crc32.ChecksumIEEE(got) != crc {
				t.Fatalf("%s served %d bytes that are not the file's %d at %d with crc %08x", what, len(got), n, off, crc)
			}
		}

		if d := leastAlloc(func() {
			if got, err := v.read(p); err == nil {
				served("read", got)
			}
		}); d > 4<<10+size {
			t.Fatalf("read of a %d-byte pointer into a %d-byte file allocated %d bytes", n, size, d)
		}

		dst := make([]byte, min(uint64(n), size+1))
		if err := v.readInto(p, dst); err == nil {
			served("readInto", dst)
		}

		if d := leastAlloc(func() {
			err := v.largePuts(func(key string, at int64) error {
				if at < walHeader+int64(len(key)) || at > int64(size) || string(data[at-int64(len(key)):at]) != key {
					t.Fatalf("largePuts reported key %q at %d, not the file's bytes there", key, at)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("largePuts over a readable file: %v", err)
			}
		}); d > 16<<10+2*size {
			t.Fatalf("largePuts over a %d-byte file allocated %d bytes", size, d)
		}
	})
}

// leastAlloc returns the fewest bytes the process allocated over three
// calls of fn. TotalAlloc is process-wide, so one call's reading can
// include what the fuzzing engine's goroutines allocate meanwhile; what fn
// itself allocates shows in every call.
func leastAlloc(fn func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}
