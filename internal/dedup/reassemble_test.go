package dedup

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/kvstore"
)

// plainKV hides every optional interface of the store it wraps, so a
// wrapper over it reassembles through Get and a copy.
type plainKV struct{ kvstore.KV }

// TestReassembleWithoutGetInto reads the same stored values through a
// wrapper whose inner LSMKV fills chunks in place (GetInto) and one that
// sees only Get: both return identical bytes, for chunks in the memtable,
// inline in a table (a sub-4 KiB last chunk) and behind value-log
// pointers. GetAlloc overwrites every byte of the buffer it is given and
// asks for exactly one, of the logical length, per reassembled value. A
// chunk whose length differs from its recipe, or that is missing, is an
// error on both paths.
func TestReassembleWithoutGetInto(t *testing.T) {
	lsm, err := kvstore.OpenLSM(t.TempDir(), kvstore.LSMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer lsm.Close()
	direct, fallback := Wrap(lsm, Options{}), Wrap(plainKV{lsm}, Options{})
	if direct.into == nil || fallback.into != nil {
		t.Fatal("wrappers do not take the paths under test")
	}
	rng := rand.New(rand.NewSource(7))
	value := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	vals := map[string][]byte{
		"seg/tail":  value(5*DefaultChunkSize + 1000),
		"seg/exact": value(3 * DefaultChunkSize),
		"seg/small": value(1000),
	}
	for _, k := range []string{"seg/tail", "seg/exact", "seg/small"} {
		mustPut(t, direct, k, vals[k])
	}
	if err := lsm.Flush(); err != nil {
		t.Fatal(err)
	}
	vals["seg/mem"] = value(2*DefaultChunkSize + 10)
	mustPut(t, direct, "seg/mem", vals["seg/mem"])

	for k, want := range vals {
		for name, d := range map[string]*KV{"GetInto": direct, "Get": fallback} {
			if got := mustGet(t, d, k); !bytes.Equal(got, want) {
				t.Errorf("%s: Get(%s) differs from what was stored", name, k)
			}
			allocs := 0
			got, ok, err := d.GetAlloc([]byte(k), func(n int) []byte {
				allocs++
				if n != len(want) {
					t.Errorf("%s: alloc(%d) for a %d-byte value", name, n, len(want))
				}
				return bytes.Repeat([]byte{0xa5}, n)
			})
			if err != nil || !ok || !bytes.Equal(got, want) {
				t.Errorf("%s: GetAlloc(%s): ok %v err %v equal %v", name, k, ok, err, bytes.Equal(got, want))
			}
			wantAllocs := 0 // a pass-through value is the store's own buffer
			if len(want) >= DefaultChunkSize {
				wantAllocs = 1
			}
			if allocs != wantAllocs {
				t.Errorf("%s: GetAlloc(%s) called alloc %d times, want %d", name, k, allocs, wantAllocs)
			}
		}
	}

	// Damage one chunk of seg/tail at a time behind the wrappers' backs.
	tail := vals["seg/tail"]
	ids := chunkIDs(tail, DefaultChunkSize)
	for _, c := range []struct {
		what   string
		chunk  int
		damage func(key string) error
	}{
		{"a full chunk one byte short", 1, func(key string) error { return lsm.Put(key, value(DefaultChunkSize-1)) }},
		{"the last chunk one byte long", 5, func(key string) error { return lsm.Put(key, value(1001)) }},
		{"a missing chunk", 2, lsm.Delete},
	} {
		key := chunkKey(ids[c.chunk])
		if err := c.damage(key); err != nil {
			t.Fatal(err)
		}
		for name, d := range map[string]*KV{"GetInto": direct, "Get": fallback} {
			if v, ok, err := d.Get("seg/tail"); ok || err == nil {
				t.Errorf("%s: %s: served %d bytes", name, c.what, len(v))
			}
		}
		off := c.chunk * DefaultChunkSize
		if err := lsm.Put(key, tail[off:min(off+DefaultChunkSize, len(tail))]); err != nil {
			t.Fatal(err)
		}
		if got := mustGet(t, direct, "seg/tail"); !bytes.Equal(got, tail) {
			t.Fatalf("seg/tail not restored after %s", c.what)
		}
	}
}

// BenchmarkKVGetSegment reads a 4 MiB segment stored as 64 chunks in an
// LSMKV's tables and value logs, the read a cold restore makes per
// segment: Get into a fresh buffer, and GetAlloc into a reused one as the
// provider's read_segments does with rpc's pool.
func BenchmarkKVGetSegment(b *testing.B) {
	const size = 4 << 20
	lsm, err := kvstore.OpenLSM(b.TempDir(), kvstore.LSMOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer lsm.Close()
	d := Wrap(lsm, Options{})
	v := make([]byte, size)
	rand.New(rand.NewSource(1)).Read(v)
	if err := d.Put("seg/v", v); err != nil {
		b.Fatal(err)
	}
	if err := lsm.Flush(); err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, size)
	for _, bc := range []struct {
		name  string
		alloc func(int) []byte
	}{{"Get", nil}, {"GetAlloc", func(n int) []byte { return buf[:n] }}} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(size)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				got, ok, err := d.GetAlloc([]byte("seg/v"), bc.alloc)
				if err != nil || !ok || len(got) != size {
					b.Fatalf("GetAlloc: ok %v err %v, %d bytes", ok, err, len(got))
				}
			}
		})
	}
}
