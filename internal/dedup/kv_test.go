package dedup

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/kvstore"
)

func wrapped(t testing.TB, o Options) (*KV, kvstore.KV) {
	t.Helper()
	inner := kvstore.NewMemKV(4)
	d := Wrap(inner, o)
	t.Cleanup(func() { d.Close() })
	return d, inner
}

func mustPut(t *testing.T, d *KV, key string, v []byte) {
	t.Helper()
	if err := d.Put(key, v); err != nil {
		t.Fatalf("put %q: %v", key, err)
	}
}

func mustGet(t *testing.T, d *KV, key string) []byte {
	t.Helper()
	v, ok, err := d.Get(key)
	if err != nil || !ok {
		t.Fatalf("get %q: ok=%v err=%v", key, ok, err)
	}
	return v
}

// chunkGetCounter counts the inner store's Gets of chunk keys.
type chunkGetCounter struct {
	kvstore.KV
	chunkGets atomic.Int64
}

func (c *chunkGetCounter) Get(key string) ([]byte, bool, error) {
	if strings.HasPrefix(key, casPrefix) {
		c.chunkGets.Add(1)
	}
	return c.KV.Get(key)
}

func TestKVChunkSharing(t *testing.T) {
	inner := &chunkGetCounter{KV: kvstore.NewMemKV(4)}
	d := Wrap(inner, Options{ChunkSize: 8})
	v := []byte("abcdefghABCDEFGH01234567") // 3 chunks
	mustPut(t, d, "seg/1", v)
	mustPut(t, d, "seg/2", v)
	// The second Put's chunks are all live: it takes references by ID
	// and never reads a stored chunk.
	if n := inner.chunkGets.Load(); n != 0 {
		t.Fatalf("a fully shared Put read %d chunks, want 0", n)
	}
	if got := mustGet(t, d, "seg/2"); !bytes.Equal(got, v) {
		t.Fatalf("read back %q", got)
	}
	st := d.Stats()
	if st.Chunks != 3 {
		t.Fatalf("chunks = %d, want 3 shared", st.Chunks)
	}
	if st.DedupHits != 3 {
		t.Fatalf("dedup hits = %d, want 3 (second value fully shared)", st.DedupHits)
	}
	// Logical view: 2 entries; physically: 2 recipes + 3 chunks.
	if d.Len() != 2 || inner.Len() != 5 {
		t.Fatalf("Len = %d (inner %d), want 2 (5)", d.Len(), inner.Len())
	}
	// Overlapping value shares its common prefix chunks only.
	v3 := append(append([]byte(nil), v[:16]...), []byte("xxxxxxxx")...)
	mustPut(t, d, "seg/3", v3)
	if st := d.Stats(); st.Chunks != 4 || st.DedupHits != 5 {
		t.Fatalf("after overlap: %+v, want 4 chunks / 5 hits", st)
	}
	if got := mustGet(t, d, "seg/3"); !bytes.Equal(got, v3) {
		t.Fatalf("read back %q", got)
	}
}

func TestKVDeleteKeepsSharedChunks(t *testing.T) {
	d, _ := wrapped(t, Options{ChunkSize: 8})
	v := []byte("abcdefghABCDEFGH")
	mustPut(t, d, "seg/1", v)
	mustPut(t, d, "seg/2", v)
	if err := d.Delete("seg/1"); err != nil {
		t.Fatal(err)
	}
	// The survivor still resolves: its chunks were shared, not owned.
	if got := mustGet(t, d, "seg/2"); !bytes.Equal(got, v) {
		t.Fatalf("read back %q after sibling delete", got)
	}
	if st := d.Stats(); st.Chunks != 2 {
		t.Fatalf("chunks = %d after one delete, want 2", st.Chunks)
	}
	if err := d.Delete("seg/2"); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.Chunks != 0 {
		t.Fatalf("chunks = %d after both deletes, want 0", st.Chunks)
	}
	if d.Len() != 0 || d.SizeBytes() != 0 {
		t.Fatalf("store not empty: len=%d size=%d", d.Len(), d.SizeBytes())
	}
}

func TestKVOverwriteReleasesOldChunks(t *testing.T) {
	d, _ := wrapped(t, Options{ChunkSize: 8})
	mustPut(t, d, "seg/1", []byte("abcdefghABCDEFGH"))
	mustPut(t, d, "seg/1", []byte("zzzzzzzzyyyyyyyy"))
	if st := d.Stats(); st.Chunks != 2 {
		t.Fatalf("chunks = %d after overwrite, want only the new 2", st.Chunks)
	}
	if got := mustGet(t, d, "seg/1"); !bytes.Equal(got, []byte("zzzzzzzzyyyyyyyy")) {
		t.Fatalf("read back %q", got)
	}
}

func TestKVSmallValuePassThrough(t *testing.T) {
	d, inner := wrapped(t, Options{ChunkSize: 64})
	small := []byte("short")
	mustPut(t, d, "seg/1", small)
	// Stored verbatim in the inner store: no recipe, no chunks.
	raw, ok, err := inner.Get("seg/1")
	if err != nil || !ok || !bytes.Equal(raw, small) {
		t.Fatalf("inner holds %q, %v", raw, err)
	}
	if st := d.Stats(); st.Chunks != 0 {
		t.Fatalf("chunks = %d for sub-chunk value", st.Chunks)
	}
}

func TestKVRejectsReservedKeys(t *testing.T) {
	d, _ := wrapped(t, Options{})
	if err := d.Put("cas/0123", []byte("x")); err == nil {
		t.Fatal("put into the reserved chunk namespace accepted")
	}
}

func TestKVScanHidesChunks(t *testing.T) {
	d, _ := wrapped(t, Options{ChunkSize: 8})
	big := bytes.Repeat([]byte("chunked!"), 4)
	mustPut(t, d, "seg/big", big)
	mustPut(t, d, "seg/small", []byte("tiny"))
	seen := map[string][]byte{}
	if err := d.Scan("", func(k string, v []byte) bool {
		seen[k] = append([]byte(nil), v...)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 {
		t.Fatalf("scan saw %d keys %v, want the 2 logical ones", len(seen), seen)
	}
	// Scan yields logical bytes, not the recipe.
	if !bytes.Equal(seen["seg/big"], big) {
		t.Fatalf("scan resolved %d bytes, want %d", len(seen["seg/big"]), len(big))
	}
}

// TestKVConcurrentSharedChunks: Puts, overwrites and Deletes of values
// sharing chunks race on one wrapper (chunk IDs are computed outside its
// lock). Afterwards the refcounts must match what Recover rebuilds from
// the recipes, and deleting every key must free every chunk.
func TestKVConcurrentSharedChunks(t *testing.T) {
	const (
		chunk   = 16
		workers = 4
		keys    = 3
		rounds  = 200
	)
	inner := kvstore.NewMemKV(4)
	o := Options{ChunkSize: chunk}
	d := Wrap(inner, o)
	pool := make([][]byte, 6)
	for i := range pool {
		pool[i] = bytes.Repeat([]byte{byte('a' + i)}, chunk)
	}
	final := make([]map[string][]byte, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			live := map[string][]byte{}
			for r := 0; r < rounds; r++ {
				key := fmt.Sprintf("seg/%d/%d", w, rng.Intn(keys))
				if rng.Intn(4) == 0 {
					if err := d.Delete(key); err != nil {
						t.Errorf("delete %s: %v", key, err)
						return
					}
					delete(live, key)
					continue
				}
				var v []byte
				for c := 0; c < 1+rng.Intn(4); c++ {
					v = append(v, pool[rng.Intn(len(pool))]...)
				}
				if err := d.Put(key, v); err != nil {
					t.Errorf("put %s: %v", key, err)
					return
				}
				live[key] = v
			}
			final[w] = live
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	d2 := Wrap(inner, o)
	if err := d2.Recover(); err != nil {
		t.Fatal(err)
	}
	if got, want := d2.Stats().Chunks, d.Stats().Chunks; got != want {
		t.Fatalf("recovered %d chunks, the racing wrapper counted %d", got, want)
	}
	for _, live := range final {
		for key, v := range live {
			if got := mustGet(t, d2, key); !bytes.Equal(got, v) {
				t.Fatalf("%s reads %q, want %q", key, got, v)
			}
			if err := d2.Delete(key); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := d2.Stats(); st.Chunks != 0 || inner.Len() != 0 {
		t.Fatalf("after deleting every key: %d chunks counted, %d inner entries", st.Chunks, inner.Len())
	}
}

// encodeRecipe is parseRecipe's inverse, written out independently of
// KV.recipe so FuzzParseRecipe checks the format rather than the encoder.
func encodeRecipe(rawLen uint64, ids []chunkID, lens []uint32) []byte {
	r := append([]byte(nil), recipeMagic...)
	r = binary.LittleEndian.AppendUint64(r, rawLen)
	r = binary.LittleEndian.AppendUint32(r, uint32(len(ids)))
	for i, id := range ids {
		r = append(r, id[:]...)
		r = binary.LittleEndian.AppendUint32(r, lens[i])
	}
	return r
}

// FuzzParseRecipe: parseRecipe reads recipes off disk. Whatever it
// accepts must be exactly one well-formed recipe: re-encoding yields the
// input, every chunk length is 1..chunkSize, and the lengths sum to the
// logical length.
func FuzzParseRecipe(f *testing.F) {
	const chunk = 8
	d, inner := wrapped(f, Options{ChunkSize: chunk})
	if err := d.Put("seg/1", []byte("abcdefghABCDEFGH0123")); err != nil {
		f.Fatal(err)
	}
	valid, _, _ := inner.Get("seg/1")
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(append(append([]byte(nil), valid...), 0))
	f.Add(encodeRecipe(0, nil, nil))
	old := append([]byte(nil), valid...)
	old[len(recipeTag)] = 1
	f.Add(old)
	f.Fuzz(func(t *testing.T, v []byte) {
		rawLen, ids, lens, err := parseRecipe(v, chunk)
		if err != nil {
			return
		}
		if !bytes.Equal(encodeRecipe(rawLen, ids, lens), v) {
			t.Fatalf("accepted %x, which does not re-encode to itself", v)
		}
		var sum uint64
		for i, n := range lens {
			if n == 0 || n > chunk {
				t.Fatalf("accepted chunk %d of %d bytes", i, n)
			}
			sum += uint64(n)
		}
		if sum != rawLen {
			t.Fatalf("accepted chunks summing to %d for logical length %d", sum, rawLen)
		}
	})
}

// BenchmarkKVPutShared stores a 4 MiB value of which half the chunks are
// live already: per Put, 32 chunks are hashed and referenced and 32 are
// hashed and written (the previous Put's copies having been released).
func BenchmarkKVPutShared(b *testing.B) {
	const size = 4 << 20
	d := Wrap(kvstore.NewMemKV(4), Options{})
	rng := rand.New(rand.NewSource(1))
	base := make([]byte, size)
	rng.Read(base)
	if err := d.Put("seg/base", base); err != nil {
		b.Fatal(err)
	}
	v := make([]byte, size)
	rng.Read(v)
	for off := 0; off < size; off += 2 * DefaultChunkSize {
		copy(v[off:off+DefaultChunkSize], base[off:])
	}
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Put("seg/v", v); err != nil {
			b.Fatal(err)
		}
	}
}
