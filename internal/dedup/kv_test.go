package dedup

import (
	"bytes"
	"testing"

	"repro/internal/kvstore"
)

func wrapped(t *testing.T, o Options) (*KV, kvstore.KV) {
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

func TestKVChunkSharing(t *testing.T) {
	d, inner := wrapped(t, Options{ChunkSize: 8})
	v := []byte("abcdefghABCDEFGH01234567") // 3 chunks
	mustPut(t, d, "seg/1", v)
	mustPut(t, d, "seg/2", v)
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
