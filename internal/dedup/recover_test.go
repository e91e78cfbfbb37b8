package dedup

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/kvstore"
)

// TestRecoverRebuildsRefcounts: a fresh wrapper over a surviving inner
// store starts with empty refcounts; Recover must rebuild them from the
// recipes so shared chunks are neither leaked nor freed early.
func TestRecoverRebuildsRefcounts(t *testing.T) {
	inner := kvstore.NewMemKV(4)
	o := Options{ChunkSize: 64}
	d1 := Wrap(inner, o)
	payload := bytes.Repeat([]byte("chunky-content! "), 16) // 256 B, 4 chunks
	if err := d1.Put("a", payload); err != nil {
		t.Fatal(err)
	}
	if err := d1.Put("b", payload); err != nil { // same chunks, refs 2 each
		t.Fatal(err)
	}

	// "Restart": new wrapper, no memory of the refcounts.
	d2 := Wrap(inner, o)
	if err := d2.Recover(); err != nil {
		t.Fatal(err)
	}
	if got, want := d2.Stats().Chunks, d1.Stats().Chunks; got != want {
		t.Errorf("recovered chunk count = %d, want %d", got, want)
	}
	// Deleting one referent must keep the shared chunks alive for the other.
	if err := d2.Delete("a"); err != nil {
		t.Fatal(err)
	}
	v, ok, err := d2.Get("b")
	if err != nil || !ok || !bytes.Equal(v, payload) {
		t.Fatalf("shared value lost after recovered delete: ok=%v err=%v", ok, err)
	}
	// Deleting the last referent must free every chunk.
	if err := d2.Delete("b"); err != nil {
		t.Fatal(err)
	}
	leftover := 0
	inner.Scan(casPrefix, func(string, []byte) bool { leftover++; return true })
	if leftover != 0 {
		t.Errorf("%d chunks leaked after the last referent was deleted", leftover)
	}
}

// TestRecoverDeletesOrphans: a chunk without any referencing recipe (a
// crash between the chunk put and its recipe put) must be garbage
// collected by Recover, while referenced chunks survive.
func TestRecoverDeletesOrphans(t *testing.T) {
	inner := kvstore.NewMemKV(4)
	o := Options{ChunkSize: 64}
	d1 := Wrap(inner, o)
	payload := bytes.Repeat([]byte("live-content 123"), 8) // 128 B, 2 chunks
	if err := d1.Put("live", payload); err != nil {
		t.Fatal(err)
	}
	// Plant an orphan chunk directly in the inner store.
	orphan := chunkKey(chunkID{0xde, 0xad, 0xbe, 0xef})
	if err := inner.Put(orphan, []byte("unreferenced")); err != nil {
		t.Fatal(err)
	}

	d2 := Wrap(inner, o)
	if err := d2.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := inner.Get(orphan); ok {
		t.Error("orphan chunk survived Recover")
	}
	v, ok, err := d2.Get("live")
	if err != nil || !ok || !bytes.Equal(v, payload) {
		t.Fatalf("referenced value damaged by orphan collection: ok=%v err=%v", ok, err)
	}
	if got, want := d2.Stats().Chunks, d1.Stats().Chunks; got != want {
		t.Errorf("Chunks after recover = %d, want %d", got, want)
	}
}

// TestRecoverAfterLSMReopen is the end-to-end shape: chunks and recipes
// persisted in an LSM dir, process "restarts", wrapper recovers, and an
// overwrite Put correctly releases the old recipe's chunks.
func TestRecoverAfterLSMReopen(t *testing.T) {
	dir := t.TempDir()
	lsm, err := kvstore.OpenLSM(dir, kvstore.LSMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	o := Options{ChunkSize: 64}
	d1 := Wrap(lsm, o)
	old := bytes.Repeat([]byte("generation-one! "), 16)
	if err := d1.Put("k", old); err != nil {
		t.Fatal(err)
	}
	if err := lsm.Close(); err != nil {
		t.Fatal(err)
	}

	lsm2, err := kvstore.OpenLSM(dir, kvstore.LSMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer lsm2.Close()
	d2 := Wrap(lsm2, o)
	if err := d2.Recover(); err != nil {
		t.Fatal(err)
	}
	// Overwrite: without recovered refcounts this would strand the old
	// generation's chunks forever.
	fresh := bytes.Repeat([]byte("generation-TWO! "), 16)
	if err := d2.Put("k", fresh); err != nil {
		t.Fatal(err)
	}
	v, ok, err := d2.Get("k")
	if err != nil || !ok || !bytes.Equal(v, fresh) {
		t.Fatalf("overwritten value wrong after recover: ok=%v err=%v", ok, err)
	}
	chunks := 0
	lsm2.Scan(casPrefix, func(key string, _ []byte) bool {
		if strings.HasPrefix(key, casPrefix) {
			chunks++
		}
		return true
	})
	if want := d2.Stats().Chunks; chunks != want {
		t.Errorf("physical chunks = %d, refcounted chunks = %d: old generation stranded", chunks, want)
	}
}

// TestRecoverRefusesForeignFormat: Recover is the on-disk format gate. A
// version-1 recipe (64-bit FNV chunk digests) and a cas/ key that is not
// a chunk ID of this format each make it fail, naming the key, instead
// of freeing the recipe's chunks as orphans or leaking the key.
func TestRecoverRefusesForeignFormat(t *testing.T) {
	v1 := []byte{0xf5, 'C', 'a', 'S', 'r', 0x01}
	v1 = binary.LittleEndian.AppendUint64(v1, 64)
	v1 = binary.LittleEndian.AppendUint32(v1, 1)
	v1 = binary.LittleEndian.AppendUint64(v1, 0xdeadbeefcafef00d)
	v1 = binary.LittleEndian.AppendUint32(v1, 64)
	for _, tc := range []struct{ name, key string }{
		{"v1 recipe", "seg/old"},
		{"malformed chunk key", "cas/deadbeefcafef00d"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inner := kvstore.NewMemKV(4)
			d1 := Wrap(inner, Options{ChunkSize: 64})
			if err := d1.Put("seg/new", bytes.Repeat([]byte("x"), 128)); err != nil {
				t.Fatal(err)
			}
			if err := inner.Put(tc.key, v1); err != nil {
				t.Fatal(err)
			}
			err := Wrap(inner, Options{ChunkSize: 64}).Recover()
			if err == nil || !strings.Contains(err.Error(), tc.key) {
				t.Fatalf("Recover = %v, want an error naming %q", err, tc.key)
			}
		})
	}
}
