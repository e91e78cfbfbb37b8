package dedup

import (
	"math/rand"
	"testing"
)

func TestChunkDigests(t *testing.T) {
	b := make([]byte, 2*DefaultChunkSize+100)
	rand.New(rand.NewSource(7)).Read(b)
	ds := ChunkDigests(b, 0)
	if len(ds) != 3 {
		t.Fatalf("got %d digests, want 3", len(ds))
	}
	// Identical chunks share a digest; a one-byte change moves it.
	same := append(append([]byte(nil), b[:DefaultChunkSize]...), b[:DefaultChunkSize]...)
	ds2 := ChunkDigests(same, 0)
	if ds2[0] != ds2[1] || ds2[0] != ds[0] {
		t.Fatal("identical chunks digest differently")
	}
	same[3] ^= 1
	if ChunkDigests(same, 0)[0] == ds[0] {
		t.Fatal("changed chunk kept its digest")
	}
	if ChunkDigests(nil, 0) != nil {
		t.Fatal("empty input produced digests")
	}
}
