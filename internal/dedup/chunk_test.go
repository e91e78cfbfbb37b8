package dedup

import (
	"math/rand"
	"testing"
)

func TestChunkDigests(t *testing.T) {
	b := make([]byte, 2*DefaultChunkSize+100)
	rand.New(rand.NewSource(7)).Read(b)
	ids := chunkIDs(b, DefaultChunkSize)
	if len(ids) != 3 {
		t.Fatalf("got %d IDs, want 3", len(ids))
	}
	// Identical chunks share an ID; a one-byte change moves it.
	same := append(append([]byte(nil), b[:DefaultChunkSize]...), b[:DefaultChunkSize]...)
	ids2 := chunkIDs(same, DefaultChunkSize)
	if ids2[0] != ids2[1] || ids2[0] != ids[0] {
		t.Fatal("identical chunks have different IDs")
	}
	same[3] ^= 1
	if chunkIDs(same, DefaultChunkSize)[0] == ids[0] {
		t.Fatal("changed chunk kept its ID")
	}
	if chunkIDs(nil, DefaultChunkSize) != nil {
		t.Fatal("empty input produced IDs")
	}
	// Known answer: the ID is persisted, so it must not change silently.
	// SHA-256("abc") is FIPS 180-2's first example; the ID is its first
	// 16 bytes.
	abc := chunkIDs([]byte("abc"), DefaultChunkSize)
	if got, want := chunkKey(abc[0]), "cas/ba7816bf8f01cfea414140de5dae2223"; got != want {
		t.Fatalf("chunk key of \"abc\" = %s, want %s", got, want)
	}
	if id, ok := parseChunkKey(chunkKey(abc[0])); !ok || id != abc[0] {
		t.Fatal("parseChunkKey does not invert chunkKey")
	}
	for _, bad := range []string{"cas/0123", "cas/BA7816BF8F01CFEA414140DE5DAE2223", "cas/ba7816bf8f01cfea414140de5dae222z"} {
		if _, ok := parseChunkKey(bad); ok {
			t.Errorf("parseChunkKey accepted %q", bad)
		}
	}
}
