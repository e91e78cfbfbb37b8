package dedup

import (
	"crypto/sha256"
	"encoding/hex"
)

// DefaultChunkSize is the content-addressing granularity: segments are
// chunked at this boundary both for IDs and for the CAS wrapper.
// 64 KiB keeps recipe overhead (20 bytes/chunk) near 0.03%; sharing is
// per whole chunk, so one changed byte costs its chunk a new copy.
const DefaultChunkSize = 64 << 10

// chunkID names a chunk by content: the first 16 bytes of its SHA-256.
// At 128 bits a collision among any plausible number of stored chunks is
// far less likely than a disk error, so the ID is trusted as the content
// and a store that finds the ID already present takes a reference
// without reading the stored copy. The ID is persisted (chunk keys and
// recipes), so changing it is an on-disk format change.
type chunkID [chunkIDSize]byte

const chunkIDSize = 16

// chunkIDs splits b into chunkSize-byte chunks (the last one may be
// short) and returns one ID per chunk. An empty b yields no chunks.
func chunkIDs(b []byte, chunkSize int) []chunkID {
	if len(b) == 0 {
		return nil
	}
	out := make([]chunkID, 0, (len(b)+chunkSize-1)/chunkSize)
	for off := 0; off < len(b); off += chunkSize {
		sum := sha256.Sum256(b[off:min(off+chunkSize, len(b))])
		out = append(out, chunkID(sum[:chunkIDSize]))
	}
	return out
}

// chunkKey is the inner store's key for a chunk: casPrefix and the ID in
// 32 lowercase hex digits.
func chunkKey(id chunkID) string {
	var b [len(casPrefix) + 2*chunkIDSize]byte
	copy(b[:], casPrefix)
	hex.Encode(b[len(casPrefix):], id[:])
	return string(b[:])
}

// parseChunkKey inverts chunkKey. It accepts only the exact form chunkKey
// writes, so a key it accepts names the entry its ID maps back to.
func parseChunkKey(key string) (chunkID, bool) {
	var id chunkID
	if len(key) != len(casPrefix)+2*chunkIDSize {
		return id, false
	}
	if _, err := hex.Decode(id[:], []byte(key[len(casPrefix):])); err != nil {
		return id, false
	}
	return id, chunkKey(id) == key
}
