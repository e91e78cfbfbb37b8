package dedup

import "repro/internal/proto"

// DefaultChunkSize is the content-addressing granularity: segments are
// chunked at this boundary both for digests and for the CAS wrapper.
// 64 KiB keeps recipe overhead (12 bytes/chunk) below 0.02%; sharing is
// per whole chunk, so one changed byte costs its chunk a new copy.
const DefaultChunkSize = 64 << 10

// ChunkDigests splits b into chunkSize-byte chunks (the last one may be
// short) and returns one FNV-1a-64 content digest per chunk, reusing the
// repair subsystem's hash (proto.HashBytes). chunkSize <= 0 selects
// DefaultChunkSize. An empty b yields no chunks.
func ChunkDigests(b []byte, chunkSize int) []uint64 {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	if len(b) == 0 {
		return nil
	}
	out := make([]uint64, 0, (len(b)+chunkSize-1)/chunkSize)
	for off := 0; off < len(b); off += chunkSize {
		end := off + chunkSize
		if end > len(b) {
			end = len(b)
		}
		out = append(out, proto.HashBytes(proto.HashSeed, b[off:end]))
	}
	return out
}
