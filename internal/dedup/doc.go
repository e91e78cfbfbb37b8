// Package dedup implements the content-level capacity layer of EvoStore:
// a storage wrapper that shrinks what a provider physically stores below
// what owner maps already dedup structurally.
//
// Owner maps share *unmodified* tensors between derived models by
// reference, and a derived model stores each tensor it modified whole.
// This package shares what is left byte-for-byte identical below that
// granularity — whole chunks of a stored segment that a fine-tune did
// not touch, and chunks that repeat across segments on one provider:
//
//   - Chunk addressing: fixed-size chunks named by a 128-bit ID, the
//     first 16 bytes of the chunk's SHA-256. The ID is trusted as the
//     content, so storing a chunk whose ID is live takes a reference
//     without reading the stored copy. Replica repair's digests stay
//     FNV (internal/proto HashWords, HashBytes) over small catalog
//     records; nothing here shares them.
//   - Content-addressed storage (Wrap): a kvstore.KV wrapper that stores
//     each distinct chunk once under cas/<chunk ID> with chunk-granularity
//     refcounts, and a value as a recipe of IDs. Deleting one key
//     only frees the chunks no surviving recipe references. Put hashes
//     before it takes the wrapper's lock, which guards only refcounts.
//
// Sharing is per whole chunk: an update that touches one byte in every
// chunk of a tensor (a scattered sparse update) shares nothing, while one
// confined to a contiguous run shares every chunk it leaves alone.
//
// Contracts:
//   - The wrapper is invisible above the kvstore.KV interface: Get
//     returns the logical bytes that were Put, and the recipe format
//     never leaves this package. Providers, replicas, repair and clients
//     see plain segments.
//   - The KV wrapper is safe for concurrent use and preserves the
//     kvstore.KV contract (Put copies, Get views are immutable). Its chunk
//     refcounts are in-memory and rebuilt from the recipes by Recover
//     after reopening a persistent inner store.
//   - Every provider stores through this wrapper: core.Open,
//     core.RestartProvider and evostore-server wrap each backend and run
//     Recover before the provider reads its catalog.
//   - Chunk IDs and recipes are an on-disk format. Recover refuses a
//     store holding another recipe version or a malformed cas/ key, and
//     evostore-server names the format in its manifest
//     (kvstore.FeatureSHA256Chunks) so an older binary refuses the dir.
//     A value stored without the wrapper reads back as itself, so a
//     store written by a provider that ran without chunks opens as is
//     (Recover fails naming the key of such a value that opens with the
//     recipe tag; a tensor segment cannot).
package dedup
