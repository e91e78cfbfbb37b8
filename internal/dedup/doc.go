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
//   - Chunk addressing (ChunkDigests): fixed-size chunks keyed by
//     FNV-1a-64 content digest — the same digest machinery the repair
//     subsystem hashes state with (internal/proto HashBytes).
//   - Content-addressed storage (Wrap): a kvstore.KV wrapper that stores
//     each distinct chunk once under cas/<digest> with chunk-granularity
//     refcounts, and a value as a recipe of digests. Deleting one key
//     only frees the chunks no surviving recipe references.
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
package dedup
