// Package kvstore provides the provider-local key-value backends of
// EvoStore. The paper's providers use "an extensible key-value store
// abstraction ... either in-memory (C++ synchronized memory pools) or
// persistently using underlying backends such as RocksDB". This package
// supplies both classes behind one interface: MemKV, a sharded in-memory
// store, and LSMKV, a persistent log-structured merge store (WAL +
// memtable + SSTables + compaction).
package kvstore

import (
	"sort"
	"strings"
	"sync"
)

// KV is the store abstraction providers program against. Implementations
// must be safe for concurrent use. Values passed to Put are copied; values
// returned by Get must not be modified by the caller.
type KV interface {
	// Put stores value under key, replacing any existing entry.
	Put(key string, value []byte) error
	// Get returns the value for key and whether it exists.
	Get(key string) ([]byte, bool, error)
	// Delete removes key; deleting a missing key is not an error.
	Delete(key string) error
	// Scan calls fn for every key with the given prefix in ascending key
	// order until fn returns false. fn must not mutate the store.
	Scan(prefix string, fn func(key string, value []byte) bool) error
	// Len returns the number of live entries.
	Len() int
	// SizeBytes returns the total payload bytes of live entries.
	SizeBytes() int64
	// Close releases resources. The store must not be used afterwards.
	Close() error
}

// Syncer is an optional durability interface: Sync makes every write
// acknowledged so far durable (fsync) without other side effects. LSMKV
// implements it by flushing and fsyncing its WAL; purely in-memory stores
// (MemKV) do not implement it and callers treat that as a no-op.
type Syncer interface {
	Sync() error
}

// ByteKeyGetter is an optional fast-path interface for stores that can look
// a key up from a byte slice without materializing a string. Callers on hot
// read paths (provider segment reads) type-assert for it and fall back to
// KV.Get; implementations must not retain key beyond the call.
type ByteKeyGetter interface {
	GetB(key []byte) ([]byte, bool, error)
}

// IntoGetter is an optional interface for stores that can read a value
// straight into a buffer the caller owns, so a value read from disk is
// copied once, into its destination. GetInto reports whether key exists;
// a value whose length is not len(dst) is an error. dst's contents are
// unspecified after an error. Callers type-assert for it and fall back to
// KV.Get plus a copy.
type IntoGetter interface {
	GetInto(key string, dst []byte) (bool, error)
}

// memShard is one lock domain of MemKV.
type memShard struct {
	mu    sync.RWMutex
	items map[string][]byte
	bytes int64
}

// MemKV is a sharded in-memory KV: the analogue of the paper's C++
// synchronized memory pools. Shard count fixes the number of lock domains
// so concurrent workers rarely contend.
type MemKV struct {
	shards []memShard
}

// NewMemKV returns an in-memory store with the given shard count (minimum
// 1; 16 is a good default for provider workloads).
func NewMemKV(shards int) *MemKV {
	if shards < 1 {
		shards = 1
	}
	kv := &MemKV{shards: make([]memShard, shards)}
	for i := range kv.shards {
		kv.shards[i].items = make(map[string][]byte)
	}
	return kv
}

// fnv1a32 is FNV-1a over s, identical to hash/fnv's New32a but without the
// hasher allocation. Shard selection must agree between the string and byte
// key paths, so both hash functions mirror this exact recurrence.
func fnv1a32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

func fnv1a32Bytes(b []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	return h
}

func (kv *MemKV) shard(key string) *memShard {
	return &kv.shards[fnv1a32(key)%uint32(len(kv.shards))]
}

// Put implements KV.
func (kv *MemKV) Put(key string, value []byte) error {
	s := kv.shard(key)
	cp := append([]byte(nil), value...)
	s.mu.Lock()
	if old, ok := s.items[key]; ok {
		s.bytes -= int64(len(old))
	}
	s.items[key] = cp
	s.bytes += int64(len(cp))
	s.mu.Unlock()
	return nil
}

// Get implements KV.
func (kv *MemKV) Get(key string) ([]byte, bool, error) {
	s := kv.shard(key)
	s.mu.RLock()
	v, ok := s.items[key]
	s.mu.RUnlock()
	return v, ok, nil
}

// GetB implements ByteKeyGetter: the map index converts the key in place,
// so no string is allocated.
func (kv *MemKV) GetB(key []byte) ([]byte, bool, error) {
	s := &kv.shards[fnv1a32Bytes(key)%uint32(len(kv.shards))]
	s.mu.RLock()
	v, ok := s.items[string(key)]
	s.mu.RUnlock()
	return v, ok, nil
}

// Delete implements KV.
func (kv *MemKV) Delete(key string) error {
	s := kv.shard(key)
	s.mu.Lock()
	if old, ok := s.items[key]; ok {
		s.bytes -= int64(len(old))
		delete(s.items, key)
	}
	s.mu.Unlock()
	return nil
}

// Scan implements KV. It snapshots matching keys first so fn runs without
// holding shard locks.
func (kv *MemKV) Scan(prefix string, fn func(key string, value []byte) bool) error {
	type pair struct {
		k string
		v []byte
	}
	var matched []pair
	for i := range kv.shards {
		s := &kv.shards[i]
		s.mu.RLock()
		for k, v := range s.items {
			if strings.HasPrefix(k, prefix) {
				matched = append(matched, pair{k, v})
			}
		}
		s.mu.RUnlock()
	}
	sort.Slice(matched, func(i, j int) bool { return matched[i].k < matched[j].k })
	for _, p := range matched {
		if !fn(p.k, p.v) {
			break
		}
	}
	return nil
}

// Len implements KV.
func (kv *MemKV) Len() int {
	n := 0
	for i := range kv.shards {
		s := &kv.shards[i]
		s.mu.RLock()
		n += len(s.items)
		s.mu.RUnlock()
	}
	return n
}

// SizeBytes implements KV.
func (kv *MemKV) SizeBytes() int64 {
	var n int64
	for i := range kv.shards {
		s := &kv.shards[i]
		s.mu.RLock()
		n += s.bytes
		s.mu.RUnlock()
	}
	return n
}

// Close implements KV.
func (kv *MemKV) Close() error {
	for i := range kv.shards {
		s := &kv.shards[i]
		s.mu.Lock()
		s.items = map[string][]byte{}
		s.bytes = 0
		s.mu.Unlock()
	}
	return nil
}

var _ KV = (*MemKV)(nil)
