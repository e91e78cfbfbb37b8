package dedup

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/kvstore"
)

// recipeMagic opens every recipe: the 5-byte recipeTag and a version
// byte. Its first byte, 0xF5, cannot begin a plausible tensor segment: a
// segment opens with a little-endian u16 name length, so a collision
// needs a tensor name of 245+256k bytes, which the tensor codec rejects.
// The recipe is this package's private format: no caller ever sees one.
//
// Version 2 (this binary) follows the magic with u64 logical length |
// u32 chunk count | per chunk: 16-byte chunkID | u32 chunk length.
// Version 1 keyed chunks by a 64-bit FNV digest; parseRecipe refuses it,
// so Recover refuses a directory holding one.
var recipeMagic = []byte{0xf5, 'C', 'a', 'S', 'r', 0x02}

// recipeTag marks a recipe of any version. A stored value that opens with
// it is read as a recipe, and parseRecipe refuses every version but
// this binary's.
var recipeTag = recipeMagic[:len(recipeMagic)-1]

// recipeEntry is one chunk's bytes in a recipe: its ID and u32 length.
const recipeEntry = chunkIDSize + 4

// casPrefix namespaces chunk entries inside the wrapped store. Logical
// keys must not start with it (provider segment keys are "seg/...").
const casPrefix = "cas/"

// Options configures a content-addressed KV wrapper.
type Options struct {
	// ChunkSize is the content-addressing granularity (default
	// DefaultChunkSize). Values shorter than one chunk are stored inline
	// unless they open with the recipe tag.
	ChunkSize int
}

// KV content-addresses the values of an underlying kvstore.KV: each
// distinct chunk is stored once under cas/<chunk ID> with an in-memory
// refcount, and a value is stored as a recipe of chunk IDs. Readers
// see logical bytes; SizeBytes reports the inner store's live bytes after
// chunk sharing — the dedup win.
type KV struct {
	kv   kvstore.KV
	kvB  kvstore.ByteKeyGetter
	into kvstore.IntoGetter // chunk reads straight into the value's buffer
	o    Options
	mu   sync.Mutex      // serializes mutations (chunk refcounts)
	refs map[chunkID]int // live references per chunk
	// chunks counts live cas/ entries so Len can report logical keys.
	chunks int

	dedupHits atomic.Uint64 // chunks answered by an existing copy
}

// Wrap layers content addressing over kv. The wrapper owns kv's key
// space: keys beginning "cas/" are reserved for chunks.
func Wrap(kv kvstore.KV, o Options) *KV {
	if o.ChunkSize <= 0 {
		o.ChunkSize = DefaultChunkSize
	}
	kvB, _ := kv.(kvstore.ByteKeyGetter)
	into, _ := kv.(kvstore.IntoGetter)
	return &KV{kv: kv, kvB: kvB, into: into, o: o, refs: make(map[chunkID]int)}
}

// CASStats reports the wrapper's content-addressing effectiveness.
type CASStats struct {
	Chunks    int    // live distinct chunks
	DedupHits uint64 // chunk stores answered by an existing copy
}

// Stats snapshots the wrapper counters.
func (d *KV) Stats() CASStats {
	d.mu.Lock()
	chunks := d.chunks
	d.mu.Unlock()
	return CASStats{Chunks: chunks, DedupHits: d.dedupHits.Load()}
}

// Put implements kvstore.KV: values of at least one chunk are stored as
// cas recipes; shorter ones pass through inline, except one that opens
// with recipeTag, which would read back as a recipe and so is stored as a
// one-chunk recipe. Chunk IDs and the recipe are computed before taking
// the lock, which guards only the refcounts and the store mutations that
// must agree with them.
func (d *KV) Put(key string, value []byte) error {
	if strings.HasPrefix(key, casPrefix) {
		return fmt.Errorf("dedup: key %q collides with the reserved chunk namespace", key)
	}
	var ids []chunkID
	stored := value
	if len(value) >= d.o.ChunkSize || bytes.HasPrefix(value, recipeTag) {
		ids = chunkIDs(value, d.o.ChunkSize)
		stored = d.recipe(value, ids)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.releaseLocked(key); err != nil {
		return err
	}
	if err := d.storeChunksLocked(value, ids); err != nil {
		return err
	}
	return d.kv.Put(key, stored)
}

// storeChunksLocked takes one reference per chunk of value, storing the
// chunks whose ID is not live yet. A live ID is trusted as the content:
// the stored copy is never read. On error the references already taken
// are released.
func (d *KV) storeChunksLocked(value []byte, ids []chunkID) error {
	for ci, id := range ids {
		if d.refs[id] > 0 {
			d.refs[id]++
			d.dedupHits.Add(1)
			continue
		}
		off := ci * d.o.ChunkSize
		if err := d.kv.Put(chunkKey(id), value[off:min(off+d.o.ChunkSize, len(value))]); err != nil {
			for _, taken := range ids[:ci] {
				d.unrefChunkLocked(taken) //nolint:errcheck // best-effort rollback
			}
			return err
		}
		d.refs[id] = 1
		d.chunks++
	}
	return nil
}

// recipe encodes value's recipe from its chunk IDs.
func (d *KV) recipe(value []byte, ids []chunkID) []byte {
	r := make([]byte, 0, len(recipeMagic)+12+recipeEntry*len(ids))
	r = append(r, recipeMagic...)
	r = binary.LittleEndian.AppendUint64(r, uint64(len(value)))
	r = binary.LittleEndian.AppendUint32(r, uint32(len(ids)))
	for ci, id := range ids {
		r = append(r, id[:]...)
		r = binary.LittleEndian.AppendUint32(r, uint32(min(d.o.ChunkSize, len(value)-ci*d.o.ChunkSize)))
	}
	return r
}

// unrefChunkLocked drops one reference, deleting the chunk at zero.
func (d *KV) unrefChunkLocked(id chunkID) error {
	n := d.refs[id] - 1
	if n > 0 {
		d.refs[id] = n
		return nil
	}
	delete(d.refs, id)
	d.chunks--
	return d.kv.Delete(chunkKey(id))
}

// releaseLocked undoes the chunk references held by key's current entry,
// if it is a recipe.
func (d *KV) releaseLocked(key string) error {
	v, ok, err := d.kv.Get(key)
	if err != nil || !ok {
		return err
	}
	if !bytes.HasPrefix(v, recipeTag) {
		return nil
	}
	_, ids, _, err := parseRecipe(v, d.o.ChunkSize)
	if err != nil {
		return fmt.Errorf("dedup: recipe at %q: %w", key, err)
	}
	for _, id := range ids {
		if err := d.unrefChunkLocked(id); err != nil {
			return err
		}
	}
	return nil
}

// parseRecipe decodes a recipe into (rawLen, ids, chunkLens). It is
// strict: it refuses another version, trailing bytes, a chunk length of
// zero or above chunkSize, and chunk lengths that do not sum to rawLen.
func parseRecipe(v []byte, chunkSize int) (uint64, []chunkID, []uint32, error) {
	if len(v) < len(recipeMagic)+12 || !bytes.HasPrefix(v, recipeTag) {
		return 0, nil, nil, fmt.Errorf("dedup: torn recipe (%d bytes)", len(v))
	}
	if ver := v[len(recipeTag)]; ver != recipeMagic[len(recipeTag)] {
		return 0, nil, nil, fmt.Errorf("dedup: recipe version %d, this binary reads only version %d",
			ver, recipeMagic[len(recipeTag)])
	}
	b := v[len(recipeMagic):]
	rawLen := binary.LittleEndian.Uint64(b)
	n := uint64(binary.LittleEndian.Uint32(b[8:]))
	b = b[12:]
	if uint64(len(b)) != recipeEntry*n {
		return 0, nil, nil, fmt.Errorf("dedup: recipe wants %d chunk entries, has %d bytes", n, len(b))
	}
	ids := make([]chunkID, n)
	lens := make([]uint32, n)
	var sum uint64
	for i := range ids {
		e := b[recipeEntry*i:]
		ids[i] = chunkID(e[:chunkIDSize])
		lens[i] = binary.LittleEndian.Uint32(e[chunkIDSize:])
		if lens[i] == 0 || int64(lens[i]) > int64(chunkSize) {
			return 0, nil, nil, fmt.Errorf("dedup: recipe chunk %d is %d bytes, want 1..%d", i, lens[i], chunkSize)
		}
		sum += uint64(lens[i])
	}
	if sum != rawLen {
		return 0, nil, nil, fmt.Errorf("dedup: recipe chunks sum to %d bytes, header says %d", sum, rawLen)
	}
	return rawLen, ids, lens, nil
}

// Get implements kvstore.KV, reassembling recipes. Pass-through values are
// zero-copy views of the inner store; reassembled values are fresh
// buffers.
func (d *KV) Get(key string) ([]byte, bool, error) {
	v, ok, err := d.kv.Get(key)
	return d.resolve(v, ok, err, nil)
}

// GetB implements kvstore.ByteKeyGetter when the inner store does.
func (d *KV) GetB(key []byte) ([]byte, bool, error) {
	return d.GetAlloc(key, nil)
}

// GetAlloc is GetB for a caller that recycles buffers: a recipe is
// reassembled into alloc(n), which must return a buffer of n bytes that
// the caller owns, and every byte of it is overwritten. A pass-through
// value is the inner store's own buffer, as from Get, and alloc is not
// called for it. After an error, a buffer alloc returned is the caller's
// to reclaim. A nil alloc allocates, as Get does.
func (d *KV) GetAlloc(key []byte, alloc func(n int) []byte) ([]byte, bool, error) {
	var v []byte
	var ok bool
	var err error
	if d.kvB == nil {
		v, ok, err = d.kv.Get(string(key))
	} else {
		v, ok, err = d.kvB.GetB(key)
	}
	return d.resolve(v, ok, err, alloc)
}

// resolve turns a stored entry into its logical bytes, reassembling a
// recipe into a buffer from alloc.
func (d *KV) resolve(v []byte, ok bool, err error, alloc func(int) []byte) ([]byte, bool, error) {
	if err != nil || !ok || !bytes.HasPrefix(v, recipeTag) {
		return v, ok, err
	}
	out, err := d.reassemble(v, alloc)
	return out, err == nil, err
}

// reassemble reads a recipe's chunks into one buffer of the logical
// length, each chunk at its offset.
func (d *KV) reassemble(recipe []byte, alloc func(int) []byte) ([]byte, error) {
	rawLen, ids, lens, err := parseRecipe(recipe, d.o.ChunkSize)
	if err != nil {
		return nil, err
	}
	var out []byte
	if alloc != nil {
		out = alloc(int(rawLen))
	} else {
		out = make([]byte, rawLen)
	}
	off := 0
	for i, id := range ids {
		if err := d.fillChunk(id, out[off:off+int(lens[i])]); err != nil {
			return nil, err
		}
		off += int(lens[i])
	}
	return out, nil
}

// fillChunk reads chunk id into dst, which is the length the recipe gives
// it: straight from disk when the inner store is a kvstore.IntoGetter,
// through Get and a copy otherwise.
func (d *KV) fillChunk(id chunkID, dst []byte) error {
	key := chunkKey(id)
	var ok bool
	var err error
	if d.into != nil {
		ok, err = d.into.GetInto(key, dst)
	} else {
		var chunk []byte
		if chunk, ok, err = d.kv.Get(key); ok && err == nil {
			if len(chunk) != len(dst) {
				return fmt.Errorf("dedup: chunk %x is %d bytes, recipe says %d", id, len(chunk), len(dst))
			}
			copy(dst, chunk)
		}
	}
	if err != nil {
		return fmt.Errorf("dedup: chunk %x: %w", id, err)
	}
	if !ok {
		return fmt.Errorf("dedup: chunk %x missing (refcount says live)", id)
	}
	return nil
}

// Delete implements kvstore.KV, releasing the entry's chunk references.
func (d *KV) Delete(key string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.releaseLocked(key); err != nil {
		return err
	}
	return d.kv.Delete(key)
}

// Scan implements kvstore.KV over logical keys and values: chunk entries
// are hidden and recipes are reassembled.
func (d *KV) Scan(prefix string, fn func(key string, value []byte) bool) error {
	var ferr error
	err := d.kv.Scan(prefix, func(key string, value []byte) bool {
		if strings.HasPrefix(key, casPrefix) {
			return true
		}
		logical, _, err := d.resolve(value, true, nil, nil)
		if err != nil {
			ferr = err
			return false
		}
		return fn(key, logical)
	})
	if ferr != nil {
		return ferr
	}
	return err
}

// Len implements kvstore.KV: logical entries, excluding chunk storage.
func (d *KV) Len() int {
	d.mu.Lock()
	chunks := d.chunks
	d.mu.Unlock()
	return d.kv.Len() - chunks
}

// SizeBytes implements kvstore.KV and reports the inner store's
// SizeBytes: the bytes of the live values it holds after chunk sharing
// (each chunk once, recipes, inline values) — not the logical bytes that
// were Put, and not the size of its files.
func (d *KV) SizeBytes() int64 { return d.kv.SizeBytes() }

// Close implements kvstore.KV.
func (d *KV) Close() error { return d.kv.Close() }

// Sync implements kvstore.Syncer when the wrapped store does (a no-op
// otherwise), so the durable provider catalog can fsync through the
// content-addressing layer.
func (d *KV) Sync() error {
	if s, ok := d.kv.(kvstore.Syncer); ok {
		return s.Sync()
	}
	return nil
}

// Recover rebuilds the wrapper's in-memory chunk refcounts by scanning
// the wrapped store's recipes. Required after reopening a persistent
// inner store (kvstore.LSMKV): the cas/ chunks and recipes survived the
// restart, but the refcounts lived in process memory — without recovery
// a Put of an existing key would fail to release its old chunks, and a
// release could delete chunks other recipes still reference. Chunks no
// recipe references (for example a crash between the chunk put and its
// recipe put) are orphans and are deleted. Call before serving traffic.
//
// Recover is the wrapper's format gate: it fails, naming the key, on a
// recipe parseRecipe refuses (torn, or written in another version) and
// on a cas/ key that is not a chunk ID of this format, rather than
// freeing a torn recipe's chunks as orphans or leaking the odd key.
func (d *KV) Recover() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	refs := make(map[chunkID]int)
	var stored []chunkID
	var ferr error
	err := d.kv.Scan("", func(key string, value []byte) bool {
		if strings.HasPrefix(key, casPrefix) {
			id, ok := parseChunkKey(key)
			if !ok {
				ferr = fmt.Errorf("dedup: chunk key %q is not a chunk ID of this format", key)
				return false
			}
			stored = append(stored, id)
			return true
		}
		if bytes.HasPrefix(value, recipeTag) {
			_, ids, _, err := parseRecipe(value, d.o.ChunkSize)
			if err != nil {
				ferr = fmt.Errorf("dedup: recipe at %q: %w", key, err)
				return false
			}
			for _, id := range ids {
				refs[id]++
			}
		}
		return true
	})
	if err == nil {
		err = ferr
	}
	if err != nil {
		return err
	}
	d.refs = refs
	d.chunks = 0
	for _, id := range stored {
		if refs[id] > 0 {
			d.chunks++
			continue
		}
		if err := d.kv.Delete(chunkKey(id)); err != nil {
			return fmt.Errorf("dedup: deleting orphan chunk %x: %w", id, err)
		}
	}
	return nil
}

var (
	_ kvstore.KV            = (*KV)(nil)
	_ kvstore.ByteKeyGetter = (*KV)(nil)
)
