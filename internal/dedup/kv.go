package dedup

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/kvstore"
)

// recipeMagic opens every recipe. Its first byte, 0xF5, cannot begin a
// plausible tensor segment: a segment opens with a little-endian u16 name
// length, so a collision needs a tensor name of 245+256k bytes, which the
// tensor codec rejects. The recipe is this package's private format: no
// caller ever sees one.
var recipeMagic = []byte{0xf5, 'C', 'a', 'S', 'r', 0x01}

// casPrefix namespaces chunk entries inside the wrapped store. Logical
// keys must not start with it (provider segment keys are "seg/...").
const casPrefix = "cas/"

// Options configures a content-addressed KV wrapper.
type Options struct {
	// ChunkSize is the content-addressing granularity (default
	// DefaultChunkSize). Values shorter than one chunk are stored inline.
	ChunkSize int
}

// KV content-addresses the values of an underlying kvstore.KV: each
// distinct chunk is stored once under cas/<digest> with an in-memory
// refcount, and a value is stored as a recipe of chunk digests. Readers
// see logical bytes; SizeBytes reports what is physically stored — the
// dedup win.
type KV struct {
	kv   kvstore.KV
	kvB  kvstore.ByteKeyGetter
	o    Options
	mu   sync.Mutex     // serializes mutations (chunk refcounts)
	refs map[uint64]int // live references per chunk digest
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
	return &KV{kv: kv, kvB: kvB, o: o, refs: make(map[uint64]int)}
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

func chunkKey(digest uint64) string {
	var b [4 + 16]byte
	copy(b[:4], casPrefix)
	const hex = "0123456789abcdef"
	for i := 0; i < 16; i++ {
		b[4+i] = hex[(digest>>uint(60-4*i))&0xf]
	}
	return string(b[:])
}

// Put implements kvstore.KV: values of at least one chunk are stored as
// cas recipes; shorter ones pass through inline.
func (d *KV) Put(key string, value []byte) error {
	if strings.HasPrefix(key, casPrefix) {
		return fmt.Errorf("dedup: key %q collides with the reserved chunk namespace", key)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.releaseLocked(key); err != nil {
		return err
	}
	if len(value) < d.o.ChunkSize {
		return d.kv.Put(key, value)
	}
	recipe, err := d.storeChunksLocked(value)
	if err != nil {
		return err
	}
	if recipe == nil {
		// Digest collision fallback: store the value inline, undeduped.
		return d.kv.Put(key, value)
	}
	return d.kv.Put(key, recipe)
}

// storeChunksLocked stores value's chunks (reusing existing copies) and
// returns the recipe. A digest collision — same digest, different bytes —
// returns (nil, nil) after releasing any references already taken, and
// the caller stores the value inline.
func (d *KV) storeChunksLocked(value []byte) ([]byte, error) {
	digests := ChunkDigests(value, d.o.ChunkSize)
	recipe := make([]byte, 0, len(recipeMagic)+12+12*len(digests))
	recipe = append(recipe, recipeMagic...)
	recipe = binary.LittleEndian.AppendUint64(recipe, uint64(len(value)))
	recipe = binary.LittleEndian.AppendUint32(recipe, uint32(len(digests)))
	taken := make([]uint64, 0, len(digests))
	undo := func() {
		for _, g := range taken {
			d.unrefChunkLocked(g) //nolint:errcheck // best-effort rollback
		}
	}
	for ci, g := range digests {
		off := ci * d.o.ChunkSize
		end := off + d.o.ChunkSize
		if end > len(value) {
			end = len(value)
		}
		chunk := value[off:end]
		if d.refs[g] > 0 {
			stored, err := d.chunkBytes(g)
			if err != nil {
				undo()
				return nil, err
			}
			if !bytes.Equal(stored, chunk) {
				undo()
				return nil, nil // true collision: fall back to inline
			}
			d.refs[g]++
			d.dedupHits.Add(1)
		} else {
			if err := d.kv.Put(chunkKey(g), chunk); err != nil {
				undo()
				return nil, err
			}
			d.refs[g] = 1
			d.chunks++
		}
		taken = append(taken, g)
		recipe = binary.LittleEndian.AppendUint64(recipe, g)
		recipe = binary.LittleEndian.AppendUint32(recipe, uint32(len(chunk)))
	}
	return recipe, nil
}

// chunkBytes reads one chunk.
func (d *KV) chunkBytes(digest uint64) ([]byte, error) {
	v, ok, err := d.kv.Get(chunkKey(digest))
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("dedup: chunk %016x missing (refcount says live)", digest)
	}
	return v, nil
}

// unrefChunkLocked drops one reference, deleting the chunk at zero.
func (d *KV) unrefChunkLocked(digest uint64) error {
	n := d.refs[digest] - 1
	if n > 0 {
		d.refs[digest] = n
		return nil
	}
	delete(d.refs, digest)
	d.chunks--
	return d.kv.Delete(chunkKey(digest))
}

// releaseLocked undoes the chunk references held by key's current entry,
// if it is a recipe.
func (d *KV) releaseLocked(key string) error {
	v, ok, err := d.kv.Get(key)
	if err != nil || !ok {
		return err
	}
	if !bytes.HasPrefix(v, recipeMagic) {
		return nil
	}
	_, digests, _, err := parseRecipe(v)
	if err != nil {
		return err
	}
	for _, g := range digests {
		if err := d.unrefChunkLocked(g); err != nil {
			return err
		}
	}
	return nil
}

// parseRecipe decodes a recipe into (rawLen, digests, chunkLens).
func parseRecipe(v []byte) (uint64, []uint64, []uint32, error) {
	b := v[len(recipeMagic):]
	if len(b) < 12 {
		return 0, nil, nil, fmt.Errorf("dedup: torn recipe (%d bytes)", len(v))
	}
	rawLen := binary.LittleEndian.Uint64(b)
	n := int(binary.LittleEndian.Uint32(b[8:]))
	b = b[12:]
	if len(b) != 12*n {
		return 0, nil, nil, fmt.Errorf("dedup: recipe wants %d chunk entries, has %d bytes", n, len(b))
	}
	digests := make([]uint64, n)
	lens := make([]uint32, n)
	for i := 0; i < n; i++ {
		digests[i] = binary.LittleEndian.Uint64(b[12*i:])
		lens[i] = binary.LittleEndian.Uint32(b[12*i+8:])
	}
	return rawLen, digests, lens, nil
}

// Get implements kvstore.KV, reassembling recipes. Pass-through values are
// zero-copy views of the inner store; reassembled values are fresh
// buffers.
func (d *KV) Get(key string) ([]byte, bool, error) {
	return d.resolve(d.kv.Get(key))
}

// GetB implements kvstore.ByteKeyGetter when the inner store does.
func (d *KV) GetB(key []byte) ([]byte, bool, error) {
	if d.kvB == nil {
		return d.Get(string(key))
	}
	return d.resolve(d.kvB.GetB(key))
}

// resolve turns a stored entry into its logical bytes.
func (d *KV) resolve(v []byte, ok bool, err error) ([]byte, bool, error) {
	if err != nil || !ok || !bytes.HasPrefix(v, recipeMagic) {
		return v, ok, err
	}
	out, err := d.reassemble(v)
	return out, err == nil, err
}

// reassemble concatenates a recipe's chunks into one fresh buffer.
func (d *KV) reassemble(recipe []byte) ([]byte, error) {
	rawLen, digests, lens, err := parseRecipe(recipe)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, rawLen)
	for i, g := range digests {
		chunk, err := d.chunkBytes(g)
		if err != nil {
			return nil, err
		}
		if len(chunk) != int(lens[i]) {
			return nil, fmt.Errorf("dedup: chunk %016x is %d bytes, recipe says %d", g, len(chunk), lens[i])
		}
		out = append(out, chunk...)
	}
	if uint64(len(out)) != rawLen {
		return nil, fmt.Errorf("dedup: reassembled %d bytes, recipe says %d", len(out), rawLen)
	}
	return out, nil
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
		logical, _, err := d.resolve(value, true, nil)
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

// SizeBytes implements kvstore.KV and reports *physical* bytes — after
// chunk sharing. This is deliberate: it is the quantity operators and the
// dedup benchmark care about.
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
func (d *KV) Recover() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	refs := make(map[uint64]int)
	var chunkDigests []uint64
	err := d.kv.Scan("", func(key string, value []byte) bool {
		if strings.HasPrefix(key, casPrefix) {
			if g, err := strconv.ParseUint(key[len(casPrefix):], 16, 64); err == nil {
				chunkDigests = append(chunkDigests, g)
			}
			return true
		}
		if bytes.HasPrefix(value, recipeMagic) {
			if _, digests, _, err := parseRecipe(value); err == nil {
				for _, g := range digests {
					refs[g]++
				}
			}
		}
		return true
	})
	if err != nil {
		return err
	}
	d.refs = refs
	d.chunks = 0
	for _, g := range chunkDigests {
		if refs[g] > 0 {
			d.chunks++
			continue
		}
		if err := d.kv.Delete(chunkKey(g)); err != nil {
			return fmt.Errorf("dedup: deleting orphan chunk %016x: %w", g, err)
		}
	}
	return nil
}

var (
	_ kvstore.KV            = (*KV)(nil)
	_ kvstore.ByteKeyGetter = (*KV)(nil)
)
