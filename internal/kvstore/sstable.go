package kvstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
)

// sstable is one immutable sorted table on disk.
//
// File layout (little-endian):
//
//	header:  u32 magic | u32 entry count
//	entries: repeated u32 keyLen | u32 valLen | key | value | u32 crc(key+value)
//	         where valLen 0xffffffff marks a tombstone (no value) and
//	         0xfffffffe a value-log pointer (value = the 20-byte vptr)
//	bloom:   u32 bit count | bits
//	index:   u32 index count | repeated (u32 keyLen | key | u64 offset)
//	footer:  u64 bloom offset | u64 index offset | u32 magic
//
// Index rule (the writer's choice; a reader accepts any subset of the
// entries, in file order): the first entry, every entry of ssBlock encoded
// bytes or more, and every entry starting ssBlock or more past the last
// indexed one.
//
// CRC contract: get verifies the one entry it returns and reads neither
// the value nor the CRC of an entry it walks past; iterate verifies every
// entry it yields.
const (
	ssMagic       = 0x4c534d31 // "LSM1"
	tombstoneMark = 0xffffffff
	vptrMark      = 0xfffffffe
	ssBlock       = 4 << 10
	bloomBitsPer  = 10
)

type ssIndexEntry struct {
	key    string
	offset uint64
}

type sstable struct {
	path    string
	f       *os.File
	count   int
	bloom   []uint64
	nbits   uint32
	index   []ssIndexEntry
	dataEnd uint64
	minKey  string
	maxKey  string
	bytes   int64 // value payload bytes, inline or pointed to (excluding tombstones)
	// refBytes is the part of bytes that lies in value logs: what the
	// table's vptrs point at.
	refBytes int64
	// logs is one more than the highest value-log id a vptr names.
	logs int
}

// ssEntry is one table entry. A vptr entry's value is the encoded pointer,
// not the bytes it points at.
type ssEntry struct {
	key       string
	value     []byte
	tombstone bool
	ptr       bool
}

// size is the payload the entry stands for: its inline value or the value
// its pointer locates.
func (e ssEntry) size() int64 {
	if e.ptr {
		return int64(decodeVptr(e.value).n)
	}
	return int64(len(e.value))
}

// writeSSTable writes sorted entries to path and opens the result.
func writeSSTable(path string, entries []ssEntry) (*sstable, error) {
	w, err := newSSWriter(path)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		w.add(e)
	}
	return w.finish()
}

// ssWriter streams entries, added in key order, into a table file. What is
// only known at the end is kept aside until then: the header, which holds the
// entry count, is written last, and the bloom filter is built from the keys'
// hashes (8 bytes each) once the count has sized it. The file grows under path+".tmp"
// and takes its name only when complete and fsynced, so a directory never
// shows a torn table under a table's name.
type ssWriter struct {
	t           *sstable // path, count, index, minKey, maxKey, bytes accumulate here
	w           *bufio.Writer
	off         uint64
	lastIndexed uint64
	hashes      []uint64 // first bloom hash of every key; the second follows from it
}

func newSSWriter(path string) (*ssWriter, error) {
	f, err := os.Create(path + ".tmp")
	if err != nil {
		return nil, err
	}
	// The header waits for finish, which knows the entry count.
	if _, err := f.Seek(8, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return &ssWriter{t: &sstable{path: path, f: f}, w: bufio.NewWriterSize(f, 1<<20), off: 8}, nil
}

func (w *ssWriter) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	w.w.Write(b[:])
	w.off += 4
}

func (w *ssWriter) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	w.w.Write(b[:])
	w.off += 8
}

// add appends one entry; e.value is not retained. A write error sticks to
// the buffered writer and is reported by finish.
func (w *ssWriter) add(e ssEntry) {
	t := w.t
	if e.tombstone {
		e.value, e.ptr = nil, false
	}
	if size := 8 + len(e.key) + len(e.value) + 4; t.count == 0 || size >= ssBlock || w.off-w.lastIndexed >= ssBlock {
		t.index = append(t.index, ssIndexEntry{key: e.key, offset: w.off})
		w.lastIndexed = w.off
	}
	if t.count == 0 {
		t.minKey = e.key
	}
	t.maxKey = e.key
	t.count++
	h1, _ := bloomHashes(e.key)
	w.hashes = append(w.hashes, h1)
	w.u32(uint32(len(e.key)))
	switch {
	case e.tombstone:
		w.u32(tombstoneMark)
	case e.ptr:
		w.u32(vptrMark)
	default:
		w.u32(uint32(len(e.value)))
	}
	if !e.tombstone {
		t.addBytes(e)
	}
	w.w.WriteString(e.key)
	w.w.Write(e.value)
	w.off += uint64(len(e.key) + len(e.value))
	w.u32(crc32.Update(crcString(e.key), crc32.IEEETable, e.value))
}

// abort drops a table that will not be finished.
func (w *ssWriter) abort() {
	w.t.f.Close()
	os.Remove(w.t.path + ".tmp")
}

// finish writes the bloom filter, index and footer, makes the file durable
// under its name (the caller fsyncs the directory) and returns it open.
func (w *ssWriter) finish() (_ *sstable, err error) {
	defer func() {
		if err != nil {
			w.abort()
		}
	}()
	t := w.t
	t.dataEnd = w.off
	t.nbits = uint32(t.count*bloomBitsPer + 64)
	t.bloom = make([]uint64, (t.nbits+63)/64)
	for _, h1 := range w.hashes {
		bloomSetHashes(t.bloom, t.nbits, h1, bloomSecond(h1))
	}
	bloomOff := w.off
	w.u32(t.nbits)
	for _, word := range t.bloom {
		w.u64(word)
	}
	indexOff := w.off
	w.u32(uint32(len(t.index)))
	for _, ie := range t.index {
		w.u32(uint32(len(ie.key)))
		w.w.WriteString(ie.key)
		w.off += uint64(len(ie.key))
		w.u64(ie.offset)
	}
	w.u64(bloomOff)
	w.u64(indexOff)
	w.u32(ssMagic)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:], ssMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(t.count))
	if _, err := t.f.WriteAt(hdr[:], 0); err != nil {
		return nil, err
	}
	if err := w.w.Flush(); err != nil {
		return nil, err
	}
	if err := t.f.Sync(); err != nil {
		return nil, err
	}
	if err := os.Rename(t.path+".tmp", t.path); err != nil {
		return nil, err
	}
	return t, nil
}

// openSSTable memoizes the bloom filter and sparse index from an existing
// table file. Every length and offset read from the file is bounded by the
// bytes left in its region before anything is sized by it.
func openSSTable(path string) (_ *sstable, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := uint64(st.Size())
	if size < 8+4+4+20 {
		return nil, fmt.Errorf("kvstore: sstable %s too small", path)
	}
	var hdr [8]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(hdr[:]) != ssMagic {
		return nil, fmt.Errorf("kvstore: sstable %s bad header magic", path)
	}
	var footer [20]byte
	if _, err := f.ReadAt(footer[:], int64(size-20)); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(footer[16:]) != ssMagic {
		return nil, fmt.Errorf("kvstore: sstable %s bad footer magic", path)
	}
	bloomOff := binary.LittleEndian.Uint64(footer[0:])
	indexOff := binary.LittleEndian.Uint64(footer[8:])
	if bloomOff < 8 || bloomOff > indexOff || indexOff-bloomOff < 4 || indexOff > size-20-4 {
		return nil, fmt.Errorf("kvstore: sstable %s footer offsets (bloom %d, index %d) outside its %d bytes", path, bloomOff, indexOff, size)
	}

	meta := make([]byte, size-20-bloomOff)
	if _, err := f.ReadAt(meta, int64(bloomOff)); err != nil {
		return nil, err
	}
	bloomMeta, idxMeta := meta[4:indexOff-bloomOff], meta[indexOff-bloomOff:]
	nbits := binary.LittleEndian.Uint32(meta)
	words := (uint64(nbits) + 63) / 64
	if nbits == 0 || words > uint64(len(bloomMeta)/8) {
		return nil, fmt.Errorf("kvstore: sstable %s truncated bloom", path)
	}
	bloom := make([]uint64, words)
	for i := range bloom {
		bloom[i] = binary.LittleEndian.Uint64(bloomMeta[8*i:])
	}
	nIdx := int(binary.LittleEndian.Uint32(idxMeta))
	idxMeta = idxMeta[4:]
	if nIdx > len(idxMeta)/12 {
		return nil, fmt.Errorf("kvstore: sstable %s truncated index", path)
	}
	index := make([]ssIndexEntry, 0, nIdx)
	for prev := uint64(0); len(index) < nIdx; {
		if len(idxMeta) < 4 {
			return nil, fmt.Errorf("kvstore: sstable %s truncated index entry", path)
		}
		kl := uint64(binary.LittleEndian.Uint32(idxMeta))
		if uint64(len(idxMeta)) < 4+kl+8 {
			return nil, fmt.Errorf("kvstore: sstable %s truncated index key", path)
		}
		offv := binary.LittleEndian.Uint64(idxMeta[4+kl:])
		if offv < 8 || offv <= prev || offv >= bloomOff {
			return nil, fmt.Errorf("kvstore: sstable %s index offset %d out of order or outside the data region", path, offv)
		}
		index = append(index, ssIndexEntry{key: string(idxMeta[4 : 4+kl]), offset: offv})
		idxMeta, prev = idxMeta[4+kl+8:], offv
	}

	t := &sstable{
		path: path, f: f,
		count: int(binary.LittleEndian.Uint32(hdr[4:])),
		bloom: bloom, nbits: nbits, index: index, dataEnd: bloomOff,
	}
	// Recover min/max/live-bytes with one sequential pass, which also
	// CRC-checks the whole data region.
	n := 0
	err = t.iterate(8, func(e ssEntry) bool {
		if n == 0 {
			t.minKey = e.key
		}
		n++
		t.maxKey = e.key
		if !e.tombstone {
			t.addBytes(e)
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if n != t.count {
		return nil, fmt.Errorf("kvstore: sstable %s holds %d entries, its header says %d", path, n, t.count)
	}
	return t, nil
}

func (t *sstable) close() error { return t.f.Close() }

// addBytes accounts a live entry's payload.
func (t *sstable) addBytes(e ssEntry) {
	n := e.size()
	t.bytes += n
	if e.ptr {
		t.refBytes += n
		t.logs = max(t.logs, int(decodeVptr(e.value).log)+1)
	}
}

// errAt names the file and the data-region offset an error was met at.
func (t *sstable) errAt(off uint64, err error) error {
	return fmt.Errorf("kvstore: sstable %s offset %d: %w", t.path, off, err)
}

func (t *sstable) readAt(b []byte, off uint64) error {
	if _, err := t.f.ReadAt(b, int64(off)); err != nil {
		return t.errAt(off, err)
	}
	return nil
}

var (
	errShortHeader = errors.New("corrupt: short entry header")
	errOverrun     = errors.New("corrupt: entry runs past the end of its region")
)

// entryHeader decodes an entry's 8-byte header; size is the whole encoded
// entry, header and CRC included.
func entryHeader(b []byte) (kl, vl, size uint64, tomb, ptr bool) {
	kl, vl = uint64(binary.LittleEndian.Uint32(b)), uint64(binary.LittleEndian.Uint32(b[4:]))
	switch vl {
	case tombstoneMark:
		vl, tomb = 0, true
	case vptrMark:
		vl, ptr = vptrSize, true
	}
	return kl, vl, 8 + kl + vl + 4, tomb, ptr
}

// seek returns the span [off, end) of the data region that holds key if the
// table does: from the greatest indexed key ≤ key to the next indexed one.
func (t *sstable) seek(key string) (off, end uint64) {
	i := sort.Search(len(t.index), func(i int) bool { return t.index[i].key > key })
	off, end = 8, t.dataEnd
	if i > 0 {
		off = t.index[i-1].offset
	}
	if i < len(t.index) {
		end = t.index[i].offset
	}
	return off, end
}

// get returns key's entry and whether the table holds one. It preads one
// ssBlock window at the indexed offset and walks the entry headers in it
// (reading again only where the span outruns the window), comparing
// same-length keys in place; on the match it reads exactly the value and
// its CRC, which for a vptr entry are in the window already.
func (t *sstable) get(key string) (ssEntry, bool, error) {
	if t.count == 0 || key < t.minKey || key > t.maxKey || !bloomMayContain(t.bloom, t.nbits, key) {
		return ssEntry{}, false, nil
	}
	pos, end := t.seek(key)
	var win [ssBlock]byte
	var have []byte // file bytes [at, at+len(have))
	var at uint64
	// Each step wants a header and, to compare in place, a key of the
	// sought length; a key longer than the window is read on its own.
	need := min(uint64(8+len(key)), ssBlock)
	for pos < end {
		if winEnd := at + uint64(len(have)); pos+need > winEnd && winEnd < t.dataEnd {
			have, at = win[:min(ssBlock, t.dataEnd-pos)], pos
			if err := t.readAt(have, pos); err != nil {
				return ssEntry{}, false, err
			}
		}
		b := have[pos-at:]
		if len(b) < 8 {
			return ssEntry{}, false, t.errAt(pos, errShortHeader)
		}
		kl, vl, size, tomb, ptr := entryHeader(b)
		if size > end-pos {
			return ssEntry{}, false, t.errAt(pos, errOverrun)
		}
		if kl != uint64(len(key)) {
			pos += size
			continue
		}
		kb := b[8:]
		if uint64(len(kb)) >= kl {
			kb = kb[:kl]
		} else {
			kb = make([]byte, kl)
			if err := t.readAt(kb, pos+8); err != nil {
				return ssEntry{}, false, err
			}
		}
		if string(kb) != key {
			pos += size
			continue
		}
		// Exactly vl bytes: room for the CRC too would push a 64 KiB chunk
		// into the next allocator size class. The CRC goes into the window,
		// which is free once the key has matched.
		val, sum := make([]byte, vl), win[:4]
		if uint64(len(b)) >= size {
			copy(val, b[8+kl:])
			sum = b[8+kl+vl:]
		} else if err := t.readAt(val, pos+8+kl); err != nil {
			return ssEntry{}, false, err
		} else if err := t.readAt(sum, pos+8+kl+vl); err != nil {
			return ssEntry{}, false, err
		}
		if crc32.Update(crcString(key), crc32.IEEETable, val) != binary.LittleEndian.Uint32(sum) {
			return ssEntry{}, false, t.errAt(pos, fmt.Errorf("corrupt: entry %q crc mismatch", key))
		}
		return ssEntry{key: key, value: val, tombstone: tomb, ptr: ptr}, true, nil
	}
	return ssEntry{}, false, nil
}

// ssCursor walks the data region from an offset in key order, CRC-checking
// every entry it returns. With reuse set, an entry's value lives in one
// buffer that the next call overwrites.
type ssCursor struct {
	t     *sstable
	r     *bufio.Reader
	pos   uint64
	buf   []byte
	reuse bool
}

// cursor starts at offset from: 8, or an off that seek returned.
func (t *sstable) cursor(from uint64, reuse bool) *ssCursor {
	span := t.dataEnd - from
	r := bufio.NewReaderSize(io.NewSectionReader(t.f, int64(from), int64(span)), int(min(span, 1<<20)))
	return &ssCursor{t: t, r: r, pos: from, reuse: reuse}
}

// next returns the next entry, or ok false at the end of the data region.
func (c *ssCursor) next() (e ssEntry, ok bool, err error) {
	t, pos := c.t, c.pos
	if pos >= t.dataEnd {
		return e, false, nil
	}
	var hdr [8]byte
	left := t.dataEnd - pos
	if left < uint64(len(hdr)) {
		return e, false, t.errAt(pos, errShortHeader)
	}
	if _, err := io.ReadFull(c.r, hdr[:]); err != nil {
		return e, false, t.errAt(pos, err)
	}
	kl, vl, size, tomb, ptr := entryHeader(hdr[:])
	if size > left {
		return e, false, t.errAt(pos, errOverrun)
	}
	buf := c.buf
	if n := int(kl + vl + 4); !c.reuse || cap(buf) < n {
		buf = make([]byte, n)
		c.buf = buf
	} else {
		buf = buf[:n]
	}
	if _, err := io.ReadFull(c.r, buf); err != nil {
		return e, false, t.errAt(pos, err)
	}
	e = ssEntry{key: string(buf[:kl]), value: buf[kl : kl+vl], tombstone: tomb, ptr: ptr}
	if crc32.ChecksumIEEE(buf[:kl+vl]) != binary.LittleEndian.Uint32(buf[kl+vl:]) {
		return e, false, t.errAt(pos, fmt.Errorf("corrupt: entry %q crc mismatch", e.key))
	}
	c.pos += size
	return e, true, nil
}

// iterate streams the entries from offset from to the end of the data region
// to fn, which may keep what it is given, until fn returns false.
func (t *sstable) iterate(from uint64, fn func(ssEntry) bool) error {
	for c := t.cursor(from, false); ; {
		e, ok, err := c.next()
		if err != nil || !ok || !fn(e) {
			return err
		}
	}
}

// crcString is crc32.ChecksumIEEE([]byte(s)) without the conversion, which
// allocates because crc32 dispatches through a function variable.
func crcString(s string) uint32 {
	crc := ^uint32(0)
	for i := 0; i < len(s); i++ {
		crc = crc32.IEEETable[byte(crc)^s[i]] ^ crc>>8
	}
	return ^crc
}

// --- bloom filter ----------------------------------------------------------

// bloomHashes is FNV-1a 64 of key and of key followed by the byte 0x9d,
// inlined so that a probe allocates nothing; bit-identical to hash/fnv.
func bloomHashes(key string) (uint64, uint64) {
	h := uint64(fnvOffset64)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * fnvPrime64
	}
	return h, bloomSecond(h)
}

const fnvOffset64, fnvPrime64 = 14695981039346656037, 1099511628211

// bloomSecond extends the first hash by the byte 0x9d.
func bloomSecond(h1 uint64) uint64 { return (h1 ^ 0x9d) * fnvPrime64 }

func bloomSet(bits []uint64, nbits uint32, key string) {
	h1, h2 := bloomHashes(key)
	bloomSetHashes(bits, nbits, h1, h2)
}

func bloomSetHashes(bits []uint64, nbits uint32, h1, h2 uint64) {
	for k := uint64(0); k < 7; k++ {
		bit := (h1 + k*h2) % uint64(nbits)
		bits[bit/64] |= 1 << (bit % 64)
	}
}

func bloomMayContain(bits []uint64, nbits uint32, key string) bool {
	h1, h2 := bloomHashes(key)
	for k := uint64(0); k < 7; k++ {
		bit := (h1 + k*h2) % uint64(nbits)
		if bits[bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
	}
	return true
}
