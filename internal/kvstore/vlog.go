package kvstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
)

// Key–value separation (WiscKey, RocksDB BlobDB): a value of vlogMin bytes
// or more stays where its write-ahead log wrote it. When the memtable
// becomes a table, the table holds a vptr to the value, and the log is kept,
// renamed from NNNNNN.wal to NNNNNN.vlog, as a value log. Merges then copy
// pointers, and only the small records (catalog entries, chunk recipes,
// tombstones) are rewritten. A value log is reclaimed by collect once the
// value logs hold more than twice the bytes the tables point at.
const (
	// vlogMin is the smallest value kept in its log rather than inline.
	vlogMin = 4 << 10
	// vptrSize is an encoded vptr: u32 log id | u64 offset | u32 length |
	// u32 CRC-32 of the value.
	vptrSize = 20
	// gcSlackMemtables is how many memtables' worth of value-log bytes
	// beyond twice the referenced bytes are tolerated before a value-log
	// GC starts.
	gcSlackMemtables = 4
)

// vptr locates a value in a value log.
type vptr struct {
	log uint32
	off uint64
	n   uint32
	crc uint32
}

func (p vptr) appendTo(b []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, p.log)
	b = binary.LittleEndian.AppendUint64(b, p.off)
	b = binary.LittleEndian.AppendUint32(b, p.n)
	return binary.LittleEndian.AppendUint32(b, p.crc)
}

// decodeVptr reads a pointer from a vptr entry's vptrSize-byte value.
func decodeVptr(b []byte) vptr {
	return vptr{
		log: binary.LittleEndian.Uint32(b),
		off: binary.LittleEndian.Uint64(b[4:]),
		n:   binary.LittleEndian.Uint32(b[12:]),
		crc: binary.LittleEndian.Uint32(b[16:]),
	}
}

// valueLog is a read handle on a log that tables point into.
type valueLog struct {
	id   uint32
	path string
	f    *os.File
	size int64
	// wal is set while the file is still NNNNNN.wal: a log an earlier
	// process left, replayed into the memtable. It becomes a value log, or
	// goes, when that memtable is a table; until then collect leaves it be.
	wal bool
}

func openValueLog(id uint32, path string) (*valueLog, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &valueLog{id: id, path: path, f: f, size: st.Size()}, nil
}

// read returns the value p locates. The pointer is checked against the
// log's size before anything is allocated, and the value against p's CRC
// before it is served.
func (v *valueLog) read(p vptr) ([]byte, error) {
	if err := v.check(p); err != nil {
		return nil, err
	}
	val := make([]byte, p.n)
	if err := v.readInto(p, val); err != nil {
		return nil, err
	}
	return val, nil
}

// readInto reads the value p locates into dst, which must be exactly p.n
// bytes, with read's checks. After an error dst holds unchecked bytes.
func (v *valueLog) readInto(p vptr, dst []byte) error {
	if err := v.check(p); err != nil {
		return err
	}
	if uint64(len(dst)) != uint64(p.n) {
		return fmt.Errorf("kvstore: value log %s offset %d: value is %d bytes, buffer %d", v.path, p.off, p.n, len(dst))
	}
	if _, err := v.f.ReadAt(dst, int64(p.off)); err != nil {
		return fmt.Errorf("kvstore: value log %s offset %d: %w", v.path, p.off, err)
	}
	if crc32.ChecksumIEEE(dst) != p.crc {
		return fmt.Errorf("kvstore: value log %s offset %d: corrupt: value crc mismatch", v.path, p.off)
	}
	return nil
}

// check refuses a pointer that runs outside the log.
func (v *valueLog) check(p vptr) error {
	if p.off > uint64(v.size) || uint64(p.n) > uint64(v.size)-p.off {
		return fmt.Errorf("kvstore: value log %s: corrupt pointer: %d bytes at %d outside its %d", v.path, p.n, p.off, v.size)
	}
	return nil
}

// largePuts calls fn for every put in the log whose value is vlogMin bytes
// or more, with the offset the value starts at. It reads record headers and
// keys only: the window is one ssBlock, and a large value is stepped over.
// It stops at the first record that does not fit the file, as replay stops
// at a torn tail.
func (v *valueLog) largePuts(fn func(key string, at int64) error) error {
	var win [ssBlock]byte
	var have []byte // file bytes [at, at+len(have))
	var at int64
	window := func(pos, n int64) ([]byte, error) {
		if pos < at || pos+n > at+int64(len(have)) {
			at, have = pos, win[:min(int64(len(win)), v.size-pos)]
			if n > int64(len(have)) {
				have = make([]byte, n)
			}
			if _, err := v.f.ReadAt(have, pos); err != nil {
				return nil, fmt.Errorf("kvstore: value log %s offset %d: %w", v.path, pos, err)
			}
		}
		return have[pos-at : pos-at+n], nil
	}
	for pos := int64(0); pos+walHeader <= v.size; {
		hdr, err := window(pos, walHeader)
		if err != nil {
			return err
		}
		op := hdr[0]
		kl := int64(binary.LittleEndian.Uint32(hdr[1:]))
		vl := int64(binary.LittleEndian.Uint32(hdr[5:]))
		end := pos + walHeader + kl + vl + 4
		if (op != walOpPut && op != walOpDelete) || end > v.size {
			return nil
		}
		if op == walOpPut && vl >= vlogMin {
			key, err := window(pos+walHeader, kl)
			if err != nil {
				return err
			}
			if err := fn(string(key), pos+walHeader+kl); err != nil {
				return err
			}
		}
		pos = end
	}
	return nil
}
