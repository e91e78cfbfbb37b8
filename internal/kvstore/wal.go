package kvstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// wal is the write-ahead log that makes one memtable's contents durable
// until that memtable is an SSTable; the tables then point into it for its
// large values, and it is kept as a value log (see vlog.go).
//
// Record layout: u8 op (1=put, 2=delete) | u32 keyLen | u32 valLen |
// key | value | u32 crc. Torn tails (partial final record or bad crc) are
// tolerated during replay, matching standard LSM recovery; a bad crc before
// a valid record is reported (see replayWAL).
//
// The log has its own mutex, so that making it durable never needs the
// store's lock: sync flushes the buffer under mu and fsyncs outside it, and
// callers that arrive while an fsync is in flight wait for it and share the
// next one (synced is the watermark they wait on).
type wal struct {
	id   uint32 // the number the file is named by
	path string
	f    *os.File

	mu      sync.Mutex
	wake    *sync.Cond // on mu: an fsync finished, or the log was closed
	w       *bufio.Writer
	len     int64 // bytes appended
	synced  int64 // bytes known durable
	syncing bool  // an fsync is running outside mu
	fresh   bool  // the file's directory entry is not known durable yet
	err     error // sticky: after a failed flush or fsync nothing more is promised
}

const (
	walOpPut    = 1
	walOpDelete = 2
	walHeader   = 9 // u8 op | u32 keyLen | u32 valLen
)

// createWAL creates the log file at path, which must not exist: a log left
// by an earlier process is replayed and removed, never appended to, so
// nothing is ever written behind a torn tail.
func createWAL(path string) (*wal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	l := &wal{path: path, f: f, w: bufio.NewWriterSize(f, 256<<10), fresh: true}
	l.wake = sync.NewCond(&l.mu)
	return l, nil
}

// append writes one record and returns the offset its value starts at.
func (l *wal) append(op byte, key string, value []byte) (int64, error) {
	var hdr [walHeader]byte
	hdr[0] = op
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(key)))
	binary.LittleEndian.PutUint32(hdr[5:], uint32(len(value)))
	crc := crc32.ChecksumIEEE(hdr[:])
	crc = crc32.Update(crc, crc32.IEEETable, []byte(key))
	crc = crc32.Update(crc, crc32.IEEETable, value)
	var crcb [4]byte
	binary.LittleEndian.PutUint32(crcb[:], crc)

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, l.err
	}
	if _, err := l.w.Write(hdr[:]); err != nil {
		return 0, err
	}
	if _, err := l.w.WriteString(key); err != nil {
		return 0, err
	}
	if _, err := l.w.Write(value); err != nil {
		return 0, err
	}
	if _, err := l.w.Write(crcb[:]); err != nil {
		return 0, err
	}
	at := l.len + walHeader + int64(len(key))
	l.len = at + int64(len(value)) + 4
	return at, nil
}

// sync returns once every record appended before the call is durable. One
// caller at a time is the leader: it flushes the buffer, then fsyncs with mu
// released (appends and other syncers keep going), and advances synced to
// what its flush covered. The first sync of a file also fsyncs the
// directory, so the file's name is durable before anything in it is
// promised. After close everything counts as synced: the log is closed
// only once an SSTable holds its records durably.
func (l *wal) sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for target := l.len; l.synced < target && l.err == nil; {
		if l.syncing {
			l.wake.Wait()
			continue
		}
		if l.err = l.w.Flush(); l.err != nil {
			break
		}
		upto, fresh := l.len, l.fresh
		l.syncing = true
		l.mu.Unlock()
		err := l.f.Sync()
		if err == nil && fresh {
			err = syncDir(filepath.Dir(l.path))
		}
		l.mu.Lock()
		l.syncing = false
		if l.err = err; err == nil {
			l.synced, l.fresh = upto, false
		}
		l.wake.Broadcast()
	}
	return l.err
}

// close flushes the buffer and closes the file, after any fsync in flight.
func (l *wal) close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.syncing {
		l.wake.Wait()
	}
	err := l.w.Flush()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.synced = l.len
	l.wake.Broadcast()
	return err
}

// replayWAL streams records from path, each with the offset its value
// starts at. A clean EOF or a torn tail ends replay without error: the file
// ending inside a record (one that announces more bytes than the file has
// left is never allocated), or a record that fails its checksum. A bad op
// byte is reported as an error.
//
// A record that fails its checksum while a complete, valid record follows it
// also ends replay, and damaged is its offset (-1 otherwise). It is either
// synced data damaged on disk, whose loss must be reported, or unsynced data
// torn by a crash: the buffered writer hands a sync's records to the kernel
// in several writes, whose pages may reach the disk in any order, so a crash
// can keep a later record's page and lose an earlier one's. The log records
// no durable watermark to tell the two apart, so replay keeps what precedes
// the damage, as for any torn tail, and leaves the reporting to the caller.
// A damaged length field moves the next record's start, so such damage reads
// as a plain torn tail.
func replayWAL(path string, fn func(op byte, key string, value []byte, at int64)) (damaged int64, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return -1, nil
	}
	if err != nil {
		return -1, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return -1, err
	}
	size := st.Size()
	r := bufio.NewReaderSize(f, int(min(size, 1<<20)))
	for pos := int64(0); ; {
		hdr, body, err := readWALRecord(r, size-pos)
		switch {
		case err == errWALTorn:
			return -1, nil
		case err == errWALChecksum:
			next := pos + walHeader + int64(len(body))
			if _, _, err := readWALRecord(io.NewSectionReader(f, next, size-next), size-next); err == nil {
				return pos, nil
			}
			return -1, nil
		case err != nil:
			return -1, fmt.Errorf("kvstore: wal %s: offset %d: %w", path, pos, err)
		}
		kl := int(binary.LittleEndian.Uint32(hdr[1:]))
		fn(hdr[0], string(body[:kl]), body[kl:len(body)-4], pos+walHeader+int64(kl))
		pos += walHeader + int64(len(body))
	}
}

var (
	errWALTorn     = errors.New("the file ends inside the record")
	errWALChecksum = errors.New("checksum mismatch")
)

// readWALRecord reads the record at r, which has left bytes of the file
// before its end, returning its header and body (key | value | crc). The
// body is allocated only once the header shows it fits in the file.
func readWALRecord(r io.Reader, left int64) (hdr [walHeader]byte, body []byte, err error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return hdr, nil, errWALTorn // clean end or torn header
	}
	if op := hdr[0]; op != walOpPut && op != walOpDelete {
		return hdr, nil, fmt.Errorf("bad op byte %d", op)
	}
	kl := int64(binary.LittleEndian.Uint32(hdr[1:]))
	vl := int64(binary.LittleEndian.Uint32(hdr[5:]))
	if kl+vl+4 > left-walHeader {
		return hdr, nil, errWALTorn
	}
	body = make([]byte, kl+vl+4)
	if _, err := io.ReadFull(r, body); err != nil {
		return hdr, nil, errWALTorn
	}
	crc := crc32.ChecksumIEEE(hdr[:])
	crc = crc32.Update(crc, crc32.IEEETable, body[:kl+vl])
	if crc != binary.LittleEndian.Uint32(body[kl+vl:]) {
		return hdr, body, errWALChecksum
	}
	return hdr, body, nil
}
