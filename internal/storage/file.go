package storage

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"unicode"
)

// File layout: <dir>/snapshot holds the full state as of the last
// compaction; <dir>/log holds every record appended since. Both use the
// same record encoding (see appendRecord). Opening replays snapshot then
// log; compaction rewrites the snapshot via write-temp-then-rename and
// truncates the log, so a crash at any point leaves a readable store:
//
//   - crash mid-append: the torn final log record is detected on reopen
//     (short read / missing terminator) and discarded;
//   - crash mid-compaction: the temp snapshot is ignored, the old
//     snapshot + full log still replay;
//   - crash between rename and log truncation: replaying the stale log
//     over the new snapshot is idempotent (it rewrites the same values).
//
// A compaction rewrites the whole state, so it waits until the log holds
// at least as many bytes as the snapshot it replaces: the log stays at
// most max(compactAt, snapshot size) plus one record, rewriting costs
// O(1) per logged byte, and the directory holds about twice the state.
const (
	snapshotFile = "snapshot"
	logFile      = "log"
	snapshotTmp  = "snapshot.tmp"
	lockFile     = "lock"
)

// DefaultCompactBytes is the log size below which no compaction runs.
const DefaultCompactBytes = 1 << 20

// FileOption configures OpenFile.
type FileOption func(*File)

// WithCompactBytes sets the floor (in bytes) of the log size past which
// a Put or Delete triggers snapshot compaction; the threshold is the
// larger of n and the size of the last snapshot. Non-positive disables
// automatic compaction (Close still compacts).
func WithCompactBytes(n int64) FileOption {
	return func(f *File) { f.compactAt = n }
}

// File is the durable Store backend: an append-only record log with
// periodic snapshot compaction, indexed by an in-memory key directory.
// The directory maps each key to where its value's bytes are — the
// snapshot or the log, an offset and a length — and Get and Scan read
// values from those files with pread, so values live in the kernel's
// reclaimable page cache, not in the heap (nor in the process's resident
// set, where mapping the files would put them). A key costs its string
// plus one map slot of a 16-byte string header and a 16-byte location:
// about 100 bytes for a session key. Every mutation is appended to the
// log before the directory points at it, so the on-disk state is never
// behind the directory.
type File struct {
	dir       string
	compactAt int64

	mu   sync.Mutex
	data map[string]loc
	gen  uint64
	// snap is a read handle on the snapshot the directory points into;
	// nil while there is none.
	snap *os.File
	log  *os.File
	lock *os.File
	// logBytes is the log's length: every record is written at it, so it
	// never drifts from the offsets the directory records.
	logBytes int64
	// snapshotBytes is the size of the snapshot file, which the log must
	// outgrow (as well as compactAt) before it is compacted.
	snapshotBytes int64
	closed        bool
	// enc is the buffer records are encoded into on their way to the log
	// or a snapshot, reused from one record to the next; f.mu guards it.
	// Grown past encKeep by a large record, it is let go after use.
	enc []byte
}

// loc is where a stored value's n bytes are: at off in the log, or in
// the snapshot.
type loc struct {
	off   int64
	n     int32
	inLog bool
}

// encKeep is the largest encode buffer a File keeps between records.
const encKeep = 64 << 10

// OpenFile opens (creating if needed) a file store rooted at dir and
// replays its snapshot and log into the key directory.
func OpenFile(dir string, opts ...FileOption) (*File, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: opening file store: %w", err)
	}
	f := &File{
		dir:       dir,
		compactAt: DefaultCompactBytes,
		data:      map[string]loc{},
	}
	for _, opt := range opts {
		opt(f)
	}
	if err := f.acquireLock(); err != nil {
		return nil, err
	}
	if err := f.loadSnapshot(); err != nil {
		f.releaseLock()
		return nil, err
	}
	if err := f.replayLog(); err != nil {
		f.closeSnapshot()
		f.releaseLock()
		return nil, err
	}
	return f, nil
}

// acquireLock takes an exclusive advisory lock on <dir>/lock. The log
// format has exactly one writer by construction (each process holds its
// own file offset and in-memory map), so a second opener would corrupt
// the store; multi-process sharing happens by sequential hand-off of the
// directory, never concurrently.
func (f *File) acquireLock() error {
	lock, err := os.OpenFile(filepath.Join(f.dir, lockFile), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("storage: opening lock file: %w", err)
	}
	if err := flockExclusive(lock); err != nil {
		lock.Close()
		return fmt.Errorf("storage: %s is in use by another process: %w", f.dir, err)
	}
	f.lock = lock
	return nil
}

// releaseLock drops the advisory lock (closing the fd releases flock).
func (f *File) releaseLock() {
	if f.lock != nil {
		f.lock.Close()
		f.lock = nil
	}
}

// closeSnapshot closes the snapshot read handle, if any.
func (f *File) closeSnapshot() {
	if f.snap != nil {
		f.snap.Close()
		f.snap = nil
	}
}

// loadSnapshot replays the snapshot file, if any, and keeps it open for
// reads. A snapshot is written atomically (temp + rename), so unlike the
// log it must parse cleanly.
func (f *File) loadSnapshot() error {
	file, err := os.Open(filepath.Join(f.dir, snapshotFile))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("storage: opening snapshot: %w", err)
	}
	f.snapshotBytes, err = f.replay(file, false, false)
	if err != nil {
		file.Close()
		return fmt.Errorf("storage: snapshot corrupt: %w", err)
	}
	f.snap = file
	return nil
}

// replayLog replays the append-only log over the snapshot state and
// leaves the log file open for appending. A torn final record — the
// signature of a crash mid-append — is truncated away.
func (f *File) replayLog() error {
	path := filepath.Join(f.dir, logFile)
	file, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("storage: opening log: %w", err)
	}
	good, err := f.replay(file, true, true)
	if err != nil {
		file.Close()
		return fmt.Errorf("storage: log corrupt: %w", err)
	}
	if err := file.Truncate(good); err != nil {
		file.Close()
		return fmt.Errorf("storage: truncating torn log tail: %w", err)
	}
	f.log = file
	f.logBytes = good
	return nil
}

// replay indexes the records in file (the log when inLog, else the
// snapshot) into the key directory and returns the byte offset of the
// last complete record. With tolerateTorn, a record cut short by EOF
// stops the replay cleanly (the offset excludes it); otherwise it is an
// error. Malformed records that are not torn tails are errors either way.
func (f *File) replay(file *os.File, inLog, tolerateTorn bool) (int64, error) {
	info, err := file.Stat()
	if err != nil {
		return 0, err
	}
	// A 64 KiB buffer reads a large snapshot in a sixteenth of the
	// syscalls the default 4 KiB one takes.
	r := bufio.NewReaderSize(file, 64<<10)
	var offset int64
	for {
		rec, n, err := readRecord(r, info.Size()-offset)
		if err == io.EOF {
			return offset, nil
		}
		if err != nil {
			if tolerateTorn && isTorn(err) {
				return offset, nil
			}
			return offset, err
		}
		offset += n
		switch rec.op {
		case opPut:
			f.data[rec.key] = valueLoc(offset, rec.vlen, inLog)
		case opDelete:
			delete(f.data, rec.key)
		case opGen:
			f.gen = rec.gen
		}
	}
}

// valueLoc locates the vlen-byte value of the put record that ends at
// end: its last bytes before the terminating newline.
func valueLoc(end int64, vlen int, inLog bool) loc {
	return loc{off: end - int64(vlen) - 1, n: int32(vlen), inLog: inLog}
}

// readAt reads the value at l into v, which is l.n bytes long. f.mu
// must be held: a compaction or log truncation moves values.
func (f *File) readAt(v []byte, l loc) error {
	file := f.snap
	if l.inLog {
		file = f.log
	}
	if _, err := file.ReadAt(v, l.off); err != nil {
		return fmt.Errorf("storage: reading value: %w", err)
	}
	return nil
}

// read returns a fresh copy of the value at l. f.mu must be held.
func (f *File) read(l loc) ([]byte, error) {
	v := make([]byte, l.n)
	if err := f.readAt(v, l); err != nil {
		return nil, err
	}
	return v, nil
}

// Record ops.
const (
	opPut    = 'p'
	opDelete = 'd'
	opGen    = 'g'
)

// maxRecordLen bounds a record's declared key or value length (64 MiB).
// Headers are parsed from disk before allocation, so an unbounded length
// from a corrupt header would turn into a huge allocation (or an
// overflowed negative make) instead of the clean "log corrupt" error
// recovery is designed to give.
const maxRecordLen = 64 << 20

// record is one log/snapshot entry. A record to encode carries its
// value; a decoded one carries only the value's length, vlen, since
// replay leaves values on disk.
type record struct {
	op    byte
	key   string
	value []byte
	vlen  int
	gen   uint64
}

// tornError marks a record cut short by EOF — a crash mid-append.
type tornError struct{ cause error }

func (e *tornError) Error() string { return fmt.Sprintf("torn record: %v", e.cause) }

func isTorn(err error) bool {
	_, ok := err.(*tornError)
	return ok
}

// appendRecord encodes one record. The format is length-prefixed and
// newline-terminated so it is binary-safe for values yet greppable for
// humans:
//
//	p <keylen> <vallen>\n<key><value>\n
//	d <keylen>\n<key>\n
//	g <generation>\n
func appendRecord(buf []byte, rec record) []byte {
	switch rec.op {
	case opPut:
		buf = append(buf, "p "...)
		buf = strconv.AppendInt(buf, int64(len(rec.key)), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(len(rec.value)), 10)
		buf = append(buf, '\n')
		buf = append(buf, rec.key...)
		buf = append(buf, rec.value...)
		buf = append(buf, '\n')
	case opDelete:
		buf = append(buf, "d "...)
		buf = strconv.AppendInt(buf, int64(len(rec.key)), 10)
		buf = append(buf, '\n')
		buf = append(buf, rec.key...)
		buf = append(buf, '\n')
	case opGen:
		buf = append(buf, "g "...)
		buf = strconv.AppendUint(buf, rec.gen, 10)
		buf = append(buf, '\n')
	}
	return buf
}

// encode encodes rec into f's encode buffer and returns the bytes,
// valid until the next call or release. f.mu must be held.
func (f *File) encode(rec record) []byte {
	f.enc = appendRecord(f.enc[:0], rec)
	return f.enc
}

// releaseEnc lets go of an encode buffer a large record grew past
// encKeep. f.mu must be held.
func (f *File) releaseEnc() {
	if cap(f.enc) > encKeep {
		f.enc = nil
	}
}

// readRecord decodes the next record from r, which holds left more
// bytes, returning it and the number of bytes it occupied. The header is
// parsed where r buffers it and the value is skipped, so a put costs one
// allocation, its key. io.EOF at a record boundary is returned as-is; an
// EOF inside a record comes back as *tornError — before the body is
// read, when the header declares more bytes than are left.
func readRecord(r *bufio.Reader, left int64) (record, int64, error) {
	header, err := readHeader(r)
	if err == io.EOF && len(header) == 0 {
		return record{}, 0, io.EOF
	}
	if err != nil {
		return record{}, 0, &tornError{cause: err}
	}
	n := int64(len(header))
	var buf [4][]byte
	fields := headerFields(header[:len(header)-1], buf[:0])
	if len(fields) == 0 {
		return record{}, 0, fmt.Errorf("storage: empty record header")
	}
	rec := record{op: fields[0][0]}
	switch {
	case string(fields[0]) == "p" && len(fields) == 3:
		klen, err1 := strconv.Atoi(string(fields[1]))
		vlen, err2 := strconv.Atoi(string(fields[2]))
		if err1 != nil || err2 != nil ||
			klen < 0 || vlen < 0 || klen > maxRecordLen || vlen > maxRecordLen {
			return record{}, 0, fmt.Errorf("storage: bad put header %q", header)
		}
		if int64(klen+vlen+1) > left-n {
			return record{}, 0, &tornError{cause: io.ErrUnexpectedEOF}
		}
		if rec.key, err = readKey(r, klen); err == nil {
			_, err = r.Discard(vlen)
		}
		if err != nil {
			return record{}, 0, &tornError{cause: err}
		}
		if err := readTerminator(r, "put"); err != nil {
			return record{}, 0, err
		}
		rec.vlen = vlen
		return rec, n + int64(klen+vlen+1), nil
	case string(fields[0]) == "d" && len(fields) == 2:
		klen, err := strconv.Atoi(string(fields[1]))
		if err != nil || klen < 0 || klen > maxRecordLen {
			return record{}, 0, fmt.Errorf("storage: bad delete header %q", header)
		}
		if int64(klen+1) > left-n {
			return record{}, 0, &tornError{cause: io.ErrUnexpectedEOF}
		}
		if rec.key, err = readKey(r, klen); err != nil {
			return record{}, 0, &tornError{cause: err}
		}
		if err := readTerminator(r, "delete"); err != nil {
			return record{}, 0, err
		}
		return rec, n + int64(klen+1), nil
	case string(fields[0]) == "g" && len(fields) == 2:
		gen, err := strconv.ParseUint(string(fields[1]), 10, 64)
		if err != nil {
			return record{}, 0, fmt.Errorf("storage: bad generation header %q", header)
		}
		rec.gen = gen
		return rec, n, nil
	default:
		return record{}, 0, fmt.Errorf("storage: unknown record header %q", header)
	}
}

// readHeader reads a record header through its newline. The line is r's
// own buffer, valid until the next read; a line longer than the buffer
// (never a header this package writes) is copied out whole.
func readHeader(r *bufio.Reader) ([]byte, error) {
	line, err := r.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		return line, err
	}
	head := bytes.Clone(line)
	rest, err := r.ReadBytes('\n')
	return append(head, rest...), err
}

// headerFields appends the fields of a header line, split around runs
// of white space exactly as strings.Fields splits, to fields.
func headerFields(line []byte, fields [][]byte) [][]byte {
	for {
		i := bytes.IndexFunc(line, isNotSpace)
		if i < 0 {
			return fields
		}
		line = line[i:]
		j := bytes.IndexFunc(line, unicode.IsSpace)
		if j < 0 {
			return append(fields, line)
		}
		fields = append(fields, line[:j])
		line = line[j:]
	}
}

func isNotSpace(r rune) bool { return !unicode.IsSpace(r) }

// readKey reads a klen-byte key from r into a string.
func readKey(r *bufio.Reader, klen int) (string, error) {
	if klen > r.Size() {
		b := make([]byte, klen)
		_, err := io.ReadFull(r, b)
		return string(b), err
	}
	b, err := r.Peek(klen)
	if err != nil {
		return "", err
	}
	key := string(b)
	_, err = r.Discard(klen)
	return key, err
}

// readTerminator reads the newline that ends a record of the given kind.
func readTerminator(r *bufio.Reader, kind string) error {
	c, err := r.ReadByte()
	if err != nil {
		return &tornError{cause: err}
	}
	if c != '\n' {
		return fmt.Errorf("storage: unterminated %s record", kind)
	}
	return nil
}

// appendLocked writes one record to the log and points the key
// directory at it, compacting when the log has outgrown both compactAt
// and the snapshot. f.mu must be held.
func (f *File) appendLocked(rec record) error {
	if f.closed {
		return ErrClosed
	}
	if len(rec.key) > maxRecordLen || len(rec.value) > maxRecordLen {
		return fmt.Errorf("storage: record exceeds %d-byte limit", maxRecordLen)
	}
	buf := f.encode(rec)
	defer f.releaseEnc()
	if _, err := f.log.WriteAt(buf, f.logBytes); err != nil {
		// Roll the log back to the last record boundary. The next record
		// is written at logBytes either way; without this a short write
		// longer than that record would outlast it and turn into a
		// non-torn parse error that bricks the store on reopen.
		_ = f.log.Truncate(f.logBytes)
		return fmt.Errorf("storage: appending to log: %w", err)
	}
	f.logBytes += int64(len(buf))
	switch rec.op {
	case opPut:
		f.data[rec.key] = valueLoc(f.logBytes, len(rec.value), true)
	case opDelete:
		delete(f.data, rec.key)
	case opGen:
		f.gen = rec.gen
	}
	if f.compactAt > 0 && f.logBytes > max(f.compactAt, f.snapshotBytes) {
		return f.compactLocked()
	}
	return nil
}

// compactLocked rewrites the full state as a fresh snapshot (temp file,
// fsync, rename), points the key directory at it and truncates the log.
// f.mu must be held.
func (f *File) compactLocked() error {
	tmpPath := filepath.Join(f.dir, snapshotTmp)
	tmp, err := os.Create(tmpPath)
	if err != nil {
		return fmt.Errorf("storage: compacting: %w", err)
	}
	keys, offs, size, err := f.writeSnapshot(tmp)
	if err == nil {
		err = tmp.Sync()
	}
	if err != nil {
		tmp.Close()
		return fmt.Errorf("storage: compacting: %w", err)
	}
	if err := os.Rename(tmpPath, filepath.Join(f.dir, snapshotFile)); err != nil {
		tmp.Close()
		return fmt.Errorf("storage: publishing snapshot: %w", err)
	}
	// The snapshot now carries everything: read it through the handle it
	// was written with (Sync has reported any write error a Close could),
	// and only now repoint the directory at it, so a compaction that
	// fails earlier leaves every location valid.
	f.closeSnapshot()
	f.snap = tmp
	for i, k := range keys {
		f.data[k] = loc{off: offs[i], n: f.data[k].n}
	}
	f.snapshotBytes = size
	// Restart the log. A crash before the truncate lands is harmless:
	// replaying the old log over the new snapshot rewrites the same
	// values.
	if err := f.log.Truncate(0); err != nil {
		return fmt.Errorf("storage: truncating log: %w", err)
	}
	f.logBytes = 0
	return nil
}

// writeSnapshot writes the generation and every value, in sorted key
// order, to file, reading each value into one reused buffer. It returns
// the sorted keys, the offset in file of each one's value, and the bytes
// written. f.mu must be held.
func (f *File) writeSnapshot(file *os.File) (keys []string, offs []int64, size int64, err error) {
	w := bufio.NewWriter(file)
	keys = make([]string, 0, len(f.data))
	for k := range f.data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	offs = make([]int64, len(keys))
	defer f.releaseEnc()
	buf := f.encode(record{op: opGen, gen: f.gen})
	size = int64(len(buf))
	if _, err := w.Write(buf); err != nil {
		return nil, nil, 0, err
	}
	var val []byte
	for i, k := range keys {
		l := f.data[k]
		val = slices.Grow(val[:0], int(l.n))[:l.n]
		if err := f.readAt(val, l); err != nil {
			return nil, nil, 0, err
		}
		buf = f.encode(record{op: opPut, key: k, value: val})
		size += int64(len(buf))
		offs[i] = valueLoc(size, len(val), false).off
		if _, err := w.Write(buf); err != nil {
			return nil, nil, 0, err
		}
	}
	return keys, offs, size, w.Flush()
}

// Get implements Store.
func (f *File) Get(key string) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, ErrClosed
	}
	l, ok := f.data[key]
	if !ok {
		return nil, ErrNotFound
	}
	return f.read(l)
}

// Put implements Store.
func (f *File) Put(key string, value []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.appendLocked(record{op: opPut, key: key, value: value})
}

// Delete implements Store. Deletes of absent keys are not logged.
func (f *File) Delete(key string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	if _, ok := f.data[key]; !ok {
		return nil
	}
	return f.appendLocked(record{op: opDelete, key: key})
}

// Scan implements Store.
func (f *File) Scan(prefix string, fn func(key string, value []byte) error) error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return ErrClosed
	}
	matched := make(map[string][]byte)
	for k, l := range f.data {
		if strings.HasPrefix(k, prefix) {
			v, err := f.read(l)
			if err != nil {
				f.mu.Unlock()
				return err
			}
			matched[k] = v
		}
	}
	f.mu.Unlock()
	return scanSorted(matched, fn)
}

// Generation implements Store.
func (f *File) Generation() (uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, ErrClosed
	}
	return f.gen, nil
}

// SetGeneration implements Store.
func (f *File) SetGeneration(gen uint64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.appendLocked(record{op: opGen, gen: gen})
}

// Name implements Store.
func (f *File) Name() string { return "file" }

// Dir returns the directory the store is rooted at.
func (f *File) Dir() string { return f.dir }

// CloseWithoutFlush abandons the store: the log and lock are released
// with no final compaction, leaving the directory exactly as a process
// crash would (which releases the flock the same way, by fd death).
// Crash-recovery tests use this; everything else wants Close.
func (f *File) CloseWithoutFlush() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	err := f.log.Close()
	f.closeSnapshot()
	f.releaseLock()
	f.closed = true
	return err
}

// Compact forces a snapshot compaction (tests and operational tooling;
// normal operation compacts automatically past the byte threshold).
func (f *File) Compact() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	return f.compactLocked()
}

// Close performs the final flush — a last compaction so the whole state
// is in one fsync'd snapshot — and releases the log file. Closing twice
// is not an error.
func (f *File) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	err := f.compactLocked()
	if cerr := f.log.Close(); err == nil {
		err = cerr
	}
	f.closeSnapshot()
	f.releaseLock()
	f.closed = true
	return err
}
