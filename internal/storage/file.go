package storage

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
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
// The store counts its dead bytes: the records in the snapshot and the
// log that the key directory no longer reaches — a put a later put or
// delete of its key replaced, every delete, and every generation stamp
// but the latest. A compaction rewrites only the live records, so it
// waits until the dead bytes pass both compactAt and the live bytes: it
// then rewrites fewer bytes than it drops, which keeps its cost O(1) per
// logged byte, and after every write the directory holds the live bytes
// plus at most max(compactAt, live bytes), about twice the state. A log
// of live records alone, such as a first export into an empty store, is
// never rewritten until Close. Opening recounts the dead bytes while it
// replays, so the compaction point does not move across a reopen.
const (
	snapshotFile = "snapshot"
	logFile      = "log"
	snapshotTmp  = "snapshot.tmp"
	lockFile     = "lock"
)

// DefaultCompactBytes is the count of dead bytes below which no
// compaction runs.
const DefaultCompactBytes = 1 << 20

// FileOption configures OpenFile.
type FileOption func(*File)

// WithCompactBytes sets the floor (in bytes) of the dead bytes past which
// a Put, Delete or SetGeneration triggers snapshot compaction; the
// threshold is the larger of n and the live bytes. Non-positive disables
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
// set, where mapping the files would put them). A key costs its bytes
// plus one map slot of a 16-byte string header and a 16-byte location:
// about 100 bytes for a session key. Every mutation is appended to the
// log before the directory points at it, so the on-disk state is never
// behind the directory.
//
// Opening reads each file once, front to back, into a directory sized
// once from the snapshot's length. The keys it reads are cut from a few
// shared strings, one per block of up to 64 KiB of keys, not allocated
// one by one; a block stays alive while any key cut from it is in the
// directory, so what replaced and deleted keys leave behind is at most
// the key bytes the store opened with, plus one block's spare room per
// file. Keys put after opening are the caller's strings.
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
	// snapshotBytes is the size of the snapshot file.
	snapshotBytes int64
	// dead counts the bytes of the snapshot and the log that hold records
	// the directory no longer reaches; the rest are live. genLen is the
	// length of the latest generation stamp, which the next one kills.
	dead, genLen int64
	// epoch counts compactions. Each replaces the snapshot and truncates
	// the log, so bytes a Scan read ahead in an earlier epoch are not
	// the bytes at those offsets now.
	epoch  uint64
	closed bool
	// enc is the buffer records are encoded into on their way to the log
	// or a snapshot, reused from one record to the next; f.mu guards it.
	// It holds a header and key, and a put's value only up to encKeep
	// bytes; grown past encKeep by a long key, it is let go after use.
	enc []byte
}

// loc is where a stored value's n bytes are: at off in the log, or in
// the snapshot.
type loc struct {
	off   int64
	n     int32
	inLog bool
}

// encKeep is the largest encode buffer a File keeps between records,
// and the largest value an append copies into it.
const encKeep = 64 << 10

// Replay and read-ahead sizes.
const (
	// replayBuffer is the read buffer a replay reads a file through: a
	// large snapshot in a sixteenth of the syscalls a 4 KiB one takes.
	// It is also the most key bytes one of a replay's key blocks holds.
	replayBuffer = 64 << 10
	// presizeAfter is the record at which a replay into an empty
	// directory sizes it for the whole file, from the bytes those
	// records took.
	presizeAfter = 64
	// scanBuffer is the most bytes one read ahead of a Scan or a
	// compaction takes; a value longer than it is read on its own.
	scanBuffer = 256 << 10
	// scanGap is the most bytes between two values that one read ahead
	// spans: the next record's header and key, in a sorted snapshot.
	scanGap = 4 << 10
)

// OpenFile opens (creating if needed) a file store rooted at dir and
// replays its snapshot and log into the key directory.
func OpenFile(dir string, opts ...FileOption) (*File, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: opening file store: %w", err)
	}
	f := &File{
		dir:       dir,
		compactAt: DefaultCompactBytes,
		data:      make(map[string]loc, presizeAfter),
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
//
// A replay into an empty directory sizes it once, after presizeAfter
// records, for as many records as the rest of the file holds at the
// length those took; a replay over a snapshot's keys, whose records
// mostly replace them, lets the directory grow as appends do.
func (f *File) replay(file *os.File, inLog, tolerateTorn bool) (int64, error) {
	info, err := file.Stat()
	if err != nil {
		return 0, err
	}
	size := info.Size()
	presize := len(f.data) == 0
	r := bufio.NewReaderSize(file, replayBuffer)
	var keys keyBlocks
	var offset int64
	for records := int64(1); ; records++ {
		rec, n, err := readRecord(r, file, size-offset, &keys)
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
		f.apply(rec, n, offset, inLog)
		if presize && records == presizeAfter && offset < size {
			if want := int(records * size / offset); want > len(f.data) {
				grown := make(map[string]loc, want)
				maps.Copy(grown, f.data)
				f.data = grown
			}
		}
	}
}

// apply points the key directory at rec, an n-byte record ending at end
// in the log (inLog) or the snapshot, and counts the bytes it leaves
// dead: the record it replaces, a delete itself, a superseded
// generation stamp. Replay and appends apply records alike, so a reopen
// counts the dead bytes the running store counted. f.mu must be held.
func (f *File) apply(rec record, n, end int64, inLog bool) {
	switch rec.op {
	case opPut:
		if old, ok := f.data[rec.key]; ok {
			f.dead += putLen(len(rec.key), int(old.n))
		}
		f.data[rec.key] = valueLoc(end, rec.vlen, inLog)
	case opDelete:
		if old, ok := f.data[rec.key]; ok {
			f.dead += putLen(len(rec.key), int(old.n))
			delete(f.data, rec.key)
		}
		f.dead += n
	case opGen:
		f.dead += f.genLen
		f.gen, f.genLen = rec.gen, n
	}
}

// putLen returns the length of the put record of a klen-byte key and a
// vlen-byte value, "p <klen> <vlen>\n<key><value>\n".
func putLen(klen, vlen int) int64 {
	return int64(len("p  \n\n") + digits(uint64(klen)) + digits(uint64(vlen)) + klen + vlen)
}

// digits returns how many decimal digits x is written with.
func digits(x uint64) int {
	n := 1
	for ; x >= 10; x /= 10 {
		n++
	}
	return n
}

// live returns how many bytes of the snapshot and the log the key
// directory reaches. f.mu must be held.
func (f *File) live() int64 { return f.snapshotBytes + f.logBytes - f.dead }

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
	buf = appendHead(buf, rec)
	if rec.op == opGen {
		return buf
	}
	buf = append(buf, rec.value...)
	return append(buf, '\n')
}

// appendHead encodes rec's header and key: all of its record but a
// put's value and the terminating newline.
func appendHead(buf []byte, rec record) []byte {
	buf = append(buf, rec.op, ' ')
	switch rec.op {
	case opPut:
		buf = strconv.AppendInt(buf, int64(len(rec.key)), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(len(rec.value)), 10)
	case opDelete:
		buf = strconv.AppendInt(buf, int64(len(rec.key)), 10)
	case opGen:
		buf = strconv.AppendUint(buf, rec.gen, 10)
	}
	buf = append(buf, '\n')
	return append(buf, rec.key...)
}

// releaseEnc lets go of an encode buffer a long key grew past encKeep.
// f.mu must be held.
func (f *File) releaseEnc() {
	if cap(f.enc) > encKeep {
		f.enc = nil
	}
}

// header is a parsed record header.
type header struct {
	op         byte
	klen, vlen int
	gen        uint64
}

// parseHeader parses a record header, its newline cut off, in the one
// grammar this package has ever written: an op letter, then each of its
// decimal fields after a single space — "p <klen> <vlen>", "d <klen>",
// "g <gen>". It reports false for any other line, and for a length past
// maxRecordLen or a generation past the uint64 range.
func parseHeader(line []byte) (h header, ok bool) {
	if len(line) < 2 || line[1] != ' ' {
		return h, false
	}
	h.op = line[0]
	a, rest, ok := decimal(line[2:])
	if !ok {
		return h, false
	}
	switch h.op {
	case opGen:
		h.gen = a
		return h, len(rest) == 0
	case opDelete:
		h.klen = int(a)
		return h, len(rest) == 0 && a <= maxRecordLen
	case opPut:
		if len(rest) == 0 || rest[0] != ' ' || a > maxRecordLen {
			return h, false
		}
		b, rest, ok := decimal(rest[1:])
		h.klen, h.vlen = int(a), int(b)
		return h, ok && len(rest) == 0 && b <= maxRecordLen
	}
	return h, false
}

// decimal parses the decimal digits s starts with, returning their
// value and the rest of s; false when s starts with no digit or the
// value overflows a uint64.
func decimal(s []byte) (uint64, []byte, bool) {
	var n uint64
	i := 0
	for ; i < len(s) && '0' <= s[i] && s[i] <= '9'; i++ {
		d := uint64(s[i] - '0')
		if n > (math.MaxUint64-d)/10 {
			return 0, nil, false
		}
		n = n*10 + d
	}
	return n, s[i:], i > 0
}

// readRecord decodes the next record from r, which reads src and holds
// left more bytes, returning it and the number of bytes it occupied. The
// header is parsed where r buffers it, the key is cut from keys' block
// and the value is skipped, so a record allocates nothing of its own.
// io.EOF at a record boundary is returned as-is; an EOF inside a record
// comes back as *tornError — before the body is read, when the header
// declares more bytes than are left. A complete header outside the
// grammar is corrupt.
func readRecord(r *bufio.Reader, src io.ReadSeeker, left int64, keys *keyBlocks) (record, int64, error) {
	line, err := readHeader(r)
	if err == io.EOF && len(line) == 0 {
		return record{}, 0, io.EOF
	}
	if err != nil {
		return record{}, 0, &tornError{cause: err}
	}
	n := int64(len(line))
	h, ok := parseHeader(line[:len(line)-1])
	if !ok {
		return record{}, 0, fmt.Errorf("storage: bad record header %q", line)
	}
	rec := record{op: h.op, vlen: h.vlen, gen: h.gen}
	if h.op == opGen {
		return rec, n, nil
	}
	body := int64(h.klen + h.vlen + 1)
	if body > left-n {
		return record{}, 0, &tornError{cause: io.ErrUnexpectedEOF}
	}
	if rec.key, err = keys.read(r, h.klen, left-n); err == nil {
		err = skip(r, src, h.vlen)
	}
	if err != nil {
		return record{}, 0, &tornError{cause: err}
	}
	if c, err := r.ReadByte(); err != nil {
		return record{}, 0, &tornError{cause: err}
	} else if c != '\n' {
		return record{}, 0, fmt.Errorf("storage: unterminated %c record", h.op)
	}
	return rec, n + body, nil
}

// skip advances r, which reads src, past n bytes that src is known to
// hold. Bytes r buffers it discards; a run longer than r's buffer, a
// large value, it seeks past rather than reading it through the buffer.
func skip(r *bufio.Reader, src io.ReadSeeker, n int) error {
	if n <= r.Size() {
		_, err := r.Discard(n)
		return err
	}
	past := int64(n - r.Buffered())
	if _, err := r.Discard(r.Buffered()); err != nil {
		return err
	}
	if _, err := src.Seek(past, io.SeekCurrent); err != nil {
		return err
	}
	r.Reset(src)
	return nil
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

// keyBlocks holds the keys one replay reads. Each key is a substring of
// a block, a string of up to replayBuffer bytes of keys, so a replay
// allocates once per block rather than once per key. The block is a
// strings.Builder's: a Builder only ever appends past the bytes its
// String has returned, so every key cut from it keeps the bytes it was
// read as.
type keyBlocks struct {
	b strings.Builder
}

// read reads a klen-byte key from r, which holds left more bytes.
func (kb *keyBlocks) read(r *bufio.Reader, klen int, left int64) (string, error) {
	if klen > r.Size() {
		b := make([]byte, klen)
		_, err := io.ReadFull(r, b)
		return string(b), err
	}
	b, err := r.Peek(klen)
	if err != nil {
		return "", err
	}
	if kb.b.Cap()-kb.b.Len() < klen {
		// A new block, no larger than the read buffer or what is left of
		// the file, both of which hold the key.
		kb.b = strings.Builder{}
		kb.b.Grow(int(min(int64(r.Size()), left)))
	}
	from := kb.b.Len()
	kb.b.Write(b)
	_, err = r.Discard(klen)
	return kb.b.String()[from:], err
}

// appendLocked writes one record to the log and points the key
// directory at it, compacting when the dead bytes have outgrown both
// compactAt and the live bytes. f.mu must be held.
func (f *File) appendLocked(rec record) error {
	if f.closed {
		return ErrClosed
	}
	if len(rec.key) > maxRecordLen || len(rec.value) > maxRecordLen {
		return fmt.Errorf("storage: record exceeds %d-byte limit", maxRecordLen)
	}
	defer f.releaseEnc()
	n, err := f.writeRecord(rec)
	if err != nil {
		// Roll the log back to the last record boundary. The next record
		// is written at logBytes either way; without this a short write
		// longer than that record would outlast it and turn into a
		// non-torn parse error that bricks the store on reopen.
		_ = f.log.Truncate(f.logBytes)
		return fmt.Errorf("storage: appending to log: %w", err)
	}
	f.logBytes += n
	rec.vlen = len(rec.value)
	f.apply(rec, n, f.logBytes, true)
	if f.compactAt > 0 && f.dead > max(f.compactAt, f.live()) {
		return f.compactLocked()
	}
	return nil
}

// newline is a record's terminator.
var newline = []byte{'\n'}

// writeRecord writes rec to the log at logBytes and returns its length.
// A record is encoded into f.enc and written at once, but for a value
// longer than encKeep: its header and key are, and the value and the
// terminator follow from their own slices at the offsets after them, so
// the value is never copied. A crash between those writes leaves a
// record without its terminator, a torn tail. f.mu must be held.
func (f *File) writeRecord(rec record) (int64, error) {
	if len(rec.value) <= encKeep {
		f.enc = appendRecord(f.enc[:0], rec)
		_, err := f.log.WriteAt(f.enc, f.logBytes)
		return int64(len(f.enc)), err
	}
	f.enc = appendHead(f.enc[:0], rec)
	off := f.logBytes
	for _, b := range [...][]byte{f.enc, rec.value, newline} {
		if _, err := f.log.WriteAt(b, off); err != nil {
			return 0, err
		}
		off += int64(len(b))
	}
	return off - f.logBytes, nil
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
	f.epoch++
	for i, k := range keys {
		f.data[k] = loc{off: offs[i], n: f.data[k].n}
	}
	f.snapshotBytes, f.dead = size, 0
	f.genLen = int64(len("g \n") + digits(f.gen))
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
// order, to file, reading the values through one read-ahead buffer. It
// returns the sorted keys, the offset in file of each one's value, and
// the bytes written. f.mu must be held.
func (f *File) writeSnapshot(file *os.File) (keys []string, offs []int64, size int64, err error) {
	w := bufio.NewWriter(file)
	keys = make([]string, 0, len(f.data))
	for k := range f.data {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	offs = make([]int64, len(keys))
	defer f.releaseEnc()
	f.enc = appendRecord(f.enc[:0], record{op: opGen, gen: f.gen})
	size = int64(len(f.enc))
	if _, err := w.Write(f.enc); err != nil {
		return nil, nil, 0, err
	}
	ra := readAhead{keys: keys, size: f.live()}
	for i, k := range keys {
		val, _, err := f.readNext(&ra, i)
		if err != nil {
			return nil, nil, 0, err
		}
		f.enc = appendHead(f.enc[:0], record{op: opPut, key: k, value: val})
		size += int64(len(f.enc) + len(val) + 1)
		offs[i] = valueLoc(size, len(val), false).off
		// A bufio.Writer keeps its first error and fails every write
		// after it, so the record's last write reports any of its own.
		w.Write(f.enc)
		w.Write(val)
		if err := w.WriteByte('\n'); err != nil {
			return nil, nil, 0, err
		}
	}
	return keys, offs, size, w.Flush()
}

// readAhead reads the values of a sorted list of keys, in order, through
// one buffer: a value the buffer does not hold is read together with the
// values of the keys after it that follow it in the same file, at most
// scanGap bytes apart, up to scanBuffer bytes in all. A sorted snapshot
// holds the values of neighbouring keys together, so they come back a
// buffer at a time.
type readAhead struct {
	keys []string
	// size is the capacity the buffer starts at, once it is needed:
	// scanBuffer, or less when the values are fewer bytes in all.
	size int64
	// buf holds the bytes at off in the log (inLog) or the snapshot of
	// the given epoch.
	buf   []byte
	off   int64
	inLog bool
	epoch uint64
}

// readNext returns the value ra.keys[i] holds now and false when it
// holds none. The value is ra's buffer, valid until the next call and
// capped at its length. f.mu must be held; between calls it need not
// be, since the buffer serves nothing a compaction has moved.
func (f *File) readNext(ra *readAhead, i int) ([]byte, bool, error) {
	if f.closed {
		return nil, false, ErrClosed
	}
	l, ok := f.data[ra.keys[i]]
	if !ok {
		return nil, false, nil
	}
	from := l.off - ra.off
	if ra.epoch != f.epoch || ra.inLog != l.inLog || from < 0 || from+int64(l.n) > int64(len(ra.buf)) {
		end := l.off + int64(l.n)
		for _, k := range ra.keys[i+1:] {
			m, ok := f.data[k]
			if !ok {
				continue
			}
			next := m.off + int64(m.n)
			if m.inLog != l.inLog || m.off < end || m.off-end > scanGap || next-l.off > scanBuffer {
				break
			}
			end = next
		}
		n := end - l.off
		if int64(cap(ra.buf)) < n {
			ra.buf = make([]byte, 0, max(n, min(ra.size, scanBuffer)))
		}
		buf := ra.buf[:n]
		ra.buf = ra.buf[:0]
		if err := f.readAt(buf, l); err != nil {
			return nil, false, err
		}
		ra.buf, ra.off, ra.inLog, ra.epoch = buf, l.off, l.inLog, f.epoch
		from = 0
	}
	return ra.buf[from : from+int64(l.n) : from+int64(l.n)], true, nil
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
	v := make([]byte, l.n)
	if err := f.readAt(v, l); err != nil {
		return nil, err
	}
	return v, nil
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

// Scan implements Store. It collects the matching keys under f.mu, then
// reads their values in sorted key order through one read-ahead buffer,
// taking f.mu for each read and calling fn without it.
func (f *File) Scan(prefix string, fn func(key string, value []byte) error) error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return ErrClosed
	}
	var keys []string
	var total int64
	for k, l := range f.data {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
			total += int64(l.n)
		}
	}
	f.mu.Unlock()
	slices.Sort(keys)
	ra := readAhead{keys: keys, size: total}
	for i, k := range keys {
		f.mu.Lock()
		v, ok, err := f.readNext(&ra, i)
		f.mu.Unlock()
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		if err := fn(k, v); err != nil {
			return err
		}
	}
	return nil
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
