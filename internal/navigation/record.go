package navigation

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"time"
)

// Record is the durable form of one visitor session: the state a
// restarted server resumes from, and the deadline past which it may
// not.
type Record struct {
	State SessionState `json:"state"`
	// Expires bounds rehydration the way the TTL bounds memory: a
	// record past its deadline is dead even if the janitor never saw
	// it. Zero means no expiry.
	Expires time.Time `json:"expires,omitempty"`
}

// recordVersion is the first byte of a binary record. JSON text starts
// with whitespace (\t, \n, \r, space) or a printable character, so a
// control byte here can never be read as a legacy JSON record.
const recordVersion = 0x01

// linearTableMax is how many keys the encoder's table holds before
// it stops searching linearly and indexes them in a map: small records
// skip the map, and a trail at the 1,024-visit limit still encodes in
// linear time.
const linearTableMax = 16

// AppendRecord appends the binary form of r to dst and returns the
// extended slice. The form is
//
//	version   one byte, recordVersion
//	expires   varint Unix seconds, uvarint nanoseconds (below 1e9)
//	table     uvarint count, then each string as uvarint length + bytes
//	position  context and node, each a uvarint index into the table
//	trail     uvarint count, then each visit as two uvarint indices
//	nav       the same, for the back/forward list
//	cursor    varint
//
// Each distinct string is stored once, in order of first use. Seconds
// and nanoseconds are kept apart so every instant JSON can carry
// (years 0–9999) fits, which UnixNano's 1678–2262 would not.
func AppendRecord(dst []byte, r Record) []byte {
	enc := recordEncoders.Get().(*recordEncoder)
	t, st := &enc.strs, &r.State
	// Everything after the table, written first so the table is complete.
	body := appendPair(enc.body[:0], t.ref(st.Context), t.ref(st.NodeID))
	for _, list := range [...][]Visit{st.History, st.Nav} {
		body = binary.AppendUvarint(body, uint64(len(list)))
		for _, v := range list {
			body = appendPair(body, t.ref(v.Context), t.ref(v.NodeID))
		}
	}
	body = binary.AppendVarint(body, int64(st.Cursor))
	dst = enc.finish(dst, r.Expires, t.keys, body)
	t.reset()
	recordEncoders.Put(enc)
	return dst
}

// appendSessionRecord is AppendRecord over a session's own lists, whose
// visits are symbols of names, so that a Session encodes its record
// without copying or converting them first. The bytes are those of
// AppendRecord: a record table entry per distinct symbol is one per
// distinct string, since a table holds each name once.
func appendSessionRecord(dst []byte, expires time.Time, names []string, here visit, history, nav []visit, cursor int) []byte {
	enc := recordEncoders.Get().(*recordEncoder)
	t := &enc.refs
	body := appendPair(enc.body[:0], t.ref(here.ctx), t.ref(here.node))
	for _, list := range [...][]visit{history, nav} {
		body = binary.AppendUvarint(body, uint64(len(list)))
		for _, v := range list {
			body = appendPair(body, t.ref(v.ctx), t.ref(v.node))
		}
	}
	body = binary.AppendVarint(body, int64(cursor))
	strs := enc.names[:0]
	for _, sym := range t.keys {
		strs = append(strs, names[sym])
	}
	dst = enc.finish(dst, expires, strs, body)
	clear(strs)
	enc.names = strs[:0]
	t.reset()
	recordEncoders.Put(enc)
	return dst
}

// recordEncoder is an encoding's working memory: the record's table,
// keyed by string or by symbol, and the bytes that follow the table in
// the record. Encoders are pooled, so a steady stream of records
// allocates the records and nothing else.
type recordEncoder struct {
	strs  refTable[string]
	refs  refTable[uint32]
	names []string
	body  []byte
}

var recordEncoders = sync.Pool{New: func() any { return new(recordEncoder) }}

// finish appends the record whose table holds strs and whose remaining
// bytes are body, with one allocation at most, and keeps body's memory
// for the next record.
func (enc *recordEncoder) finish(dst []byte, expires time.Time, strs []string, body []byte) []byte {
	sec, nsec := expires.Unix(), uint64(expires.Nanosecond())
	size := 1 + varintLen(sec) + uvarintLen(nsec) + uvarintLen(uint64(len(strs))) + len(body)
	for _, s := range strs {
		size += uvarintLen(uint64(len(s))) + len(s)
	}
	dst = slices.Grow(dst, size) // the record costs one allocation
	dst = append(dst, recordVersion)
	dst = binary.AppendVarint(dst, sec)
	dst = binary.AppendUvarint(dst, nsec)
	dst = binary.AppendUvarint(dst, uint64(len(strs)))
	for _, s := range strs {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	dst = append(dst, body...)
	enc.body = body[:0]
	return dst
}

// appendPair appends two table indices: a visit's context and node.
func appendPair(dst []byte, ctx, node uint32) []byte {
	dst = binary.AppendUvarint(dst, uint64(ctx))
	return binary.AppendUvarint(dst, uint64(node))
}

// ParseRecord decodes a session record in either form: the binary form
// AppendRecord writes, or the JSON form of earlier versions, which a
// caller rewrites in binary the next time it saves the session. A
// binary record is rejected when it is cut short, holds an index past
// its table, a count or length longer than the bytes left, or trailing
// bytes, or starts with an unknown version byte.
func ParseRecord(raw []byte) (Record, error) {
	if len(raw) == 0 {
		return Record{}, fmt.Errorf("navigation: empty session record")
	}
	switch c := raw[0]; {
	case c == recordVersion:
		return parseBinary(raw[1:])
	case c >= ' ' || c == '\t' || c == '\n' || c == '\r':
		var r Record
		if err := json.Unmarshal(raw, &r); err != nil {
			return Record{}, fmt.Errorf("navigation: legacy session record: %w", err)
		}
		return r, nil
	default:
		return Record{}, fmt.Errorf("navigation: unknown session record version %#x", c)
	}
}

// parseBinary decodes a binary record after its version byte.
func parseBinary(b []byte) (Record, error) {
	d := recordDecoder{buf: b}
	var r Record
	sec, nsec := d.varint(), d.uvarint()
	if nsec >= 1e9 {
		d.fail("nanoseconds out of range")
	}
	r.Expires = time.Unix(sec, int64(nsec))
	table := d.table()
	r.State.Context, r.State.NodeID = d.ref(table), d.ref(table)
	r.State.History = d.visits(table)
	r.State.Nav = d.visits(table)
	cursor := d.varint()
	r.State.Cursor = int(cursor)
	if int64(r.State.Cursor) != cursor {
		d.fail("cursor out of range")
	}
	if d.err == nil && len(d.buf) > 0 {
		d.fail("trailing bytes")
	}
	if d.err != nil {
		return Record{}, d.err
	}
	return r, nil
}

// refTable numbers a record's distinct keys, strings or symbols, in
// order of first use.
type refTable[K comparable] struct {
	keys []K
	// index maps the keys to their indices once the table outgrows
	// linearTableMax; below that it is empty, or nil until first needed.
	index map[K]uint32
}

// reset empties the table for another record, keeping its memory but
// no reference to the keys it held.
func (t *refTable[K]) reset() {
	clear(t.keys)
	t.keys = t.keys[:0]
	clear(t.index)
}

// ref returns k's index, adding k to the table on first use.
func (t *refTable[K]) ref(k K) uint32 {
	if len(t.keys) <= linearTableMax {
		for i, have := range t.keys {
			if have == k {
				return uint32(i)
			}
		}
		if len(t.keys) < linearTableMax {
			t.keys = append(t.keys, k)
			return uint32(len(t.keys) - 1)
		}
		// The table is full: index it, and search the index from now on.
		if t.index == nil {
			t.index = make(map[K]uint32, 4*linearTableMax)
		}
		for i, have := range t.keys {
			t.index[have] = uint32(i)
		}
	}
	if i, ok := t.index[k]; ok {
		return i
	}
	i := uint32(len(t.keys))
	t.index[k] = i
	t.keys = append(t.keys, k)
	return i
}

// uvarintLen is the length of x as binary.AppendUvarint writes it.
func uvarintLen(x uint64) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

// varintLen is the length of x as binary.AppendVarint writes it, after
// the same zig-zag mapping.
func varintLen(x int64) int {
	return uvarintLen(uint64(x<<1) ^ uint64(x>>63))
}

// recordDecoder reads a binary record front to back. The first error
// sticks: later reads return zero values, so the parse runs straight
// through and reports it once at the end.
type recordDecoder struct {
	buf []byte
	err error
}

// fail records the first error.
func (d *recordDecoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("navigation: corrupt session record: %s", what)
	}
}

// uvarint reads one uvarint.
func (d *recordDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail("truncated or overlong varint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// varint reads one zig-zag varint, as binary.Varint would.
func (d *recordDecoder) varint() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// count reads a count of items that take at least minSize bytes each
// and checks it against the bytes left, before anything is allocated
// for them.
func (d *recordDecoder) count(minSize int) int {
	n := d.uvarint()
	if n > uint64(len(d.buf)/minSize) {
		d.fail("count exceeds record")
		return 0
	}
	return int(n)
}

// table reads the string table. Its strings are cut from one copy of
// the table's bytes, so the whole table costs two allocations.
func (d *recordDecoder) table() []string {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	// First pass: check every length and find the table's end.
	start := d.buf
	for i := 0; i < n; i++ {
		l := d.count(1)
		d.buf = d.buf[l:]
	}
	if d.err != nil {
		return nil
	}
	blob := string(start[:len(start)-len(d.buf)])
	table := make([]string, n)
	off := 0
	for i := range table {
		l, k := binary.Uvarint(start[off:])
		off += k
		table[i] = blob[off : off+int(l)]
		off += int(l)
	}
	return table
}

// ref reads one table index.
func (d *recordDecoder) ref(table []string) string {
	i := d.uvarint()
	if i >= uint64(len(table)) {
		d.fail("string index past table")
		return ""
	}
	return table[i]
}

// visits reads a counted list of visits (nil when empty).
func (d *recordDecoder) visits(table []string) []Visit {
	n := d.count(2)
	if n == 0 {
		return nil
	}
	out := make([]Visit, n)
	for i := range out {
		out[i] = Visit{Context: d.ref(table), NodeID: d.ref(table)}
	}
	return out
}
