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

// linearTableMax is how many strings the encoder's table holds before
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
	st := &r.State
	return appendRecord(dst, r.Expires, st.Context, st.NodeID, st.History, st.Nav, st.Cursor)
}

// recordEncoder is an encoding's working memory: the string table, and
// the bytes that follow the table in the record. Encoders are pooled,
// so a steady stream of records allocates the records and nothing else.
type recordEncoder struct {
	table stringTable
	body  []byte
}

var recordEncoders = sync.Pool{New: func() any {
	return &recordEncoder{table: stringTable{strs: make([]string, 0, linearTableMax)}}
}}

// appendRecord is AppendRecord's encoder, over the parts of a state, so
// that a Session encodes its own lists without copying them first.
func appendRecord(dst []byte, expires time.Time, context, node string, history, nav []Visit, cursor int) []byte {
	enc := recordEncoders.Get().(*recordEncoder)
	table := &enc.table
	// Everything after the table, written first so the table is complete.
	body := table.appendVisit(enc.body[:0], context, node)
	body = binary.AppendUvarint(body, uint64(len(history)))
	for _, v := range history {
		body = table.appendVisit(body, v.Context, v.NodeID)
	}
	body = binary.AppendUvarint(body, uint64(len(nav)))
	for _, v := range nav {
		body = table.appendVisit(body, v.Context, v.NodeID)
	}
	body = binary.AppendVarint(body, int64(cursor))

	sec, nsec := expires.Unix(), uint64(expires.Nanosecond())
	size := 1 + varintLen(sec) + uvarintLen(nsec) + uvarintLen(uint64(len(table.strs))) + len(body)
	for _, s := range table.strs {
		size += uvarintLen(uint64(len(s))) + len(s)
	}
	dst = slices.Grow(dst, size) // the record costs one allocation
	dst = append(dst, recordVersion)
	dst = binary.AppendVarint(dst, sec)
	dst = binary.AppendUvarint(dst, nsec)
	dst = binary.AppendUvarint(dst, uint64(len(table.strs)))
	for _, s := range table.strs {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	dst = append(dst, body...)

	enc.body = body[:0]
	table.reset()
	recordEncoders.Put(enc)
	return dst
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

// stringTable interns a record's strings in order of first use.
type stringTable struct {
	strs []string
	// index maps the strings to their indices once the table outgrows
	// linearTableMax; below that it is empty, or nil until first needed.
	index map[string]uint32
}

// reset empties the table for another record, keeping its memory but
// no reference to the strings it held.
func (t *stringTable) reset() {
	clear(t.strs)
	t.strs = t.strs[:0]
	clear(t.index)
}

// appendVisit appends the table indices of a visit's context and node.
func (t *stringTable) appendVisit(dst []byte, context, node string) []byte {
	dst = binary.AppendUvarint(dst, uint64(t.ref(context)))
	return binary.AppendUvarint(dst, uint64(t.ref(node)))
}

// ref returns s's index, adding s to the table on first use.
func (t *stringTable) ref(s string) uint32 {
	if len(t.strs) <= linearTableMax {
		for i, have := range t.strs {
			if have == s {
				return uint32(i)
			}
		}
		if len(t.strs) < linearTableMax {
			t.strs = append(t.strs, s)
			return uint32(len(t.strs) - 1)
		}
		// The table is full: index it, and search the index from now on.
		if t.index == nil {
			t.index = make(map[string]uint32, 4*linearTableMax)
		}
		for i, have := range t.strs {
			t.index[have] = uint32(i)
		}
	}
	if i, ok := t.index[s]; ok {
		return i
	}
	i := uint32(len(t.strs))
	t.index[s] = i
	t.strs = append(t.strs, s)
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
