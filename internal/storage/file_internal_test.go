package storage

import (
	"bufio"
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// referenceHeader parses a header line as replay once did: split around
// runs of white space with strings.Fields, each field read by strconv.
func referenceHeader(line string) (header, bool) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return header{}, false
	}
	h := header{op: fields[0][0]}
	switch {
	case fields[0] == "p" && len(fields) == 3:
		klen, err1 := strconv.Atoi(fields[1])
		vlen, err2 := strconv.Atoi(fields[2])
		if err1 != nil || err2 != nil ||
			klen < 0 || vlen < 0 || klen > maxRecordLen || vlen > maxRecordLen {
			return header{}, false
		}
		h.klen, h.vlen = klen, vlen
	case fields[0] == "d" && len(fields) == 2:
		klen, err := strconv.Atoi(fields[1])
		if err != nil || klen < 0 || klen > maxRecordLen {
			return header{}, false
		}
		h.klen = klen
	case fields[0] == "g" && len(fields) == 2:
		gen, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return header{}, false
		}
		h.gen = gen
	default:
		return header{}, false
	}
	return h, true
}

// headerGrammar is the one header grammar every writer of the format
// has used: an op letter and its decimal fields, one space before each.
var headerGrammar = regexp.MustCompile(`^(p [0-9]+ [0-9]+|[dg] [0-9]+)$`)

// FuzzRecordHeader: the in-place header parser accepts exactly the lines
// the strings.Fields+strconv reference accepts that are in the grammar,
// with the same values. The same line as a record on disk decodes to
// that header's record, is a torn tail when the bytes after it are
// fewer than it declares, and is corrupt — never torn — when the parser
// rejects it: a complete header the parser rejects is corrupt whether
// or not the reference, which also split doubled spaces, tabs and
// signed numbers, took it. The record is read through a 16-byte buffer,
// so a value longer than that is sought past, as replay seeks past a
// value longer than its own buffer.
func FuzzRecordHeader(f *testing.F) {
	for _, seed := range []struct {
		line string
		body string
	}{
		{"p 3 4", "keyvalu\n"}, {"d 12", "k"}, {"g 18446744073709551614", ""}, {"", "p 1 1\n"},
		{"   ", ""}, {"p  3\t4 ", "keyvalu\n"}, {"p 3 +4", "keyvalu\n"}, {"p \xff 3", ""},
		{"\v\fp\r3", ""}, {"z 3", "key\n"}, {"p 1 2 3 4 5", ""}, {"g 18446744073709551616", ""},
		{"p 007 0", "keykeyk\n"}, {"d 67108865", ""}, {"p 2 1", "k0vX"}, {"d -0", "\n"},
		{"p 1 40", "k" + strings.Repeat("v", 40) + "\n"}, {"p 1 40", "k" + strings.Repeat("v", 40) + "X"},
	} {
		f.Add(seed.line, []byte(seed.body))
	}
	f.Fuzz(func(t *testing.T, line string, body []byte) {
		line, _, _ = strings.Cut(line, "\n")
		want, ok := referenceHeader(line)
		ok = ok && headerGrammar.MatchString(line)
		got, gotOK := parseHeader([]byte(line))
		if gotOK != ok || ok && got != want {
			t.Fatalf("parseHeader(%q) = %+v, %v; want %+v, %v", line, got, gotOK, want, ok)
		}

		raw := append([]byte(line+"\n"), body...)
		src := bytes.NewReader(raw)
		rec, n, err := readRecord(bufio.NewReaderSize(src, 16), src, int64(len(raw)), &keyBlocks{})
		head := len(line) + 1
		switch size := head + want.klen + want.vlen + 1; {
		case !ok:
			if err == nil || isTorn(err) {
				t.Fatalf("record with header %q: %v, want corrupt", line, err)
			}
		case want.op == opGen:
			if err != nil || n != int64(head) || rec.op != opGen || rec.gen != want.gen {
				t.Fatalf("record %q = %+v, %d, %v; want generation %d", raw, rec, n, err, want.gen)
			}
		case size > len(raw):
			if !isTorn(err) {
				t.Fatalf("record %q declaring %d bytes of %d: %v, want torn", raw, size, len(raw), err)
			}
		case raw[size-1] != '\n':
			if err == nil || isTorn(err) {
				t.Fatalf("unterminated record %q: %v, want corrupt", raw, err)
			}
		default:
			if err != nil || n != int64(size) || rec.op != want.op || rec.vlen != want.vlen ||
				rec.key != string(raw[head:head+want.klen]) {
				t.Fatalf("record %q = %+v, %d, %v; want header %+v", raw, rec, n, err, want)
			}
		}
	})
}
