package storage

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzHeaderFields: the in-place header splitter replay uses splits
// every line exactly as strings.Fields, which replay once used, does —
// so the same headers parse, and the same ones are rejected.
func FuzzHeaderFields(f *testing.F) {
	for _, line := range []string{
		"p 3 4", "d 12", "g 18446744073709551614", "", "   ", "p  3\t4 ",
		"p 3 4", "p \xff 3", "\v\fp\r3", "z 3", "p 1 2 3 4 5",
	} {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line string) {
		var got []string
		for _, field := range headerFields([]byte(line), nil) {
			got = append(got, string(field))
		}
		if want := strings.Fields(line); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
			t.Errorf("headerFields(%q) = %q, want %q", line, got, want)
		}
	})
}
