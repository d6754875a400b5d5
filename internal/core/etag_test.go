package core

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/navigation"
	"repro/internal/storage"
)

// TestStrongETagHash pins the validator's form: the generation, then
// the body's CRC-32C in the high half of a 64-bit hash and its CRC-32
// (IEEE) in the low half, in hexadecimal.
func TestStrongETagHash(t *testing.T) {
	for _, body := range []string{"", "a", "<links/>\n", "123456789"} {
		c := crc32.Checksum([]byte(body), crc32.MakeTable(crc32.Castagnoli))
		i := crc32.ChecksumIEEE([]byte(body))
		if got, want := strongETag(7, []byte(body)), fmt.Sprintf(`"g7-%x"`, uint64(c)<<32|uint64(i)); got != want {
			t.Errorf("strongETag(7, %q) = %s, want %s", body, got, want)
		}
	}
	// The check values of both CRCs over "123456789".
	if got := strongETag(0, []byte("123456789")); got != `"g0-e3069283cbf43926"` {
		t.Errorf("strongETag over the CRC check string = %s", got)
	}
}

// siteTags returns every document's and every page's body and ETag,
// by name, pages read through the page cache.
func siteTags(t *testing.T, app *App) map[string][2]string {
	t.Helper()
	tags := map[string][2]string{}
	for uri := range app.gen.Load().docs {
		body, etag, _, err := app.DocBytes(uri)
		if err != nil {
			t.Fatal(err)
		}
		tags[uri] = [2]string{string(body), etag}
	}
	for _, rc := range app.Resolved().Contexts {
		nodes := []string{}
		if rc.Def.Access.HasHub() {
			nodes = append(nodes, navigation.HubID)
		}
		for _, m := range rc.Members {
			nodes = append(nodes, m.ID())
		}
		for _, node := range nodes {
			p, err := app.RenderPageCached(rc.Name, node)
			if err != nil {
				t.Fatal(err)
			}
			tags[p.Path] = [2]string{string(p.Body), p.ETag}
		}
	}
	return tags
}

// TestETagsFollowBytes: two Apps over identical stores tag every
// document and page alike — the hash has no seed — and an edit changes
// exactly the ETags of the bodies it changed: a caption edit those of
// its document and its member pages, a title edit those of its document
// and links.xml among the documents.
func TestETagsFollowBytes(t *testing.T) {
	app := benchMuseum(t)
	before := siteTags(t, app)
	if other := siteTags(t, benchMuseum(t)); fmt.Sprint(other) != fmt.Sprint(before) {
		t.Fatal("two Apps over identical stores serve different bodies or ETags")
	}
	seen := map[string]string{}
	for name, bt := range before {
		if prev, dup := seen[bt[1]]; dup && before[prev][0] != bt[0] {
			t.Fatalf("%s and %s share the ETag %s", prev, name, bt[1])
		}
		seen[bt[1]] = name
	}

	const id = "painting000_000"
	compare := func(what string, docsOnly bool) {
		t.Helper()
		after := siteTags(t, app)
		changed := 0
		for name, b := range before {
			a, ok := after[name]
			if !ok || (docsOnly && app.gen.Load().docs[name] == nil) {
				continue
			}
			if (a[0] != b[0]) != (a[1] != b[1]) {
				t.Errorf("%s: %s changed body %v, ETag %v", what, name, a[0] != b[0], a[1] != b[1])
			}
			if a[1] != b[1] {
				changed++
			}
		}
		if changed == 0 {
			t.Errorf("%s changed no ETag", what)
		}
		before = after
	}
	if _, err := app.EditDocument(id, map[string]string{"technique": "Gouache"}); err != nil {
		t.Fatal(err)
	}
	compare("a caption edit", false)
	if _, err := app.EditDocument(id, map[string]string{"title": "Retitled"}); err != nil {
		t.Fatal(err)
	}
	compare("a title edit", true)
}

// TestExportSnapshotIntoEmptyFileStore: the first export of the 50/20/8
// museum into an empty file store logs every document and rewrites
// none of them into a snapshot, since none of its bytes is dead.
func TestExportSnapshotIntoEmptyFileStore(t *testing.T) {
	app := benchMuseum(t)
	dir := t.TempDir()
	st, err := storage.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.CloseWithoutFlush()
	if err := app.ExportSnapshot(st); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("the first export wrote a snapshot (%v)", err)
	}
	n := 0
	if err := st.Scan(SnapshotPrefix, func(string, []byte) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != app.DocumentCount() {
		t.Fatalf("the log holds %d documents, want %d", n, app.DocumentCount())
	}
}
