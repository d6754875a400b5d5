package core_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/conceptual"
	"repro/internal/core"
	"repro/internal/museum"
	"repro/internal/navigation"
	"repro/internal/storage"
)

func paperApp(t *testing.T) *core.App {
	t.Helper()
	app, err := core.NewApp(museum.PaperStore(), museum.Model(navigation.IndexedGuidedTour{}))
	if err != nil {
		t.Fatal(err)
	}
	return app
}

// TestSnapshotRoundTripFileBackend is the linkbase export→reload round
// trip through the file backend: one process exports its woven site
// definition, a second process (a fresh store handle on the same
// directory) reloads it and sees the identical navigational aspect.
func TestSnapshotRoundTripFileBackend(t *testing.T) {
	dir := t.TempDir()
	app := paperApp(t)

	st, err := storage.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.ExportSnapshot(st); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// "Second process": nothing shared but the directory.
	st2, err := storage.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()

	repo, err := core.LoadSnapshotRepository(st2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(repo.URIs(), app.Repository().URIs()) {
		t.Errorf("reloaded URIs = %v, want %v", repo.URIs(), app.Repository().URIs())
	}
	// Every reloaded data document must serialize identically to the
	// original — the snapshot carries the documents, not approximations.
	for _, uri := range repo.URIs() {
		orig, _ := app.Repository().Get(uri)
		loaded, _ := repo.Get(uri)
		if orig.IndentedString() != loaded.IndentedString() {
			t.Errorf("document %s changed across the round trip", uri)
		}
	}

	// The navigational aspect itself survives: contexts parsed from the
	// reloaded links.xml match those parsed from the live one.
	want, err := navigation.ParseLinkbase(app.Linkbase())
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.LoadSnapshotContexts(st2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("reloaded contexts differ:\n got %+v\nwant %+v", got, want)
	}

	// The generation stamp rode along.
	gen, err := st2.Generation()
	if err != nil {
		t.Fatal(err)
	}
	if gen != app.CacheGeneration() {
		t.Errorf("snapshot generation = %d, app = %d", gen, app.CacheGeneration())
	}

	// And the data documents really are conceptual instances: they
	// import back into a fresh store under the same schema.
	fresh := conceptual.NewStore(museum.Schema())
	for _, uri := range repo.URIs() {
		if uri == "links.xml" {
			continue
		}
		doc, _ := repo.Get(uri)
		inst, err := conceptual.ImportInstance(fresh, doc)
		if err != nil {
			t.Fatalf("re-importing %s: %v", uri, err)
		}
		orig := app.Store().Get(inst.ID)
		if orig == nil {
			t.Fatalf("imported unknown instance %q", inst.ID)
		}
		for _, attr := range orig.AttrNames() {
			if inst.Attr(attr) != orig.Attr(attr) {
				t.Errorf("%s.%s = %q, want %q", inst.ID, attr, inst.Attr(attr), orig.Attr(attr))
			}
		}
	}
	if fresh.Len() != app.Store().Len() {
		t.Errorf("imported %d instances, want %d", fresh.Len(), app.Store().Len())
	}
}

// TestSnapshotTracksModelMutation: re-exporting after a requirements
// change replaces the stored site definition — stale documents go away
// and the new linkbase lands.
func TestSnapshotTracksModelMutation(t *testing.T) {
	app := paperApp(t)
	st := storage.NewMem()
	if err := app.ExportSnapshot(st); err != nil {
		t.Fatal(err)
	}
	genBefore, _ := st.Generation()

	if err := app.SetAccessStructure("ByAuthor", navigation.Index{}); err != nil {
		t.Fatal(err)
	}
	if err := app.ExportSnapshot(st); err != nil {
		t.Fatal(err)
	}
	genAfter, _ := st.Generation()
	if genAfter == genBefore {
		t.Errorf("generation stamp did not move with the model: %d", genAfter)
	}
	ctxs, err := core.LoadSnapshotContexts(st)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range ctxs {
		if strings.HasPrefix(c.Name, "ByAuthor") && c.AccessKind != "index" {
			t.Errorf("context %s access = %s, want index", c.Name, c.AccessKind)
		}
	}
}

// TestSnapshotStaleKeysRemoved: a document that exists only in an older
// export is deleted by the next one.
func TestSnapshotStaleKeysRemoved(t *testing.T) {
	app := paperApp(t)
	st := storage.NewMem()
	if err := st.Put(core.SnapshotPrefix+"ghost.xml", []byte("<ghost/>")); err != nil {
		t.Fatal(err)
	}
	if err := app.ExportSnapshot(st); err != nil {
		t.Fatal(err)
	}
	repo, err := core.LoadSnapshotRepository(st)
	if err != nil {
		t.Fatal(err)
	}
	for _, uri := range repo.URIs() {
		if uri == "ghost.xml" {
			t.Error("stale snapshot key survived re-export")
		}
	}
}

// recordingStore notes the keys a snapshot export writes and deletes,
// and counts its reads.
type recordingStore struct {
	storage.Store
	puts, deletes []string
	gets, scans   int
}

func (r *recordingStore) Get(key string) ([]byte, error) {
	r.gets++
	return r.Store.Get(key)
}

func (r *recordingStore) Scan(prefix string, fn func(key string, value []byte) error) error {
	r.scans++
	return r.Store.Scan(prefix, fn)
}

func (r *recordingStore) Put(key string, value []byte) error {
	r.puts = append(r.puts, key)
	return r.Store.Put(key, value)
}

func (r *recordingStore) Delete(key string) error {
	r.deletes = append(r.deletes, key)
	return r.Store.Delete(key)
}

// logSize is the size of a file store's append-only log.
func logSize(t *testing.T, dir string) int64 {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, "log"))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestSnapshotReexportUnchangedWritesGenerationOnly: exporting a site the
// file store already holds byte for byte reads the stored snapshot with
// one Scan and appends the generation stamp and nothing else, so a
// restart over a populated store does not re-log every document.
func TestSnapshotReexportUnchangedWritesGenerationOnly(t *testing.T) {
	app := paperApp(t)
	dir := t.TempDir()
	fst, err := storage.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fst.Close()
	st := &recordingStore{Store: fst}
	if err := app.ExportSnapshot(st); err != nil {
		t.Fatal(err)
	}
	before := logSize(t, dir)
	*st = recordingStore{Store: fst}
	if err := app.ExportSnapshot(st); err != nil {
		t.Fatal(err)
	}
	grown := logSize(t, dir) - before
	if st.scans != 1 || st.gets != 0 || len(st.puts) != 0 || len(st.deletes) != 0 {
		t.Errorf("re-export made %d Scans, %d Gets, Puts %v and Deletes %v; want one Scan and nothing else",
			st.scans, st.gets, st.puts, st.deletes)
	}

	// The same stamp alone, logged by an empty store.
	genDir := t.TempDir()
	gst, err := storage.OpenFile(genDir)
	if err != nil {
		t.Fatal(err)
	}
	defer gst.Close()
	if err := gst.SetGeneration(app.CacheGeneration()); err != nil {
		t.Fatal(err)
	}
	if want := logSize(t, genDir); grown != want {
		t.Errorf("re-export grew the log by %d bytes, want %d (the generation record)", grown, want)
	}
}

// TestSnapshotReexportPutsPatchedDocument: after a content edit, the
// next export writes exactly the edited document, with the bytes the
// server serves for it.
func TestSnapshotReexportPutsPatchedDocument(t *testing.T) {
	app := paperApp(t)
	st := &recordingStore{Store: storage.NewMem()}
	if err := app.ExportSnapshot(st); err != nil {
		t.Fatal(err)
	}
	if len(st.puts) != len(app.Repository()) {
		t.Fatalf("first export put %d documents, want %d", len(st.puts), len(app.Repository()))
	}
	if err := app.Store().SetAttr("guitar", "technique", "Sheet metal and wire"); err != nil {
		t.Fatal(err)
	}
	if _, err := app.InvalidateDocument("guitar.xml"); err != nil {
		t.Fatal(err)
	}
	st.puts = nil
	if err := app.ExportSnapshot(st); err != nil {
		t.Fatal(err)
	}
	if want := []string{core.SnapshotPrefix + "guitar.xml"}; !reflect.DeepEqual(st.puts, want) {
		t.Errorf("export after the edit put %v, want %v", st.puts, want)
	}
	stored, err := st.Get(core.SnapshotPrefix + "guitar.xml")
	if err != nil {
		t.Fatal(err)
	}
	served, _, _, _ := app.DocBytes("guitar.xml")
	if !bytes.Equal(stored, served) || !bytes.Contains(stored, []byte("Sheet metal and wire")) {
		t.Errorf("stored guitar.xml is not the served, edited document:\n%s", stored)
	}
}

// TestSnapshotReexportDeletesStaleKey: skipping unchanged documents does
// not skip the cleanup; a key no current document owns is still deleted.
func TestSnapshotReexportDeletesStaleKey(t *testing.T) {
	app := paperApp(t)
	st := &recordingStore{Store: storage.NewMem()}
	if err := app.ExportSnapshot(st); err != nil {
		t.Fatal(err)
	}
	ghost := core.SnapshotPrefix + "ghost.xml"
	if err := st.Store.Put(ghost, []byte("<ghost/>")); err != nil {
		t.Fatal(err)
	}
	st.puts = nil
	if err := app.ExportSnapshot(st); err != nil {
		t.Fatal(err)
	}
	if len(st.puts) != 0 {
		t.Errorf("unchanged re-export put %v", st.puts)
	}
	if !reflect.DeepEqual(st.deletes, []string{ghost}) {
		t.Errorf("re-export deleted %v, want [%s]", st.deletes, ghost)
	}
	if _, err := st.Get(ghost); err == nil {
		t.Error("stale snapshot key survived re-export")
	}
}

func TestLoadSnapshotEmptyStore(t *testing.T) {
	if _, err := core.LoadSnapshotRepository(storage.NewMem()); err == nil {
		t.Error("empty store produced a repository")
	}
}
