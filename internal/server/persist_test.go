package server

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/museum"
	"repro/internal/navigation"
	"repro/internal/storage"
)

// newTestStore opens a storage backend by name, closing it with the test.
func newTestStore(t *testing.T, backend string) storage.Store {
	t.Helper()
	var st storage.Store
	switch backend {
	case "mem":
		st = storage.NewMem()
	case "file":
		var err error
		st, err = storage.OpenFile(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatalf("unknown backend %q", backend)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// persistentServer builds a server over the paper museum backed by the
// given store. Persistence is synchronous — these tests assert exact
// store contents after individual requests, which the write-behind
// queue would make racy (flush_test.go covers that path).
func persistentServer(t *testing.T, st storage.Store, opts ...Option) (*Server, *httptest.Server) {
	t.Helper()
	app, err := core.NewApp(museum.PaperStore(), museum.Model(navigation.IndexedGuidedTour{}))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(app, append([]Option{WithPersistence(st), WithSyncPersistence()}, opts...)...)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// doGet performs a GET with an explicit cookie header (so one visitor
// identity can span two test servers) and returns status, body and any
// session cookie that was set.
func doGet(t *testing.T, ts *httptest.Server, path, cookie string) (int, string, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cookie != "" {
		req.AddCookie(&http.Cookie{Name: sessionCookie, Value: cookie})
	}
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	setCookie := ""
	for _, c := range resp.Cookies() {
		if c.Name == sessionCookie {
			setCookie = c.Value
		}
	}
	return resp.StatusCode, string(body), setCookie
}

// TestKillAndRestartResumesTrail is the acceptance scenario: a server
// using the file backend is stopped mid-session and restarted; the same
// cookie resumes the visitor's context trail and /go/next answers per
// the restored context.
func TestKillAndRestartResumesTrail(t *testing.T) {
	dir := t.TempDir()
	st, err := storage.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}

	_, ts := persistentServer(t, st)
	// Enter the guided tour at its first painting (ByAuthor:picasso is
	// ordered by year: avignon 1907, guitar 1913, guernica 1937) and
	// step once, leaving the visitor standing on guitar.
	code, _, cookie := doGet(t, ts, "/ByAuthor/picasso/avignon.html", "")
	if code != http.StatusOK || cookie == "" {
		t.Fatalf("first visit: code=%d cookie=%q", code, cookie)
	}
	if code, _, _ := doGet(t, ts, "/go/next", cookie); code != http.StatusSeeOther {
		t.Fatalf("/go/next before restart: code=%d", code)
	}
	code, _, _ = doGet(t, ts, "/session", cookie)
	if code != http.StatusOK {
		t.Fatalf("/session before restart: code=%d", code)
	}
	_, preRestart, _ := doGet(t, ts, "/session", cookie)

	// Kill: close the HTTP server and the store (the final flush).
	ts.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: a brand-new app, server and store handle over the same
	// directory. Nothing in memory survives — only the store.
	st2, err := storage.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv2, ts2 := persistentServer(t, st2)
	if n := srv2.SessionCount(); n != 0 {
		t.Fatalf("restarted server already tracks %d sessions", n)
	}

	// The same cookie must resume the pre-restart trail...
	code, postRestart, _ := doGet(t, ts2, "/session", cookie)
	if code != http.StatusOK {
		t.Fatalf("/session after restart: code=%d", code)
	}
	if postRestart != preRestart {
		t.Errorf("trail lost across restart:\n before: %s after:  %s", preRestart, postRestart)
	}
	var visits []navigation.Visit
	if err := json.Unmarshal([]byte(postRestart), &visits); err != nil {
		t.Fatal(err)
	}
	if len(visits) != 2 || visits[1].Context != "ByAuthor:picasso" {
		t.Errorf("restored visits = %+v", visits)
	}

	// ...and /go/next must answer per the restored context: the visitor
	// stood on the second painting of ByAuthor:picasso, so Next goes to
	// the third (or wherever that tour's edge leads) — crucially, a
	// redirect within the same context, not a 409.
	code, _, _ = doGet(t, ts2, "/go/next", cookie)
	if code != http.StatusSeeOther {
		t.Fatalf("/go/next after restart: code=%d, want 303", code)
	}
	req, _ := http.NewRequest(http.MethodGet, ts2.URL+"/go/up", nil)
	req.AddCookie(&http.Cookie{Name: sessionCookie, Value: cookie})
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, "/ByAuthor/picasso/") {
		t.Errorf("restored session navigates in %q, want ByAuthor:picasso", loc)
	}
}

// TestKillAndRestartResumesHistory: the navigation history — including
// a mid-history cursor with live forward entries — survives the
// persist→rehydrate cycle, so a visitor who went Back before the crash
// can still go Forward after the restart.
func TestKillAndRestartResumesHistory(t *testing.T) {
	dir := t.TempDir()
	st, err := storage.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}

	_, ts := persistentServer(t, st)
	code, _, cookie := doGet(t, ts, "/ByAuthor/picasso/avignon.html", "")
	if code != http.StatusOK || cookie == "" {
		t.Fatalf("first visit: code=%d cookie=%q", code, cookie)
	}
	doGet(t, ts, "/ByAuthor/picasso/guitar.html", cookie)
	doGet(t, ts, "/ByAuthor/picasso/guernica.html", cookie)
	if code, _, _ := doGet(t, ts, "/go/back", cookie); code != http.StatusSeeOther {
		t.Fatalf("/go/back before restart: code=%d", code)
	}
	_, preRestart, _ := doGet(t, ts, "/history", cookie)

	ts.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := storage.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts2 := persistentServer(t, st2)

	code, postRestart, _ := doGet(t, ts2, "/history", cookie)
	if code != http.StatusOK {
		t.Fatalf("/history after restart: code=%d", code)
	}
	if postRestart != preRestart {
		t.Errorf("history lost across restart:\n before: %s after:  %s", preRestart, postRestart)
	}
	// The rehydrated session is mid-history: Forward must reach the
	// entry the pre-crash Back stepped away from.
	code, _, _ = doGet(t, ts2, "/go/forward", cookie)
	if code != http.StatusSeeOther {
		t.Fatalf("/go/forward after restart: code=%d, want 303", code)
	}
	req, _ := http.NewRequest(http.MethodGet, ts2.URL+"/go/forward", nil)
	req.AddCookie(&http.Cookie{Name: sessionCookie, Value: cookie})
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// The first post-restart Forward consumed the only forward entry.
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("second /go/forward = %d, want 409", resp.StatusCode)
	}
}

// TestRehydrationIsLazy: the restarted server rehydrates a session only
// when its cookie shows up, not at startup.
func TestRehydrationIsLazy(t *testing.T) {
	st := storage.NewMem()
	_, ts := persistentServer(t, st)
	_, _, cookie := doGet(t, ts, "/ByAuthor/picasso/guitar.html", "")
	ts.Close()

	srv2, ts2 := persistentServer(t, st)
	if n := srv2.SessionCount(); n != 0 {
		t.Fatalf("sessions rehydrated eagerly: %d", n)
	}
	doGet(t, ts2, "/session", cookie)
	if n := srv2.SessionCount(); n != 1 {
		t.Errorf("session not rehydrated on access: count=%d", n)
	}
}

// TestEvictionDeletesDurableRecord: expiring a session removes its
// record from the store, so the janitor bounds disk as well as memory.
func TestEvictionDeletesDurableRecord(t *testing.T) {
	st := storage.NewMem()
	clock := time.Now()
	now := func() time.Time { return clock }
	srv, ts := persistentServer(t, st, WithSessionTTL(time.Minute), withClock(now))
	_, _, cookie := doGet(t, ts, "/ByAuthor/picasso/guitar.html", "")
	if _, err := st.Get(sessionKeyPrefix + cookie); err != nil {
		t.Fatalf("session not persisted: %v", err)
	}
	clock = clock.Add(2 * time.Minute)
	if n := srv.EvictExpiredSessions(); n != 1 {
		t.Fatalf("evicted = %d, want 1", n)
	}
	if _, err := st.Get(sessionKeyPrefix + cookie); !errors.Is(err, storage.ErrNotFound) {
		t.Errorf("durable record survived eviction: err=%v", err)
	}
}

// TestExpiredRecordNotRehydrated: a durable record past its deadline is
// a miss (and is deleted), even though the janitor never saw it.
func TestExpiredRecordNotRehydrated(t *testing.T) {
	st := storage.NewMem()
	clock := time.Now()
	now := func() time.Time { return clock }
	_, ts := persistentServer(t, st, WithSessionTTL(time.Minute), withClock(now))
	_, _, cookie := doGet(t, ts, "/ByAuthor/picasso/guitar.html", "")
	ts.Close()

	clock = clock.Add(time.Hour)
	srv2, ts2 := persistentServer(t, st, WithSessionTTL(time.Minute), withClock(now))
	_, body, _ := doGet(t, ts2, "/session", cookie)
	if body != "[]\n" {
		t.Errorf("expired session rehydrated: %s", body)
	}
	if srv2.SessionCount() != 0 {
		t.Errorf("expired session tracked")
	}
	if _, err := st.Get(sessionKeyPrefix + cookie); !errors.Is(err, storage.ErrNotFound) {
		t.Errorf("expired record not reaped: err=%v", err)
	}

	// The same deadline holds for a record in either stored form.
	for _, form := range recordForms {
		id := "0e0e0e0e" + form.name
		rec := navigation.Record{State: guitarState(), Expires: clock.Add(-time.Second)}
		if err := st.Put(sessionKeyPrefix+id, form.encode(rec)); err != nil {
			t.Fatal(err)
		}
		if _, body, _ := doGet(t, ts2, "/session", id); body != "[]\n" {
			t.Errorf("%s: expired session rehydrated: %s", form.name, body)
		}
		if _, err := st.Get(sessionKeyPrefix + id); !errors.Is(err, storage.ErrNotFound) {
			t.Errorf("%s: expired record not reaped: err=%v", form.name, err)
		}
	}
}

// recordForms are the two stored forms of a session record: the binary
// one the server writes, and the JSON one earlier servers wrote.
var recordForms = []struct {
	name   string
	encode func(navigation.Record) []byte
}{
	{"binary", func(r navigation.Record) []byte { return navigation.AppendRecord(nil, r) }},
	{"json", func(r navigation.Record) []byte {
		raw, err := json.Marshal(r)
		if err != nil {
			panic(err)
		}
		return raw
	}},
}

// guitarState is a one-visit session at guitar through ByAuthor:picasso.
func guitarState() navigation.SessionState {
	v := navigation.Visit{Context: "ByAuthor:picasso", NodeID: "guitar"}
	return navigation.SessionState{
		Context: v.Context, NodeID: v.NodeID,
		History: []navigation.Visit{v}, Nav: []navigation.Visit{v},
	}
}

// TestLegacyJSONRecordResumes: a record an earlier server wrote as JSON
// rehydrates, and the next save rewrites it in the binary form.
func TestLegacyJSONRecordResumes(t *testing.T) {
	st := storage.NewMem()
	raw, err := json.Marshal(navigation.Record{State: guitarState(), Expires: time.Now().Add(time.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(sessionKeyPrefix+"feedface", raw); err != nil {
		t.Fatal(err)
	}
	_, ts := persistentServer(t, st)
	want := `[{"Context":"ByAuthor:picasso","NodeID":"guitar"}]` + "\n"
	if _, body, _ := doGet(t, ts, "/session", "feedface"); body != want {
		t.Fatalf("legacy record: /session = %q, want %q", body, want)
	}
	if code, _, _ := doGet(t, ts, "/go/next", "feedface"); code != http.StatusSeeOther {
		t.Fatalf("/go/next after rehydrate = %d", code)
	}
	raw, err = st.Get(sessionKeyPrefix + "feedface")
	if err != nil {
		t.Fatal(err)
	}
	if raw[0] == '{' {
		t.Fatalf("record still JSON after a save: %s", raw)
	}
	rec, err := navigation.ParseRecord(raw)
	if err != nil {
		t.Fatal(err)
	}
	if rec.State.NodeID != "guernica" || len(rec.State.History) != 2 {
		t.Errorf("rewritten record = %+v, want guernica after a two-visit trail", rec.State)
	}
}

// TestCorruptRecordIsAMiss: garbage in the store must not take the
// server down — the visitor just starts over.
func TestCorruptRecordIsAMiss(t *testing.T) {
	valid := navigation.AppendRecord(nil, navigation.Record{State: guitarState()})
	unknownVersion := append([]byte(nil), valid...)
	unknownVersion[0] = 0x02
	for _, in := range []struct {
		name string
		raw  []byte
	}{
		{"json", []byte("{not json")},
		{"truncated", valid[:len(valid)/2]},
		// Version, no expiry, a one-string table, then a position whose
		// node index (1) is past it.
		{"index past table", []byte{0x01, 0x00, 0x00, 1, 1, 'x', 0, 1, 0, 0, 0}},
		{"trailing byte", append(append([]byte(nil), valid...), 0)},
		{"unknown version", unknownVersion},
	} {
		t.Run(in.name, func(t *testing.T) {
			st := storage.NewMem()
			if err := st.Put(sessionKeyPrefix+"deadbeef", in.raw); err != nil {
				t.Fatal(err)
			}
			_, ts := persistentServer(t, st)
			code, body, _ := doGet(t, ts, "/session", "deadbeef")
			if code != http.StatusOK || body != "[]\n" {
				t.Errorf("corrupt record: code=%d body=%q", code, body)
			}
			if _, err := st.Get(sessionKeyPrefix + "deadbeef"); !errors.Is(err, storage.ErrNotFound) {
				t.Errorf("corrupt record not deleted: err=%v", err)
			}
		})
	}
}

// TestOrphanedRecordIsAMiss: a stored position the current model no
// longer has (the context was renamed away) yields a fresh session.
func TestOrphanedRecordIsAMiss(t *testing.T) {
	for _, form := range recordForms {
		t.Run(form.name, func(t *testing.T) {
			st := storage.NewMem()
			rec := navigation.Record{State: navigation.SessionState{
				Context: "ByDecade:1930s", // not a paper-museum context
				NodeID:  "guernica",
				History: []navigation.Visit{{Context: "ByDecade:1930s", NodeID: "guernica"}},
			}}
			raw := form.encode(rec)
			if err := st.Put(sessionKeyPrefix+"cafebabe", raw); err != nil {
				t.Fatal(err)
			}
			_, ts := persistentServer(t, st)
			code, body, _ := doGet(t, ts, "/session", "cafebabe")
			if code != http.StatusOK || body != "[]\n" {
				t.Errorf("orphaned record: code=%d body=%q", code, body)
			}
		})
	}
}
