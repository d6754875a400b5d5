package main

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/museum"
	"repro/internal/navigation"
	"repro/internal/storage"
)

// seedStore writes a site snapshot and a set of persisted trails into
// dir, the way navserve -store file runs would leave them: visitors
// dominantly entered ByAuthor:picasso at guernica and walked
// guernica -> avignon -> guitar.
func seedStore(t *testing.T, dir string) {
	t.Helper()
	app, err := core.NewApp(museum.PaperStore(), museum.Model(navigation.IndexedGuidedTour{}))
	if err != nil {
		t.Fatal(err)
	}
	st, err := storage.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := app.ExportSnapshot(st); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 20; v++ {
		state := navigation.SessionState{
			Context: "ByAuthor:picasso",
			NodeID:  "guitar",
			History: []navigation.Visit{
				{Context: "ByAuthor:picasso", NodeID: "guernica"},
				{Context: "ByAuthor:picasso", NodeID: "guernica"}, // a reload, not a hop
				{Context: "ByAuthor:picasso", NodeID: "avignon"},
				{Context: "ByAuthor:picasso", NodeID: "guitar"},
			},
		}
		// Half the visitors were persisted by an earlier navserve, in
		// the legacy JSON form; navstats reads both forms alike.
		raw := navigation.AppendRecord(nil, navigation.Record{State: state})
		if v%2 == 1 {
			var err error
			if raw, err = json.Marshal(navigation.Record{State: state}); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Put(fmt.Sprintf("session/v%02d", v), raw); err != nil {
			t.Fatal(err)
		}
	}
}

func TestNavstatsDerivesFromPersistedTrails(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir)

	var out strings.Builder
	if err := run([]string{"-store-dir", dir, "-min-hops", "10"}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"20 sessions",
		"context ByAuthor:picasso: 60 hops",
		"guernica -> avignon", // top edge of the dominant path
		"derived adaptive-tour for family ByAuthor",
		"order guernica -> avignon -> guitar",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q:\n%s", want, text)
		}
	}
}

func TestNavstatsJSON(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir)

	var out strings.Builder
	if err := run([]string{"-store-dir", dir, "-min-hops", "10", "-format", "json"}, &out); err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Sessions != 20 || rep.Hops != 60 {
		t.Errorf("sessions/hops = %d/%d, want 20/60", rep.Sessions, rep.Hops)
	}
	plan := rep.Tours["ByAuthor"].Contexts["ByAuthor:picasso"]
	if len(plan.Order) == 0 || plan.Order[0] != "guernica" {
		t.Errorf("derived order = %v, want to start at guernica", plan.Order)
	}
}

// TestNavstatsFormatJSON: -format json carries the full transition
// graph alongside the top-K lists.
func TestNavstatsFormatJSON(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir)

	var out strings.Builder
	if err := run([]string{"-store-dir", dir, "-format", "json"}, &out); err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatal(err)
	}
	tr := rep.Contexts["ByAuthor:picasso"].Transitions
	// The dominant path has exactly two distinct transitions:
	// guernica -> avignon and avignon -> guitar, 20 traversals each.
	if len(tr) != 2 {
		t.Fatalf("transitions = %+v, want 2", tr)
	}
	for _, e := range tr {
		if e.Count != 20 {
			t.Errorf("transition %s->%s count = %d, want 20", e.From, e.To, e.Count)
		}
	}
}

// TestNavstatsDOT: -format dot emits a Graphviz digraph with one
// cluster per context, entry edges and weighted transition edges.
func TestNavstatsDOT(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir)

	var out strings.Builder
	if err := run([]string{"-store-dir", dir, "-format", "dot"}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"digraph navstats {",
		`label="ByAuthor:picasso (60 hops)"`,
		`"ByAuthor:picasso/guernica" -> "ByAuthor:picasso/avignon" [label="20"`,
		`"ByAuthor:picasso/avignon" -> "ByAuthor:picasso/guitar" [label="20"`,
		`"ByAuthor:picasso/(entry)" -> "ByAuthor:picasso/guernica" [style=dashed, label="20"]`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("dot output missing %q:\n%s", want, text)
		}
	}
	if !strings.HasSuffix(strings.TrimSpace(text), "}") {
		t.Error("dot output not closed")
	}
	// Deterministic: a second run renders byte-identical output.
	var again strings.Builder
	if err := run([]string{"-store-dir", dir, "-format", "dot"}, &again); err != nil {
		t.Fatal(err)
	}
	if again.String() != text {
		t.Error("dot output not deterministic across runs")
	}
}

func TestNavstatsErrors(t *testing.T) {
	if err := run(nil, &strings.Builder{}); err == nil {
		t.Error("missing -store-dir accepted")
	}
	if err := run([]string{"-store-dir", t.TempDir()}, &strings.Builder{}); err == nil {
		t.Error("empty store accepted")
	}
	if err := run([]string{"-store-dir", t.TempDir(), "-format", "svg"}, &strings.Builder{}); err == nil {
		t.Error("unknown format accepted")
	}
}
