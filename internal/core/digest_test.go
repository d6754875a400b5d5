package core

import (
	"crypto/sha256"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/navigation"
)

// digestStylesheet is the custom presentation the digest manifest pins
// beside the built-in one.
const digestStylesheet = `<s:stylesheet xmlns:s="urn:repro:style">
  <s:template match="Painting">
    <html><head><title><s:value-of select="title"/></title></head>
    <body><h1 class="digest"><s:value-of select="title"/></h1><p><s:value-of select="year"/>, <s:value-of select="technique"/></p></body></html>
  </s:template>
</s:stylesheet>`

// siteDigests returns app's digest manifest, one line per entry, each
// "<label> <kind> <name> <sha256>": one per resolved context over its
// woven pages (sorted path, then body), one over every data document
// (sorted name, then body) and one over links.xml. ETags stay out: they
// carry generation numbers.
func siteDigests(t *testing.T, label string, app *App) []string {
	t.Helper()
	site, err := app.WeaveSite()
	if err != nil {
		t.Fatal(err)
	}
	byContext := map[string][]string{}
	for _, path := range site.Paths() {
		p := site.Page(path)
		byContext[p.Context] = append(byContext[p.Context], path)
	}
	var lines []string
	for _, rc := range app.Resolved().Contexts {
		h := sha256.New()
		for _, path := range byContext[rc.Name] {
			fmt.Fprintf(h, "%s\x00%d\x00", path, len(site.Page(path).Body))
			h.Write(site.Page(path).Body)
		}
		lines = append(lines, fmt.Sprintf("%s context %s %x", label, rc.Name, h.Sum(nil)))
	}
	var names []string
	for _, inst := range app.Store().Instances() {
		names = append(names, navigation.NodeHref(inst.ID))
	}
	sort.Strings(names)
	if n := app.DocumentCount(); n != len(names)+1 {
		t.Fatalf("%s: the App holds %d documents, want %d data documents and links.xml", label, n, len(names))
	}
	h := sha256.New()
	for _, name := range names {
		body, _, _, err := app.DocBytes(name)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s\x00%d\x00", name, len(body))
		h.Write(body)
	}
	lines = append(lines, fmt.Sprintf("%s documents %d %x", label, len(names), h.Sum(nil)))
	links, _, _, err := app.DocBytes(linksURI)
	if err != nil {
		t.Fatal(err)
	}
	return append(lines, fmt.Sprintf("%s linkbase %s %x", label, linksURI, sha256.Sum256(links)))
}

// TestSiteDigestsMatchManifest: every byte the site serves — each woven
// page, each data document and links.xml — hashes to the manifest in
// testdata, for the 50/20/8 synthetic museum under the built-in and a
// custom presentation, and for the paper museum with embedded members.
// The manifest changes only with a change meant to change served bytes.
func TestSiteDigestsMatchManifest(t *testing.T) {
	app := benchMuseum(t)
	got := siteDigests(t, "museum", app)
	if err := app.SetStylesheetXML(digestStylesheet); err != nil {
		t.Fatal(err)
	}
	got = append(got, siteDigests(t, "museum+stylesheet", app)...)
	got = append(got, siteDigests(t, "embed", behaviorApp(t, "embed"))...)

	raw, err := os.ReadFile("testdata/site-digests.txt")
	if err != nil {
		t.Logf("computed manifest:\n%s", strings.Join(got, "\n"))
		t.Fatal(err)
	}
	var want []string
	for _, line := range strings.Split(string(raw), "\n") {
		if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	wantSet := make(map[string]bool, len(want))
	for _, line := range want {
		wantSet[line] = true
	}
	gotSet := make(map[string]bool, len(got))
	for _, line := range got {
		gotSet[line] = true
	}
	mismatch := false
	for _, line := range got {
		if !wantSet[line] {
			mismatch = true
			t.Errorf("computed, not in the manifest: %s", line)
		}
	}
	for _, line := range want {
		if !gotSet[line] {
			mismatch = true
			t.Errorf("in the manifest, not computed: %s", line)
		}
	}
	if mismatch {
		t.Logf("computed manifest:\n%s", strings.Join(got, "\n"))
	}
}
