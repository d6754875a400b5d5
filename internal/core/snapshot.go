package core

import (
	"bytes"
	"fmt"
	"strings"

	"repro/internal/navigation"
	"repro/internal/storage"
	"repro/internal/xlink"
	"repro/internal/xmldom"
)

// SnapshotPrefix is the key prefix an application's site snapshot lives
// under in a storage.Store.
const SnapshotPrefix = "site/"

// ExportSnapshot writes the application's separated artifacts — every
// data document plus links.xml, the complete woven site definition — into
// st under SnapshotPrefix, and stamps the store with the generation
// number. The bytes are the ones the server hands out, all of one
// generation. The export reads the stored snapshot once: it writes only
// the documents the store does not hold byte for byte, so re-exporting
// an unchanged site costs one Scan and the generation stamp, and deletes
// stale snapshot keys (documents a model change removed), so the
// snapshot always mirrors the current repository exactly. Two navserve
// processes pointed at one durable store thereby share one site
// definition: either can export, the other reloads.
func (app *App) ExportSnapshot(st storage.Store) error {
	g := app.gen.Load()
	held := make(map[string]bool, len(g.docs))
	var stale []string
	if err := st.Scan(SnapshotPrefix, func(k string, v []byte) error {
		uri := strings.TrimPrefix(k, SnapshotPrefix)
		if d := g.docs[uri]; d == nil {
			stale = append(stale, k)
		} else {
			held[uri] = bytes.Equal(v, d.body)
		}
		return nil
	}); err != nil {
		return fmt.Errorf("core: exporting snapshot: %w", err)
	}
	for uri, d := range g.docs {
		if held[uri] {
			continue
		}
		if err := st.Put(SnapshotPrefix+uri, d.body); err != nil {
			return fmt.Errorf("core: exporting snapshot: %w", err)
		}
	}
	for _, k := range stale {
		if err := st.Delete(k); err != nil {
			return fmt.Errorf("core: exporting snapshot: %w", err)
		}
	}
	if err := st.SetGeneration(g.num); err != nil {
		return fmt.Errorf("core: stamping snapshot generation: %w", err)
	}
	return nil
}

// LoadSnapshotRepository reads a site snapshot back out of st into a
// document repository — the same shape App.Repository() serves, so an
// XLink-aware agent in another process can work from the stored site
// definition without rebuilding the conceptual model.
func LoadSnapshotRepository(st storage.Store) (xlink.MapRepository, error) {
	repo := xlink.MapRepository{}
	err := st.Scan(SnapshotPrefix, func(k string, v []byte) error {
		uri := strings.TrimPrefix(k, SnapshotPrefix)
		doc, err := xmldom.ParseString(string(v))
		if err != nil {
			return fmt.Errorf("core: snapshot document %q: %w", uri, err)
		}
		doc.BaseURI = uri
		repo[uri] = doc
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(repo) == 0 {
		return nil, fmt.Errorf("core: store holds no site snapshot")
	}
	return repo, nil
}

// LoadSnapshotContexts reloads the navigational aspect itself: it parses
// the snapshot's links.xml into navigation contexts, proving the stored
// artifact carries the whole navigation structure across processes just
// as the paper argues it carries it across files.
func LoadSnapshotContexts(st storage.Store) ([]*navigation.LinkbaseContext, error) {
	repo, err := LoadSnapshotRepository(st)
	if err != nil {
		return nil, err
	}
	lb, err := repo.Get("links.xml")
	if err != nil {
		return nil, fmt.Errorf("core: snapshot has no linkbase: %w", err)
	}
	return navigation.ParseLinkbase(lb)
}
