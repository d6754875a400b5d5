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
// st under SnapshotPrefix, and stamps the store with the page-cache
// generation. The bytes are the serialized-document cache's, the same
// ones the server hands out, and a document the store already holds
// byte for byte is not written again, so re-exporting an unchanged site
// costs the generation stamp alone. Stale snapshot keys (documents a
// model change removed) are deleted, so the snapshot always mirrors the
// current repository exactly. Two navserve processes pointed at one
// durable store thereby share one site definition: either can export,
// the other reloads.
func (app *App) ExportSnapshot(st storage.Store) error {
	app.mu.RLock()
	defer app.mu.RUnlock()
	uris := make([]string, 0, len(app.repo)+1)
	for uri := range app.repo {
		uris = append(uris, uri)
	}
	uris = append(uris, linksURI)
	current := make(map[string]bool, len(uris))
	for _, uri := range uris {
		e, ok := app.docs.get(uri)
		if !ok {
			return fmt.Errorf("core: exporting snapshot: document %q has no serialization", uri)
		}
		key := SnapshotPrefix + uri
		current[key] = true
		if stored, err := st.Get(key); err == nil && bytes.Equal(stored, e.body) {
			continue
		}
		if err := st.Put(key, e.body); err != nil {
			return fmt.Errorf("core: exporting snapshot: %w", err)
		}
	}
	var stale []string
	if err := st.Scan(SnapshotPrefix, func(k string, _ []byte) error {
		if !current[k] {
			stale = append(stale, k)
		}
		return nil
	}); err != nil {
		return fmt.Errorf("core: exporting snapshot: %w", err)
	}
	for _, k := range stale {
		if err := st.Delete(k); err != nil {
			return fmt.Errorf("core: exporting snapshot: %w", err)
		}
	}
	if err := st.SetGeneration(app.cache.generation()); err != nil {
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
