package core

import (
	"bytes"
	"strconv"
	"sync"

	"repro/internal/xlink"
)

// docEntry is one serialized repository document with its precomputed
// validator and Content-Length, so the serve path writes headers
// without formatting anything.
type docEntry struct {
	body []byte
	etag string
	clen string
}

// docCache holds the serialized form of every repository document
// (links.xml and the node data files) with its strong ETag, so serving a
// document costs a map lookup instead of a tree serialization and a body
// hash per request. rebuild reseeds it wholesale; InvalidateDocument
// replaces single entries.
type docCache struct {
	mu      sync.RWMutex
	entries map[string]docEntry
}

func newDocCache() *docCache { return &docCache{entries: map[string]docEntry{}} }

// get returns the cached serialization of uri.
func (dc *docCache) get(uri string) (docEntry, bool) {
	dc.mu.RLock()
	defer dc.mu.RUnlock()
	e, ok := dc.entries[uri]
	return e, ok
}

// serialize writes every document of repo in its served form, the
// two-space indented XML of xmldom's AppendIndented, and compares it with
// the cached body. Each document is appended into one scratch buffer,
// sized from the largest cached body and reused across documents. A
// document whose bytes did not change keeps its cached slice; only a new
// or changed one is copied out, at its exact size. It returns the bodies
// by uri and the uris that are new, changed or deleted.
func (dc *docCache) serialize(repo xlink.MapRepository) (bodies map[string][]byte, changed map[string]bool) {
	dc.mu.RLock()
	defer dc.mu.RUnlock()
	largest := 0
	for _, e := range dc.entries {
		largest = max(largest, len(e.body))
	}
	scratch := make([]byte, 0, largest)
	bodies = make(map[string][]byte, len(repo))
	changed = map[string]bool{}
	for uri, doc := range repo {
		scratch = doc.AppendIndented(scratch[:0])
		if e, ok := dc.entries[uri]; ok && bytes.Equal(e.body, scratch) {
			bodies[uri] = e.body
			continue
		}
		bodies[uri] = bytes.Clone(scratch)
		changed[uri] = true
	}
	for uri := range dc.entries {
		if _, ok := repo[uri]; !ok {
			changed[uri] = true
		}
	}
	return bodies, changed
}

// reseed replaces the cache with the given serialization. Entries whose
// bytes did not change keep their previous ETag — an unchanged document
// keeps validating across model mutations — while changed ones are
// stamped under gen.
func (dc *docCache) reseed(serialized map[string][]byte, changed map[string]bool, gen uint64) {
	entries := make(map[string]docEntry, len(serialized))
	dc.mu.Lock()
	defer dc.mu.Unlock()
	for uri, body := range serialized {
		if !changed[uri] {
			if e, ok := dc.entries[uri]; ok {
				entries[uri] = e
				continue
			}
		}
		entries[uri] = docEntry{body: body, etag: strongETag(gen, body), clen: strconv.Itoa(len(body))}
	}
	dc.entries = entries
}
