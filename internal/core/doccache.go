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
// hash per request. rebuild hands it the data documents it re-derived,
// to serialize, and links.xml's body when it changed, as it is; every
// other entry keeps its bytes and its ETag.
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

// serialize writes each of docs in its served form, the two-space
// indented XML of xmldom's AppendIndented, and compares it with the
// cached body. Each document is appended into one scratch buffer, sized
// from the largest cached body among them and reused across documents.
// It returns the bodies of the documents that are new or changed, each
// copied out at its exact size, by uri.
func (dc *docCache) serialize(docs xlink.MapRepository) map[string][]byte {
	dc.mu.RLock()
	defer dc.mu.RUnlock()
	largest := 0
	for uri := range docs {
		largest = max(largest, len(dc.entries[uri].body))
	}
	scratch := make([]byte, 0, largest)
	changed := map[string][]byte{}
	for uri, doc := range docs {
		scratch = doc.AppendIndented(scratch[:0])
		if e, ok := dc.entries[uri]; !ok || !bytes.Equal(e.body, scratch) {
			changed[uri] = bytes.Clone(scratch)
		}
	}
	return changed
}

// store installs changed bodies, stamped under gen. Entries it is not
// handed keep their bytes and ETag — an unchanged document keeps
// validating across model mutations.
func (dc *docCache) store(changed map[string][]byte, gen uint64) {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	for uri, body := range changed {
		dc.entries[uri] = docEntry{body: body, etag: strongETag(gen, body), clen: strconv.Itoa(len(body))}
	}
}
