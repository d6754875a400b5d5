package core

import (
	"sync"
	"sync/atomic"
)

// pageKey identifies one woven page: the resolved context and the member
// node (or navigation.HubID for the index page).
type pageKey struct {
	context string
	node    string
}

// pageDeps records what a woven page was woven *from*, so a model
// mutation can drop exactly the dependent entries instead of the whole
// cache — the cache-side expression of the paper's separation: content,
// navigation and presentation change independently, so their cached
// compositions invalidate independently.
type pageDeps struct {
	// context is the resolved context the page renders the structure of.
	context string
	// docs are the repository URIs whose content is woven into the page
	// (the member's own data document; embedded members' documents on a
	// gallery-wall hub).
	docs []string
	// stylesheet marks pages produced through the presentation
	// stylesheet slot (member pages; hub shells never consult it).
	stylesheet bool
}

// flight is one in-progress weave of a page that concurrent misses for
// the same key wait on instead of weaving redundantly.
type flight struct {
	wg   sync.WaitGroup
	page *Page
	err  error
	gen  uint64 // cache generation the weave was rendered under
}

// cacheShard is one lock domain of the page cache.
type cacheShard struct {
	mu       sync.Mutex
	pages    map[pageKey]*Page
	inflight map[pageKey]*flight
}

// pageCacheShards is the fixed shard count; a power of two so the shard
// index is a mask, sized to keep lock collisions rare at request-serving
// concurrency without wasting maps on small sites.
const pageCacheShards = 32

// pageCache memoizes woven pages for the request-time serving path. It
// is sharded — each key hashes onto one of pageCacheShards lock domains,
// so concurrent hits on different pages never contend on one mutex —
// and generation-stamped: every invalidation bumps the atomic
// generation, and a weave result carrying a stale generation is
// discarded, so a render that started before a model mutation can never
// resurrect a stale page.
//
// Invalidation is dependency-aware: invalidateMatching drops only the
// entries whose recorded dependencies (pageDeps) a mutation touched,
// while invalidate drops everything. Both bump the generation.
// Concurrent misses for the same key are coalesced into one weave
// (single-flight, per key), so an invalidation under heavy traffic does
// not stampede the pipeline.
//
// Cached *Page values are shared between callers; treat them as
// immutable (serve Page.Body, do not modify it). A cached page holds
// only its bytes: Doc is nil, and the tree stays on pages that
// RenderPage and WeaveSite return.
type pageCache struct {
	gen    atomic.Uint64
	shards [pageCacheShards]cacheShard
}

func newPageCache() *pageCache {
	c := &pageCache{}
	for i := range c.shards {
		c.shards[i].pages = map[pageKey]*Page{}
		c.shards[i].inflight = map[pageKey]*flight{}
	}
	return c
}

// shard maps a key onto its lock domain with an inline FNV-1a hash (the
// stdlib hash would allocate on this per-request path).
func (c *pageCache) shard(k pageKey) *cacheShard {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(k.context); i++ {
		h ^= uint32(k.context[i])
		h *= prime32
	}
	h ^= 0 // separator between the two key halves
	h *= prime32
	for i := 0; i < len(k.node); i++ {
		h ^= uint32(k.node[i])
		h *= prime32
	}
	return &c.shards[h&(pageCacheShards-1)]
}

// beginOrJoin resolves a lookup three ways: a cached page (returned
// directly), an in-flight weave to wait on (leader false), or leadership
// of a new flight (leader true) that the caller must complete with
// finish.
func (c *pageCache) beginOrJoin(k pageKey) (page *Page, f *flight, leader bool) {
	sh := c.shard(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if p, ok := sh.pages[k]; ok {
		return p, nil, false
	}
	if f, ok := sh.inflight[k]; ok {
		return nil, f, false
	}
	f = &flight{}
	f.wg.Add(1)
	sh.inflight[k] = f
	return nil, f, true
}

// finish completes a flight begun with beginOrJoin: it publishes the
// result to waiters and caches the page unless the generation moved (an
// invalidation raced the weave).
func (c *pageCache) finish(k pageKey, f *flight, page *Page, err error, gen uint64) {
	sh := c.shard(k)
	sh.mu.Lock()
	f.page, f.err, f.gen = page, err, gen
	if sh.inflight[k] == f {
		delete(sh.inflight, k)
	}
	if err == nil && c.gen.Load() == gen {
		sh.pages[k] = page
	}
	sh.mu.Unlock()
	f.wg.Done()
}

// generation returns the current cache generation.
func (c *pageCache) generation() uint64 { return c.gen.Load() }

// invalidate drops every entry and starts a new generation, returning
// how many entries were dropped. In-flight weaves are left to finish;
// their stale generation keeps their result out of the cache and makes
// waiters re-weave.
func (c *pageCache) invalidate() int {
	c.gen.Add(1)
	dropped := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		dropped += len(sh.pages)
		sh.pages = map[pageKey]*Page{}
		sh.mu.Unlock()
	}
	return dropped
}

// invalidateMatching drops only the entries whose page matches pred and
// returns how many were dropped. The generation still advances — a
// weave in flight across the mutation cannot tell whether it depends on
// the mutated input, so its result must not be cached either way (its
// waiters re-weave against the new model).
func (c *pageCache) invalidateMatching(pred func(*Page) bool) int {
	c.gen.Add(1)
	dropped := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for k, p := range sh.pages {
			if pred(p) {
				delete(sh.pages, k)
				dropped++
			}
		}
		sh.mu.Unlock()
	}
	return dropped
}

// size returns the number of cached pages.
func (c *pageCache) size() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.pages)
		sh.mu.Unlock()
	}
	return n
}
