package storage

import (
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// memShard is one lock domain of a Mem store.
type memShard struct {
	mu      sync.RWMutex
	entries map[string][]byte
}

// Mem is the in-memory Store backend: a sharded map, the same shape the
// server's session table always had, now behind the Store interface so
// the serving stack is backend-agnostic. It survives nothing — a process
// restart loses everything — which is exactly the behaviour the file
// backend exists to fix.
type Mem struct {
	shards []*memShard
	gen    atomic.Uint64
	closed atomic.Bool
}

// DefaultMemShards is the shard count NewMem uses.
const DefaultMemShards = 16

// NewMem returns an empty in-memory store.
func NewMem() *Mem {
	m := &Mem{shards: make([]*memShard, DefaultMemShards)}
	for i := range m.shards {
		m.shards[i] = &memShard{entries: map[string][]byte{}}
	}
	return m
}

// shard maps a key onto its lock domain.
func (m *Mem) shard(key string) *memShard {
	h := fnv.New32a()
	_, _ = h.Write([]byte(key))
	return m.shards[h.Sum32()%uint32(len(m.shards))]
}

// Get implements Store.
func (m *Mem) Get(key string) ([]byte, error) {
	if m.closed.Load() {
		return nil, ErrClosed
	}
	sh := m.shard(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	v, ok := sh.entries[key]
	if !ok {
		return nil, ErrNotFound
	}
	return append([]byte(nil), v...), nil
}

// Put implements Store.
func (m *Mem) Put(key string, value []byte) error {
	if m.closed.Load() {
		return ErrClosed
	}
	sh := m.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.entries[key] = append([]byte(nil), value...)
	return nil
}

// Delete implements Store.
func (m *Mem) Delete(key string) error {
	if m.closed.Load() {
		return ErrClosed
	}
	sh := m.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	delete(sh.entries, key)
	return nil
}

// Scan implements Store. The matching entries are copied shard by
// shard, then visited in sorted order with no lock held.
func (m *Mem) Scan(prefix string, fn func(key string, value []byte) error) error {
	if m.closed.Load() {
		return ErrClosed
	}
	matched := map[string][]byte{}
	for _, sh := range m.shards {
		sh.mu.RLock()
		for k, v := range sh.entries {
			if strings.HasPrefix(k, prefix) {
				matched[k] = append([]byte(nil), v...)
			}
		}
		sh.mu.RUnlock()
	}
	keys := make([]string, 0, len(matched))
	for k := range matched {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if err := fn(k, matched[k]); err != nil {
			return err
		}
	}
	return nil
}

// Generation implements Store.
func (m *Mem) Generation() (uint64, error) {
	if m.closed.Load() {
		return 0, ErrClosed
	}
	return m.gen.Load(), nil
}

// SetGeneration implements Store.
func (m *Mem) SetGeneration(gen uint64) error {
	if m.closed.Load() {
		return ErrClosed
	}
	m.gen.Store(gen)
	return nil
}

// Name implements Store.
func (m *Mem) Name() string { return "mem" }

// Close implements Store.
func (m *Mem) Close() error {
	m.closed.Store(true)
	return nil
}
