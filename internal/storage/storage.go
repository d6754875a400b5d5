// Package storage is the persistence subsystem behind the XLink-aware
// user agent: a small key/value Store interface with pluggable backends.
// Two things live in a store today — visitor sessions (the paper's §2
// context trails, in the binary record format of internal/navigation,
// written by internal/server) and site snapshots (the separated data
// documents plus links.xml, exported by internal/core) — so that a
// restart of the agent loses neither the navigational artifact nor
// anyone's position in it.
//
// Backends:
//
//   - Mem: the in-process map the server always had, now behind the
//     interface. Fast, shared by nothing, durable across nothing.
//   - File: an append-only record log with periodic snapshot
//     compaction. Crash-safe: snapshots are written to a temp file and
//     renamed into place, and a torn final log record (a crash mid-
//     append) is detected and discarded on reopen. Only keys and value
//     locations are kept in memory (about 100 bytes per session key);
//     values are read from the snapshot and log files with pread.
//
// Every backend must pass the shared conformance suite in
// internal/storage/storagetest.
package storage

import (
	"errors"
	"sort"
)

// ErrNotFound is returned by Get for keys with no value.
var ErrNotFound = errors.New("storage: key not found")

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("storage: store is closed")

// Store is a durable (or deliberately non-durable) key/value space with
// an atomically stamped generation counter. Implementations must be safe
// for concurrent use.
//
// The generation is a single uint64 the owner stamps to mark which
// version of the world the stored values belong to — internal/core
// stamps it with the page-cache generation when exporting a site
// snapshot, so a reader can tell whether two stores hold the same woven
// site definition.
type Store interface {
	// Get returns the value stored under key, or ErrNotFound.
	// The returned slice is the caller's to keep: mutating it must not
	// affect the store.
	Get(key string) ([]byte, error)
	// Put stores value under key, replacing any previous value. The
	// store keeps its own copy: the caller may reuse the slice.
	Put(key string, value []byte) error
	// Delete removes key. Deleting an absent key is not an error.
	Delete(key string) error
	// Scan calls fn for every key with the given prefix, in sorted key
	// order, with the same copy semantics as Get. A non-nil error from
	// fn stops the scan and is returned.
	Scan(prefix string, fn func(key string, value []byte) error) error
	// Generation returns the current generation stamp (zero initially).
	Generation() (uint64, error)
	// SetGeneration stamps the store with gen, atomically with respect
	// to concurrent operations, and durably for durable backends.
	SetGeneration(gen uint64) error
	// Name identifies the backend ("mem", "file") for diagnostics such
	// as /healthz.
	Name() string
	// Close flushes and releases the store. Operations after Close
	// return ErrClosed. Closing twice is not an error.
	Close() error
}

// scanSorted delivers a pre-copied snapshot of matching entries to fn in
// sorted key order — the Scan contract both built-in backends share, so
// its ordering and copy semantics cannot drift between them.
func scanSorted(matched map[string][]byte, fn func(key string, value []byte) error) error {
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
