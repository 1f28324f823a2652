package cache

import (
	"io/fs"
	"os"
	"path/filepath"
	"sync/atomic"
)

// Backend is the minimal store contract a cache tier implements: the
// in-memory LRU satisfies it directly (instantiated at []byte), and Dir adds
// a file-backed second level that survives restarts. Backends are best-effort
// by construction — a failed Put or a lost entry is a miss, never an error
// surfaced to the request path.
type Backend interface {
	// Get returns the bytes stored under key, if present.
	Get(key string) ([]byte, bool)
	// Put stores val under key, replacing any existing entry.
	Put(key string, val []byte)
	// Len returns the current number of stored entries.
	Len() int
}

var (
	_ Backend = (*LRU[[]byte])(nil)
	_ Backend = (*Dir)(nil)
)

// Dir is a file-backed Backend: one file per entry under a root directory,
// sharded by the first two characters of the key to keep directories small.
// Keys must be the hex SHA-256 strings Key produces — anything else (wrong
// length, non-hex bytes) is rejected as a miss/no-op rather than risk path
// traversal through a crafted key.
//
// Puts are crash-safe: the value is written to a temp file and renamed into
// place, so a reader never observes a partially written entry and a crash
// mid-put leaves either the old entry or none. Like the LRU, a nil *Dir is
// the disabled store. Unlike the LRU, Dir does not evict; the operator bounds
// it by disk (see docs/operations.md for sizing guidance).
type Dir struct {
	root string

	hits   atomic.Uint64
	misses atomic.Uint64
	puts   atomic.Uint64
	errs   atomic.Uint64
}

// NewDir opens (creating if needed) a file-backed store rooted at dir. An
// empty dir returns nil — the disabled store.
func NewDir(dir string) (*Dir, error) {
	if dir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Dir{root: dir}, nil
}

// ValidKey reports whether key is a plausible Key output: exactly 64
// lowercase hex characters. This is what makes the key safe to use as a file
// name (Dir) or a URL path segment (Peers, and the serving layer's
// /v1/cache/{key} endpoint) with no further escaping.
func ValidKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// path returns the sharded file path for a valid key.
func (d *Dir) path(key string) string {
	return filepath.Join(d.root, key[:2], key)
}

// Get returns the entry stored under key. Missing files and malformed keys
// are misses; read errors count separately but also miss.
func (d *Dir) Get(key string) ([]byte, bool) {
	if d == nil {
		return nil, false
	}
	if !ValidKey(key) {
		d.misses.Add(1)
		return nil, false
	}
	b, err := os.ReadFile(d.path(key))
	if err != nil {
		if !os.IsNotExist(err) {
			d.errs.Add(1)
		}
		d.misses.Add(1)
		return nil, false
	}
	d.hits.Add(1)
	return b, true
}

// Put stores val under key via temp-file + rename. Failures are counted and
// dropped: the store is a cache, and the caller has the value in hand.
func (d *Dir) Put(key string, val []byte) {
	if d == nil {
		return
	}
	if !ValidKey(key) {
		d.errs.Add(1)
		return
	}
	shard := filepath.Join(d.root, key[:2])
	if err := os.MkdirAll(shard, 0o755); err != nil {
		d.errs.Add(1)
		return
	}
	tmp, err := os.CreateTemp(shard, ".put-*")
	if err != nil {
		d.errs.Add(1)
		return
	}
	_, werr := tmp.Write(val)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		d.errs.Add(1)
		return
	}
	if err := os.Rename(tmp.Name(), d.path(key)); err != nil {
		os.Remove(tmp.Name())
		d.errs.Add(1)
		return
	}
	d.puts.Add(1)
}

// Len walks the store and returns the entry count. It is O(entries) — meant
// for the metrics gauge and tests, not the request path.
func (d *Dir) Len() int {
	if d == nil {
		return 0
	}
	n := 0
	filepath.WalkDir(d.root, func(path string, e fs.DirEntry, err error) error {
		if err == nil && !e.IsDir() && ValidKey(e.Name()) {
			n++
		}
		return nil
	})
	return n
}

// Hits returns the monotonic hit count (0 on a nil Dir).
func (d *Dir) Hits() uint64 {
	if d == nil {
		return 0
	}
	return d.hits.Load()
}

// Misses returns the monotonic miss count (0 on a nil Dir).
func (d *Dir) Misses() uint64 {
	if d == nil {
		return 0
	}
	return d.misses.Load()
}

// Puts returns the monotonic successful-put count (0 on a nil Dir).
func (d *Dir) Puts() uint64 {
	if d == nil {
		return 0
	}
	return d.puts.Load()
}

// Errors returns the monotonic count of dropped operations — malformed keys
// on Put, I/O failures on either path (0 on a nil Dir).
func (d *Dir) Errors() uint64 {
	if d == nil {
		return 0
	}
	return d.errs.Load()
}
