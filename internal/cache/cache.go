package cache

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sort"
	"sync"

	"repro/internal/bitstr"
	"repro/internal/core"
	"repro/internal/dist"
)

// DefaultEntries is the serving layer's default cache capacity. The LRU
// bounds entries, not bytes, so the owner must bound the per-entry size
// itself (the HTTP layer refuses to store response bodies over 1 MiB):
// typical QAOA-sized responses (a few thousand outcomes) are tens to a
// couple hundred KiB, so 1024 entries is tens to a few hundred MiB in
// practice and entries × per-entry-cap worst case — sized for one host.
const DefaultEntries = 1024

// Key returns the canonical cache key of one reconstruction request: a
// SHA-256 over the histogram (entries in sorted key order, values as exact
// float64 bits) and every result-affecting option. opts.Workers is excluded
// — parallelism never changes the output — and an empty Engine hashes as
// "auto", its documented meaning, so the two spellings share cache entries.
//
// The serialization is injective for arbitrary string keys (each key is
// length-prefixed), not just for well-formed bitstrings: callers may hash a
// histogram before validating it, and a crafted invalid key must never
// collide with a valid cached entry.
func Key(histogram map[string]float64, opts core.Options) string {
	keys := make([]string, 0, len(histogram))
	for k := range histogram {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ks := newKeyStream()
	for _, k := range keys {
		ks.entry(appendKeyEntry(ks.buf, k, histogram[k]))
	}
	return ks.sum(opts)
}

// KeyEntries is Key for a validated histogram already decoded into n-bit
// entries in strictly ascending outcome order (dist.Histogram.Entries): it
// hashes the byte stream Key hashes for the equivalent map, so both give
// the same key, and entries stored under either are found by both.
func KeyEntries(es []dist.Entry, n int, opts core.Options) string {
	ks := newKeyStream()
	var bits [bitstr.MaxBits]byte
	for _, e := range es {
		ks.entry(appendKeyEntry(ks.buf, bitstr.AppendFormat(bits[:0], e.X, n), e.P))
	}
	return ks.sum(opts)
}

// appendKeyEntry appends one histogram entry in the keys' serialization: the
// key's length and the mass's IEEE-754 bits as little-endian uint64s around
// the key itself. For equal-width bitstrings, ascending string order is
// ascending outcome order, which is why Key and KeyEntries agree.
func appendKeyEntry[K string | []byte](dst []byte, k K, p float64) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(k)))
	dst = append(dst, k...)
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(p))
}

// keyStream batches the serialized entries into few hash writes.
type keyStream struct {
	h   hash.Hash
	buf []byte
}

// keyChunk is how many serialized bytes keyStream gathers per hash write.
const keyChunk = 4096

func newKeyStream() *keyStream {
	return &keyStream{h: sha256.New(), buf: make([]byte, 0, keyChunk+256)}
}

// entry takes buf back after an append and flushes it once it is full.
func (ks *keyStream) entry(buf []byte) {
	ks.buf = buf
	if len(buf) >= keyChunk {
		ks.h.Write(buf)
		ks.buf = buf[:0]
	}
}

// sum hashes the options after the entries and returns the hex key.
func (ks *keyStream) sum(opts core.Options) string {
	h := ks.h
	h.Write(ks.buf)
	engine := opts.Engine
	if engine == "" {
		engine = core.EngineAuto
	}
	fmt.Fprintf(h, "|r=%d|w=%d|f=%t|m=%d|e=%s",
		opts.Radius, opts.Weights, opts.DisableFilter, opts.TopM, engine)
	return hex.EncodeToString(h.Sum(nil))
}

// entry is one cached key/value pair, stored as the list element's payload.
type entry[V any] struct {
	key string
	val V
}

// LRU is a mutex-guarded fixed-capacity least-recently-used map from string
// keys to values. A nil *LRU is the disabled cache: every method is safe and
// Get always misses. See the package documentation for the full contract.
type LRU[V any] struct {
	mu        sync.Mutex
	capacity  int
	ll        *list.List // front = most recently used
	items     map[string]*list.Element
	hits      uint64
	misses    uint64
	evictions uint64
}

// New returns an LRU holding at most capacity entries. A non-positive
// capacity returns nil — the disabled cache.
func New[V any](capacity int) *LRU[V] {
	if capacity <= 0 {
		return nil
	}
	return &LRU[V]{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element, capacity),
	}
}

// Get returns the value cached under key and refreshes its recency. The
// second result reports whether the key was present; every lookup counts as
// a hit or a miss (except on a nil LRU, which misses without counting).
func (c *LRU[V]) Get(key string) (V, bool) {
	var zero V
	if c == nil {
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[key]
	if !ok {
		c.misses++
		return zero, false
	}
	c.hits++
	c.ll.MoveToFront(e)
	return e.Value.(*entry[V]).val, true
}

// Put stores val under key as the most recently used entry, evicting the
// least recently used entry if the cache is full. Storing an existing key
// replaces its value (no eviction). No-op on a nil LRU.
func (c *LRU[V]) Put(key string, val V) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[key]; ok {
		e.Value.(*entry[V]).val = val
		c.ll.MoveToFront(e)
		return
	}
	if c.ll.Len() >= c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*entry[V]).key)
		c.evictions++
	}
	c.items[key] = c.ll.PushFront(&entry[V]{key: key, val: val})
}

// Len returns the current number of cached entries (0 on a nil LRU).
func (c *LRU[V]) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Capacity returns the configured maximum entry count (0 on a nil LRU).
func (c *LRU[V]) Capacity() int {
	if c == nil {
		return 0
	}
	return c.capacity
}

// Hits returns the monotonic hit count (0 on a nil LRU).
func (c *LRU[V]) Hits() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits
}

// Misses returns the monotonic miss count (0 on a nil LRU).
func (c *LRU[V]) Misses() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.misses
}

// Evictions returns the monotonic eviction count (0 on a nil LRU).
func (c *LRU[V]) Evictions() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}
