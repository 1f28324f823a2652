package cache

import "encoding/binary"

// MaxEntryBody caps one cached response body (~20k outcomes at ~50 bytes
// each). Together with the LRU's entry count it bounds L1 memory at
// entries × 1 MiB worst case, and it bounds per-entry L2 disk use. Bodies
// over it are served but stored in no tier.
const MaxEntryBody = 1 << 20

// Tier reports where Tiered.Fetch found a response.
type Tier uint8

const (
	// Uncached: no tier is configured, so fill ran and nothing was stored.
	Uncached Tier = iota
	// Miss: every tier missed, so fill ran and its response was stored.
	Miss
	// HitL1: the in-memory LRU held the entry.
	HitL1
	// HitL2: the directory store held it (and L1 now does too).
	HitL2
	// HitPeer: a peer replica held it (and the local tiers now do too).
	HitPeer
)

// Tiered is the result-cache chain: L1 (the in-memory LRU), L2 (the
// file-backed Dir) and L3 (peer replicas' caches), walked in that order. Any
// tier may be nil, the disabled tier.
//
// Every tier holds the same bytes for a key: one entry frame (EncodeEntry)
// of the engine name and the rendered response body. L1 holds each frame at
// exactly its length, so no render or read buffer's slack lives as long as
// the entry. Entries are immutable once stored.
type Tiered struct {
	L1    *LRU[[]byte]
	L2    *Dir
	Peers *Peers
}

// Fetch returns the response cached under key and the tier that held it. An
// entry that fails to parse is a miss at its tier, and the walk continues. A
// hit is promoted into every configured tier above it. When every tier
// misses, Fetch returns what fill computes and stores it in every local
// tier; on a fill error nothing is stored and the error is returned as is.
//
// key is called only when some tier is configured, so a server with no cache
// never hashes a request; with none, Fetch just runs fill and reports
// Uncached.
func (t *Tiered) Fetch(key func() string, fill func() (engine string, body []byte, err error)) (engine string, body []byte, tier Tier, err error) {
	if t.L1 == nil && t.L2 == nil && t.Peers == nil {
		engine, body, err = fill()
		return engine, body, Uncached, err
	}
	k := key()
	for i, b := range [...]Backend{t.L1, t.L2, t.Peers} {
		raw, ok := b.Get(k)
		if !ok {
			continue
		}
		engine, body, ok := DecodeEntry(raw)
		if !ok {
			continue
		}
		if i > 0 && len(body) <= MaxEntryBody {
			t.promote(k, raw, i)
		}
		return engine, body, HitL1 + Tier(i), nil
	}
	engine, body, err = fill()
	if err != nil {
		return engine, body, Miss, err
	}
	if len(body) <= MaxEntryBody {
		frame := EncodeEntry(engine, body)
		t.L1.Put(k, frame)
		t.L2.Put(k, frame)
	}
	return engine, body, Miss, nil
}

// promote stores a frame found at tier i (1 = L2, 2 = peers) in the local
// tiers above it. L1 gets its one exact-length copy; L2 writes the bytes out.
func (t *Tiered) promote(key string, raw []byte, i int) {
	if t.L1 != nil {
		t.L1.Put(key, append(make([]byte, 0, len(raw)), raw...))
	}
	if i > 1 {
		t.L2.Put(key, raw)
	}
}

// Local returns the frame stored under key in L1, then L2, exactly as
// stored. It probes no peer and promotes nothing: it serves peers' L3 probes
// (GET /v1/cache/{key}), so a fleet of mutually configured replicas cannot
// turn one miss into a probe storm.
func (t *Tiered) Local(key string) ([]byte, bool) {
	if raw, ok := t.L1.Get(key); ok {
		return raw, true
	}
	return t.L2.Get(key)
}

// EncodeEntry frames one cache entry, in a buffer of exactly its length:
// the engine name's length as a uvarint, the name, then the rendered body
// verbatim. -cache-dir files and peer probe answers use this frame, so it
// must not change.
func EncodeEntry(engine string, body []byte) []byte {
	var hdr [binary.MaxVarintLen64]byte
	m := binary.PutUvarint(hdr[:], uint64(len(engine)))
	out := make([]byte, 0, m+len(engine)+len(body))
	out = append(out, hdr[:m]...)
	out = append(out, engine...)
	return append(out, body...)
}

// DecodeEntry is EncodeEntry's inverse. ok=false means the entry is
// malformed; body aliases raw.
func DecodeEntry(raw []byte) (engine string, body []byte, ok bool) {
	n, m := binary.Uvarint(raw)
	if m <= 0 || n > uint64(len(raw)-m) {
		return "", nil, false
	}
	return string(raw[m : m+int(n)]), raw[m+int(n):], true
}
