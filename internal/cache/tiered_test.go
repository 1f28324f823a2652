package cache

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fleettest"
)

// tieredFixture is one chain over real tiers: an LRU, a Dir under a temp
// directory, and a fake peer replica. Each tier can be left out.
type tieredFixture struct {
	t    *Tiered
	peer *fleettest.Peer
}

func newTieredFixture(t *testing.T, l1, l2, peers bool) *tieredFixture {
	t.Helper()
	f := &tieredFixture{t: &Tiered{}}
	if l1 {
		f.t.L1 = New[[]byte](8)
	}
	if l2 {
		d, err := NewDir(filepath.Join(t.TempDir(), "l2"))
		if err != nil {
			t.Fatal(err)
		}
		f.t.L2 = d
	}
	// The peer exists either way, so a test can check it was never asked.
	f.peer = fleettest.New(fleettest.Config{})
	t.Cleanup(f.peer.Close)
	if peers {
		f.t.Peers = NewPeers(PeersConfig{Peers: []string{f.peer.URL()}})
	}
	return f
}

// fetch runs Fetch with a fill that records whether it ran.
func (f *tieredFixture) fetch(key, engine string, body []byte) (string, []byte, Tier, bool) {
	filled := false
	e, b, tier, err := f.t.Fetch(func() string { return key }, func() (string, []byte, error) {
		filled = true
		return engine, body, nil
	})
	if err != nil {
		panic(err)
	}
	return e, b, tier, filled
}

// TestTieredFrameGolden pins the entry frame to the bytes earlier versions
// wrote to -cache-dir files and served to peer probes: a uvarint length, the
// engine name, the body verbatim.
func TestTieredFrameGolden(t *testing.T) {
	body := []byte("{\n \"dist\": {\"01\": 1}\n}\n")
	long := strings.Repeat("e", 200)
	for _, tc := range []struct {
		engine string
		want   []byte
	}{
		{"blocked", append([]byte("\x07blocked"), body...)},
		{"", append([]byte{0}, body...)},
		{long, append(append([]byte{0xc8, 0x01}, long...), body...)},
	} {
		got := EncodeEntry(tc.engine, body)
		if !bytes.Equal(got, tc.want) {
			t.Errorf("EncodeEntry(%.10q) = %q, want %q", tc.engine, got, tc.want)
		}
		if cap(got) != len(got) {
			t.Errorf("EncodeEntry(%.10q): cap %d, len %d", tc.engine, cap(got), len(got))
		}
		engine, b, ok := DecodeEntry(got)
		if !ok || engine != tc.engine || !bytes.Equal(b, body) {
			t.Errorf("DecodeEntry(EncodeEntry(%.10q)) = %.10q, %q, %v", tc.engine, engine, b, ok)
		}
	}
	for _, bad := range [][]byte{nil, {0x80}, []byte("\x09short"), {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}} {
		if _, _, ok := DecodeEntry(bad); ok {
			t.Errorf("DecodeEntry(%q) accepted a malformed frame", bad)
		}
	}
}

// TestTieredPromotion: a hit at each tier is served with its tier and
// promoted into every configured tier above it, with any one tier absent.
func TestTieredPromotion(t *testing.T) {
	body := []byte(`{"dist": {}}`)
	frame := EncodeEntry("exact", body)
	for _, tc := range []struct {
		l1, l2, peers bool
		at            Tier
	}{
		{true, true, true, HitL1},
		{true, false, true, HitL1},
		{true, true, false, HitL1},
		{true, true, true, HitL2},
		{false, true, true, HitL2},
		{true, true, false, HitL2},
		{true, true, true, HitPeer},
		{false, true, true, HitPeer},
		{true, false, true, HitPeer},
		{false, false, true, HitPeer},
	} {
		name := fmt.Sprintf("l1=%t/l2=%t/peers=%t/at=%d", tc.l1, tc.l2, tc.peers, tc.at)
		t.Run(name, func(t *testing.T) {
			f := newTieredFixture(t, tc.l1, tc.l2, tc.peers)
			key := testKey(t, name)
			switch tc.at {
			case HitL1:
				f.t.L1.Put(key, frame)
			case HitL2:
				f.t.L2.Put(key, frame)
			case HitPeer:
				f.peer.SetEntry(key, frame)
			}
			engine, got, tier, filled := f.fetch(key, "never", nil)
			if filled || tier != tc.at || engine != "exact" || !bytes.Equal(got, body) {
				t.Fatalf("Fetch = %q, %q, tier %d, filled %t", engine, got, tier, filled)
			}
			// Promoted: every configured local tier above the hit now holds
			// the same frame, L1 at exactly its length.
			if tc.l1 {
				raw, ok := f.t.L1.Get(key)
				if !ok || !bytes.Equal(raw, frame) || cap(raw) != len(raw) {
					t.Errorf("L1 holds %q (ok %t, cap %d)", raw, ok, cap(raw))
				}
			}
			if tc.l2 && tc.at >= HitL2 {
				if raw, ok := f.t.L2.Get(key); !ok || !bytes.Equal(raw, frame) {
					t.Errorf("L2 holds %q (ok %t)", raw, ok)
				}
			}
			if tc.l2 && tc.at == HitL2 && f.t.L2.Puts() != 1 {
				t.Errorf("an L2 hit was written back to L2 (%d puts)", f.t.L2.Puts())
			}
			// The next lookup stays local whenever a local tier exists.
			if tc.l1 || tc.l2 {
				gets := f.peer.CacheGets()
				if _, _, tier, _ := f.fetch(key, "never", nil); tier == HitPeer || f.peer.CacheGets() != gets {
					t.Errorf("second lookup went to the peer (tier %d)", tier)
				}
			}
		})
	}
}

// TestTieredMissStoresLocally: a miss everywhere runs fill once and stores
// the frame in L1 (at exactly its length) and L2; the peer tier is read-only.
func TestTieredMissStoresLocally(t *testing.T) {
	f := newTieredFixture(t, true, true, true)
	key := testKey(t, "miss")
	body := make([]byte, 3, 64)
	copy(body, "{}\n")
	engine, got, tier, filled := f.fetch(key, "blocked", body)
	if !filled || tier != Miss || engine != "blocked" || !bytes.Equal(got, body) {
		t.Fatalf("Fetch = %q, %q, tier %d, filled %t", engine, got, tier, filled)
	}
	want := EncodeEntry("blocked", body)
	raw, ok := f.t.L1.Get(key)
	if !ok || !bytes.Equal(raw, want) || cap(raw) != len(raw) {
		t.Errorf("L1 holds %q (ok %t, cap %d)", raw, ok, cap(raw))
	}
	if raw, ok := f.t.L2.Get(key); !ok || !bytes.Equal(raw, want) {
		t.Errorf("L2 holds %q (ok %t)", raw, ok)
	}
	if f.t.L1.Misses() != 1 || f.t.L2.Misses() != 1 || f.t.L2.Puts() != 1 ||
		f.t.Peers.Misses() != 1 || f.peer.CacheGets() != 1 {
		t.Errorf("counters: L1 misses %d, L2 misses %d puts %d, peer misses %d gets %d",
			f.t.L1.Misses(), f.t.L2.Misses(), f.t.L2.Puts(), f.t.Peers.Misses(), f.peer.CacheGets())
	}
}

// TestTieredFillError: a failed fill is returned as is and stores nothing.
func TestTieredFillError(t *testing.T) {
	f := newTieredFixture(t, true, true, false)
	key := testKey(t, "fill-error")
	boom := errors.New("boom")
	_, _, tier, err := f.t.Fetch(func() string { return key }, func() (string, []byte, error) {
		return "exact", []byte("partial"), boom
	})
	if err != boom || tier != Miss {
		t.Fatalf("Fetch = tier %d, err %v", tier, err)
	}
	if f.t.L1.Len() != 0 || f.t.L2.Len() != 0 {
		t.Errorf("stored after a fill error: L1 %d, L2 %d", f.t.L1.Len(), f.t.L2.Len())
	}
}

// TestTieredSizeCap: a body over MaxEntryBody is served but stored in no
// tier, whether it was just computed or found at a lower tier.
func TestTieredSizeCap(t *testing.T) {
	big := bytes.Repeat([]byte("x"), MaxEntryBody+1)
	f := newTieredFixture(t, true, true, true)
	key := testKey(t, "big-miss")
	if _, got, tier, _ := f.fetch(key, "exact", big); tier != Miss || len(got) != len(big) {
		t.Fatalf("over-cap miss: tier %d, %d bytes", tier, len(got))
	}
	if f.t.L1.Len() != 0 || f.t.L2.Len() != 0 || f.t.L2.Puts() != 0 {
		t.Errorf("over-cap body stored: L1 %d, L2 %d", f.t.L1.Len(), f.t.L2.Len())
	}

	key = testKey(t, "big-peer")
	f.peer.SetEntry(key, EncodeEntry("exact", big))
	if _, got, tier, _ := f.fetch(key, "never", nil); tier != HitPeer || len(got) != len(big) {
		t.Fatalf("over-cap peer hit: tier %d, %d bytes", tier, len(got))
	}
	if f.t.L1.Len() != 0 || f.t.L2.Len() != 0 {
		t.Errorf("over-cap peer hit promoted: L1 %d, L2 %d", f.t.L1.Len(), f.t.L2.Len())
	}

	// Exactly at the cap is stored.
	key = testKey(t, "at-cap")
	f.fetch(key, "exact", big[:MaxEntryBody])
	if _, ok := f.t.L1.Get(key); !ok {
		t.Error("a body of exactly MaxEntryBody was not stored")
	}
}

// TestTieredCorruptEntry: an L2 entry that fails to parse is a miss at L2;
// the walk goes on to the peer, and the peer's frame overwrites it. With no
// peer entry either, the computed response overwrites it.
func TestTieredCorruptEntry(t *testing.T) {
	f := newTieredFixture(t, false, true, true)
	key := testKey(t, "corrupt")
	f.t.L2.Put(key, []byte{0x7f})
	good := EncodeEntry("exact", []byte("peer body"))
	f.peer.SetEntry(key, good)
	if engine, got, tier, filled := f.fetch(key, "never", nil); filled || tier != HitPeer ||
		engine != "exact" || string(got) != "peer body" {
		t.Fatalf("Fetch = %q, %q, tier %d, filled %t", engine, got, tier, filled)
	}
	if raw, _ := f.t.L2.Get(key); !bytes.Equal(raw, good) {
		t.Errorf("L2 still holds %q", raw)
	}

	key = testKey(t, "corrupt-miss")
	f.t.L2.Put(key, []byte{0x7f})
	if _, _, tier, filled := f.fetch(key, "blocked", []byte("fresh")); !filled || tier != Miss {
		t.Fatalf("corrupt L2, no peer entry: tier %d, filled %t", tier, filled)
	}
	if raw, _ := f.t.L2.Get(key); !bytes.Equal(raw, EncodeEntry("blocked", []byte("fresh"))) {
		t.Errorf("miss did not overwrite the corrupt entry: %q", raw)
	}
}

// TestTieredLocal: the local-only lookup reads L1 then L2 and returns the
// stored frame as is; it never probes a peer and never promotes.
func TestTieredLocal(t *testing.T) {
	f := newTieredFixture(t, true, true, true)
	frame := EncodeEntry("exact", []byte("body"))
	inL1, inL2, atPeer := testKey(t, "l1"), testKey(t, "l2"), testKey(t, "peer")
	f.t.L1.Put(inL1, frame)
	f.t.L2.Put(inL2, frame)
	f.peer.SetEntry(atPeer, frame)
	for _, key := range []string{inL1, inL2} {
		if raw, ok := f.t.Local(key); !ok || !bytes.Equal(raw, frame) {
			t.Errorf("Local(%s) = %q, %t", key[:8], raw, ok)
		}
	}
	if _, ok := f.t.Local(atPeer); ok {
		t.Error("Local served a peer's entry")
	}
	if f.peer.CacheGets() != 0 {
		t.Errorf("Local probed the peer %d times", f.peer.CacheGets())
	}
	if _, ok := f.t.L1.Get(inL2); ok {
		t.Error("Local promoted an L2 entry into L1")
	}
}

// TestTieredUncached: with no tier configured, Fetch runs fill and never
// computes the key.
func TestTieredUncached(t *testing.T) {
	engine, body, tier, err := (&Tiered{}).Fetch(
		func() string { panic("key computed with no tier configured") },
		func() (string, []byte, error) { return "exact", []byte("b"), nil })
	if err != nil || tier != Uncached || engine != "exact" || string(body) != "b" {
		t.Fatalf("Fetch = %q, %q, tier %d, %v", engine, body, tier, err)
	}
}
