package serve

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/wal"
)

// histOf snapshots a session's accumulated histogram through Do.
func histOf(t *testing.T, m *Manager, id string) map[uint64]int {
	t.Helper()
	h := make(map[uint64]int)
	if err := m.Do(id, func(st *stream.Stream) error {
		st.Counts().Range(func(x uint64, k int) { h[x] = k })
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHandoffAdoptRoundTrip(t *testing.T) {
	src := NewManager(Config{})
	if _, err := src.CreateOwned("sess", "alice", 8, core.Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	ingest(t, src, "sess", []wal.Pair{{X: 0b101, K: 3}, {X: 0b1, K: 7}})
	want := histOf(t, src, "sess")

	var shipped []byte
	if err := src.Handoff("sess", func(raw []byte) error {
		shipped = append([]byte(nil), raw...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Tombstoned at the source: later requests 404, the id is free again.
	if err := src.Do("sess", func(*stream.Stream) error { return nil }); !errors.Is(err, ErrNotFound) {
		t.Fatalf("source after handoff: %v", err)
	}
	if src.Len() != 0 {
		t.Fatalf("source len %d", src.Len())
	}

	dst := NewManager(Config{})
	sess, err := dst.Adopt("sess", shipped)
	if err != nil {
		t.Fatal(err)
	}
	if sess.owner != "alice" {
		t.Errorf("owner %q survived handoff", sess.owner)
	}
	got := histOf(t, dst, "sess")
	if len(got) != len(want) {
		t.Fatalf("support %d != %d", len(got), len(want))
	}
	for x, k := range want {
		if got[x] != k {
			t.Errorf("count[%b] = %d, want %d", x, got[x], k)
		}
	}
	// The adopted session is live: it keeps ingesting.
	ingest(t, dst, "sess", []wal.Pair{{X: 0b11, K: 1}})
	if h := histOf(t, dst, "sess"); h[0b11] != 1 {
		t.Errorf("post-adopt ingest: %v", h)
	}
}

func TestHandoffShipFailureKeepsSession(t *testing.T) {
	m := NewManager(Config{})
	if _, err := m.Create("keep", 8, core.Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	ingest(t, m, "keep", []wal.Pair{{X: 1, K: 2}})
	shipErr := fmt.Errorf("peer unreachable")
	if err := m.Handoff("keep", func([]byte) error { return shipErr }); !errors.Is(err, shipErr) {
		t.Fatalf("Handoff = %v", err)
	}
	// The failed ship changed nothing: the session is live with its state.
	if h := histOf(t, m, "keep"); h[1] != 2 {
		t.Errorf("session state after failed ship: %v", h)
	}
	if err := m.Handoff("nope", func([]byte) error { return nil }); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown id: %v", err)
	}
}

func TestHandoffDurableTombstone(t *testing.T) {
	dir := t.TempDir()
	j, _ := openJournal(t, dir)
	m := NewManager(Config{Journal: j})
	if _, err := m.Create("durable", 8, core.Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	ingest(t, m, "durable", []wal.Pair{{X: 4, K: 4}})
	if err := m.Handoff("durable", func([]byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	// The journal log went with the session: a restart over the same
	// directory must not resurrect what a peer now owns.
	if _, err := os.Stat(filepath.Join(dir, "sessions", "durable.wal")); !os.IsNotExist(err) {
		t.Errorf("handed-off session's log survives: %v", err)
	}
}

func TestAdoptRejectsCorruptWhole(t *testing.T) {
	src := NewManager(Config{})
	if _, err := src.Create("sess", 8, core.Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	ingest(t, src, "sess", []wal.Pair{{X: 1, K: 1}, {X: 2, K: 2}})
	var raw []byte
	if err := src.Handoff("sess", func(b []byte) error { raw = b; return nil }); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	j, _ := openJournal(t, dir)
	dst := NewManager(Config{Journal: j})
	bad := map[string][]byte{
		"empty":     nil,
		"truncated": raw[:len(raw)-2],
		"flipped":   append(append([]byte(nil), raw[:len(raw)/2]...), append([]byte{raw[len(raw)/2] ^ 0xFF}, raw[len(raw)/2+1:]...)...),
		"tail":      append(append([]byte(nil), raw...), 1, 2, 3),
	}
	for name, b := range bad {
		if bytes.Equal(b, raw) {
			t.Fatalf("case %s did not mutate", name)
		}
		if _, err := dst.Adopt("sess", b); !errors.Is(err, ErrBadHandoff) {
			t.Errorf("%s: Adopt = %v, want ErrBadHandoff", name, err)
		}
	}
	// Nothing half-imported: no session, no journal files.
	if dst.Len() != 0 {
		t.Fatalf("half-imported sessions: %d", dst.Len())
	}
	entries, err := os.ReadDir(filepath.Join(dir, "sessions"))
	if err == nil && len(entries) != 0 {
		t.Errorf("rejected adopts left %d journal files", len(entries))
	}
	if _, err := dst.Adopt("", raw); !errors.Is(err, ErrBadHandoff) {
		t.Errorf("empty id: %v", err)
	}
	if _, err := dst.Adopt("bad/id", raw); !errors.Is(err, ErrBadHandoff) {
		t.Errorf("invalid id: %v", err)
	}
	// The pristine bytes still adopt cleanly afterward.
	if _, err := dst.Adopt("sess", raw); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.Adopt("sess", raw); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate adopt: %v", err)
	}
}

func TestAdoptBypassesClientQuota(t *testing.T) {
	src := NewManager(Config{})
	for _, id := range []string{"a", "b"} {
		if _, err := src.CreateOwned(id, "carol", 8, core.Options{Workers: 1}); err != nil {
			t.Fatal(err)
		}
		ingest(t, src, id, []wal.Pair{{X: 1, K: 1}})
	}
	ships := make(map[string][]byte)
	for _, id := range []string{"a", "b"} {
		if err := src.Handoff(id, func(raw []byte) error {
			ships[id] = append([]byte(nil), raw...)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}

	dst := NewManager(Config{MaxClientSessions: 1})
	// carol is at her cap on the destination...
	if _, err := dst.CreateOwned("own", "carol", 8, core.Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.CreateOwned("own2", "carol", 8, core.Options{Workers: 1}); !errors.Is(err, ErrClientFull) {
		t.Fatalf("quota not enforced: %v", err)
	}
	// ...but a draining peer's sessions adopt anyway — they were admitted
	// under their own server's quota.
	for _, id := range []string{"a", "b"} {
		if _, err := dst.Adopt(id, ships[id]); err != nil {
			t.Errorf("adopt %q under quota: %v", id, err)
		}
	}
}

func TestHandoffMetrics(t *testing.T) {
	reg, counters := testServeMetrics(t)
	_ = reg
	src := NewManager(Config{})
	src.Instrument(counters)
	if _, err := src.Create("m", 8, core.Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	ingest(t, src, "m", []wal.Pair{{X: 1, K: 1}})
	var raw []byte
	if err := src.Handoff("m", func(b []byte) error { raw = b; return nil }); err != nil {
		t.Fatal(err)
	}
	dst := NewManager(Config{})
	dst.Instrument(counters)
	if _, err := dst.Adopt("m", raw); err != nil {
		t.Fatal(err)
	}
	if got := counters.HandedOff.Value(); got != 1 {
		t.Errorf("HandedOff = %d", got)
	}
	if got := counters.Adopted.Value(); got != 1 {
		t.Errorf("Adopted = %d", got)
	}
	// Adoption is not a creation — that was counted on the source replica.
	if got := counters.Created.Value(); got != 1 {
		t.Errorf("Created = %d", got)
	}
}

// FuzzHandoffReplay feeds arbitrary bytes to Adopt: whatever arrives, the
// manager either adopts a fully valid log or rejects it whole — never a
// panic, never a half-imported session or stray journal file.
func FuzzHandoffReplay(f *testing.F) {
	meta := wal.SessionMeta{Width: 8, Weights: "uniform", Client: "fuzz"}
	seed, err := wal.EncodeSession(meta, []wal.Pair{{X: 1, K: 2}, {X: 7, K: 1}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-1])
	f.Add([]byte{})
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		j, err := wal.Open(dir, wal.Options{Sync: wal.SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		m := NewManager(Config{Journal: j})
		_, adoptErr := m.Adopt("fuzzed", raw)
		if adoptErr != nil {
			if m.Len() != 0 {
				t.Fatalf("rejected adopt left %d sessions", m.Len())
			}
			entries, err := os.ReadDir(filepath.Join(dir, "sessions"))
			if err == nil && len(entries) != 0 {
				t.Fatalf("rejected adopt left %d journal files", len(entries))
			}
			return
		}
		// Accepted: the bytes must replay to exactly the adopted state.
		rep := wal.ReplayBytes(raw)
		if !rep.HasMeta || rep.Torn {
			t.Fatalf("adopted invalid bytes: hasMeta %v torn %v", rep.HasMeta, rep.Torn)
		}
		h := histOf(t, m, "fuzzed")
		if len(h) != len(rep.Counts) {
			t.Fatalf("support %d != replay %d", len(h), len(rep.Counts))
		}
		for x, k := range rep.Counts {
			if h[x] != k {
				t.Fatalf("count[%b] = %d, want %d", x, h[x], k)
			}
		}
	})
}

// testServeMetrics builds a Metrics with live counters.
func testServeMetrics(t *testing.T) (*obs.Registry, *Metrics) {
	t.Helper()
	reg := obs.NewRegistry()
	return reg, &Metrics{
		Created:   reg.Counter("created", "x"),
		Evicted:   reg.Counter("evicted", "x"),
		Adopted:   reg.Counter("adopted", "x"),
		HandedOff: reg.Counter("handedoff", "x"),
	}
}
