package serve

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/wal"
)

// openJournal opens a wal store over dir with test-friendly settings (no
// fsync, aggressive compaction) and hammer_wal_* counters attached.
func openJournal(t *testing.T, dir string) (*wal.Store, *wal.Metrics) {
	t.Helper()
	st, err := wal.Open(dir, wal.Options{Sync: wal.SyncNever, CompactFactor: 2, MinCompactPairs: 8})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	m := &wal.Metrics{
		Appends:           reg.Counter("appends", "x"),
		AppendedBytes:     reg.Counter("appended_bytes", "x"),
		Compactions:       reg.Counter("compactions", "x"),
		Pruned:            reg.Counter("pruned", "x"),
		RecoveredSessions: reg.Counter("recovered", "x"),
		TornTails:         reg.Counter("torn", "x"),
		CorruptLogs:       reg.Counter("corrupt", "x"),
	}
	st.Instrument(m)
	t.Cleanup(func() { st.Close() })
	return st, m
}

// ingest pushes one batch through DoSession the way the HTTP layer does:
// mutate the stream, then journal the acknowledged batch via Record.
func ingest(t *testing.T, m *Manager, id string, pairs []wal.Pair) {
	t.Helper()
	if err := m.DoSession(id, func(s *Session) error {
		for _, p := range pairs {
			if err := s.Stream().IngestN(p.X, p.K); err != nil {
				return err
			}
		}
		return s.Record(pairs)
	}); err != nil {
		t.Fatal(err)
	}
}

// TestManagerDurableLifecycle: sessions created and fed through a journaled
// manager come back identical — meta, shots, and histogram — in a fresh
// manager recovering from the same directory, and keep journaling after.
func TestManagerDurableLifecycle(t *testing.T) {
	dir := t.TempDir()
	j1, _ := openJournal(t, dir)
	m1 := NewManager(Config{Journal: j1})
	if m1.journal == nil {
		t.Fatal("journaled manager holds no journal")
	}
	if _, err := m1.Create("plain", 8, core.Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	// A batch-fallback config (TopM + pinned engine) must round-trip too.
	if _, err := m1.Create("fancy", 10, core.Options{
		Workers: 1, TopM: 3, Radius: 2,
		Weights: core.UniformWeight, Engine: core.EngineBucketed,
	}); err != nil {
		t.Fatal(err)
	}
	ingest(t, m1, "plain", []wal.Pair{{X: 0b101, K: 3}, {X: 0b1, K: 1}})
	ingest(t, m1, "plain", []wal.Pair{{X: 0b101, K: 2}})
	ingest(t, m1, "fancy", []wal.Pair{{X: 0b1111, K: 4}, {X: 0, K: 2}})
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	j2, wm := openJournal(t, dir)
	m2 := NewManager(Config{Journal: j2})
	n, err := m2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || wm.RecoveredSessions.Value() != 2 {
		t.Fatalf("recovered %d sessions (metric %d), want 2", n, wm.RecoveredSessions.Value())
	}
	if err := m2.DoSession("plain", func(s *Session) error {
		if s.Stream().Shots() != 6 || s.Stream().Support() != 2 {
			t.Errorf("plain: shots %d support %d", s.Stream().Shots(), s.Stream().Support())
		}
		c := s.Stream().Counts()
		if c.Get(0b101) != 5 || c.Get(0b1) != 1 {
			t.Errorf("plain histogram wrong: %d, %d", c.Get(0b101), c.Get(0b1))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := m2.DoSession("fancy", func(s *Session) error {
		if s.Stream().Shots() != 6 {
			t.Errorf("fancy: shots %d", s.Stream().Shots())
		}
		res, err := s.Stream().Snapshot()
		if err != nil {
			return err
		}
		// The retired bucketed pin runs blocked; auto would pick exact on a
		// two-outcome support.
		if res.Engine != core.EngineBlocked {
			t.Errorf("fancy snapshot engine %q: pinned engine lost in recovery", res.Engine)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// The recovered log is live: further ingests journal onto it.
	ingest(t, m2, "plain", []wal.Pair{{X: 0b11, K: 1}})
	if wm.Appends.Value() == 0 {
		t.Error("post-recovery ingest did not append to the journal")
	}
}

// TestManagerEvictionTombstone is the latent-interaction fix: a TTL-evicted
// session's log must be pruned so a later recovery cannot resurrect a session
// the server already declared dead, and the prune must be visible in the
// hammer_wal_pruned metric.
func TestManagerEvictionTombstone(t *testing.T) {
	dir := t.TempDir()
	j1, wm := openJournal(t, dir)
	clk := &fakeClock{t: time.Unix(1000, 0)}
	m1 := NewManager(Config{TTL: time.Minute, Now: clk.now, Journal: j1})
	if _, err := m1.Create("keep", 6, core.Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := m1.Create("drop", 6, core.Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	ingest(t, m1, "keep", []wal.Pair{{X: 1, K: 1}})
	ingest(t, m1, "drop", []wal.Pair{{X: 2, K: 5}})
	clk.advance(40 * time.Second)
	ingest(t, m1, "keep", []wal.Pair{{X: 3, K: 1}}) // keeps "keep" fresh
	clk.advance(40 * time.Second)
	if n := m1.Sweep(); n != 1 {
		t.Fatalf("swept %d, want 1", n)
	}
	if wm.Pruned.Value() != 1 {
		t.Fatalf("pruned metric = %d, want 1", wm.Pruned.Value())
	}
	if _, err := os.Stat(filepath.Join(j1.Dir(), "drop.wal")); !os.IsNotExist(err) {
		t.Fatalf("evicted session's log still on disk: %v", err)
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	j2, _ := openJournal(t, dir)
	m2 := NewManager(Config{Journal: j2})
	if n, err := m2.Recover(); err != nil || n != 1 {
		t.Fatalf("recovered %d, %v; want only the survivor", n, err)
	}
	if err := m2.Do("drop", func(*stream.Stream) error { return nil }); !errors.Is(err, ErrNotFound) {
		t.Fatalf("evicted session resurrected by replay: %v", err)
	}
	if err := m2.DoSession("keep", func(s *Session) error {
		if s.Stream().Shots() != 2 {
			t.Errorf("keep: shots %d, want 2", s.Stream().Shots())
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestManagerDeletePrunesJournal: explicit deletes tombstone the log exactly
// like eviction does.
func TestManagerDeletePrunesJournal(t *testing.T) {
	dir := t.TempDir()
	j, wm := openJournal(t, dir)
	m := NewManager(Config{Journal: j})
	if _, err := m.Create("gone", 6, core.Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	ingest(t, m, "gone", []wal.Pair{{X: 1, K: 1}})
	if err := m.Delete("gone"); err != nil {
		t.Fatal(err)
	}
	if wm.Pruned.Value() != 1 {
		t.Fatalf("pruned metric = %d", wm.Pruned.Value())
	}
	if _, err := os.Stat(filepath.Join(j.Dir(), "gone.wal")); !os.IsNotExist(err) {
		t.Fatalf("deleted session's log still on disk: %v", err)
	}
}

// TestSessionRecordCompacts: repeated Record calls on a small-support session
// trigger compaction through the serve layer, keeping the log bounded while
// recovery still reproduces the exact histogram.
func TestSessionRecordCompacts(t *testing.T) {
	dir := t.TempDir()
	j1, wm := openJournal(t, dir)
	m1 := NewManager(Config{Journal: j1})
	if _, err := m1.Create("hot", 4, core.Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		ingest(t, m1, "hot", []wal.Pair{{X: uint64(i % 3), K: 1}})
	}
	if wm.Compactions.Value() == 0 {
		t.Fatal("500 single-pair ingests at support 3 never compacted")
	}
	info, err := os.Stat(filepath.Join(j1.Dir(), "hot.wal"))
	if err != nil {
		t.Fatal(err)
	}
	// Bounded by support (3 outcomes), not by the 500 appended records: the
	// threshold is max(MinCompactPairs=8, 2*support)=8 pairs plus framing.
	if info.Size() > 1024 {
		t.Fatalf("log is %d bytes after compaction; not bounded by support", info.Size())
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	j2, _ := openJournal(t, dir)
	m2 := NewManager(Config{Journal: j2})
	if n, err := m2.Recover(); err != nil || n != 1 {
		t.Fatalf("recover: %d, %v", n, err)
	}
	if err := m2.DoSession("hot", func(s *Session) error {
		if s.Stream().Shots() != 500 {
			t.Errorf("shots %d, want 500", s.Stream().Shots())
		}
		c := s.Stream().Counts()
		if c.Get(0) != 167 || c.Get(1) != 167 || c.Get(2) != 166 {
			t.Errorf("histogram %d/%d/%d, want 167/167/166", c.Get(0), c.Get(1), c.Get(2))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestManagerJournalErrors: journal faults surface as ErrJournal — a
// pre-existing log file on Create, and appends after the store is closed.
func TestManagerJournalErrors(t *testing.T) {
	dir := t.TempDir()
	j, _ := openJournal(t, dir)
	m := NewManager(Config{Journal: j})
	// A leftover log that recovery did not adopt blocks the id.
	if err := os.WriteFile(filepath.Join(j.Dir(), "stale.wal"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create("stale", 6, core.Options{Workers: 1}); !errors.Is(err, ErrJournal) {
		t.Fatalf("create over leftover log: %v, want ErrJournal", err)
	}
	if m.Len() != 0 {
		t.Fatalf("failed durable create leaked a session: %d", m.Len())
	}
	if _, err := m.Create("ok", 6, core.Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	err := m.DoSession("ok", func(s *Session) error {
		if err := s.Stream().IngestN(1, 1); err != nil {
			return err
		}
		return s.Record([]wal.Pair{{X: 1, K: 1}})
	})
	if !errors.Is(err, ErrJournal) {
		t.Fatalf("record on closed journal: %v, want ErrJournal", err)
	}
}

// TestRecoverLargeCounts: acknowledged counts far above any real workload
// but within dist.MaxShots come back from Recover exactly. That includes a
// single ingest above 2^50, and an outcome whose ingests compaction folds
// into one snapshot pair of several times that: replay
// bounds pairs by the session total, the same bound ingest enforces.
func TestRecoverLargeCounts(t *testing.T) {
	dir := t.TempDir()
	j1, wm1 := openJournal(t, dir)
	m1 := NewManager(Config{Journal: j1})
	if _, err := m1.Create("big", 8, core.Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	const big = 1<<50 + 1
	for _, p := range []wal.Pair{
		{X: 1, K: 3}, {X: 2, K: big}, {X: 3, K: 5},
		{X: 2, K: big}, {X: 2, K: big}, {X: 2, K: big}, {X: 1, K: 1}, {X: 1, K: 1},
		{X: 3, K: 1},
	} {
		ingest(t, m1, "big", []wal.Pair{p})
	}
	if wm1.Compactions.Value() == 0 {
		t.Fatal("no compaction: the folded pair is not exercised")
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	j2, _ := openJournal(t, dir)
	m2 := NewManager(Config{Journal: j2})
	if n, err := m2.Recover(); err != nil || n != 1 {
		t.Fatalf("recovered %d sessions: %v", n, err)
	}
	if err := m2.DoSession("big", func(s *Session) error {
		c := s.Stream().Counts()
		if s.Stream().Shots() != 4*big+11 || c.Get(1) != 5 || c.Get(2) != 4*big || c.Get(3) != 6 {
			t.Errorf("recovered shots %d, counts %d/%d/%d; want %d, 5/%d/6",
				s.Stream().Shots(), c.Get(1), c.Get(2), c.Get(3), 4*big+11, 4*big)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
