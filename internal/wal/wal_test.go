package wal

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

func testMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Appends:           reg.Counter("hammer_wal_appends_total", "h"),
		AppendedBytes:     reg.Counter("hammer_wal_appended_bytes_total", "h"),
		Compactions:       reg.Counter("hammer_wal_compactions_total", "h"),
		Pruned:            reg.Counter("hammer_wal_pruned_total", "h"),
		RecoveredSessions: reg.Counter("hammer_wal_recovered_sessions_total", "h"),
		TornTails:         reg.Counter("hammer_wal_torn_tails_total", "h"),
		CorruptLogs:       reg.Counter("hammer_wal_corrupt_logs_total", "h"),
	}
}

func mustOpen(t *testing.T, root string, opts Options) *Store {
	t.Helper()
	s, err := Open(root, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRoundTrip(t *testing.T) {
	root := t.TempDir()
	s := mustOpen(t, root, Options{Sync: SyncNever})
	meta := SessionMeta{Width: 8, Radius: 2, Weights: "uniform", TopM: 5, Engine: "bucketed"}
	l, err := s.Create("alpha", meta)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]Pair{{X: 0b101, K: 3}, {X: 0b1, K: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]Pair{{X: 0b101, K: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, root, Options{Sync: SyncNever})
	recs, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("recovered %d sessions, want 1", len(recs))
	}
	r := recs[0]
	if r.ID != "alpha" || r.Meta != meta || r.Torn {
		t.Fatalf("recovered %+v", r)
	}
	if r.Shots != 6 {
		t.Fatalf("shots %d, want 6", r.Shots)
	}
	want := []Pair{{X: 0b1, K: 1}, {X: 0b101, K: 5}}
	if len(r.Counts) != len(want) {
		t.Fatalf("counts %+v", r.Counts)
	}
	for i, p := range want {
		if r.Counts[i] != p {
			t.Fatalf("counts[%d] = %+v, want %+v", i, r.Counts[i], p)
		}
	}

	// The recovered log keeps accepting appends, and a third replay sees
	// them.
	if err := r.Log.Append([]Pair{{X: 0b11, K: 4}}); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3 := mustOpen(t, root, Options{Sync: SyncNever})
	recs, err = s3.Recover()
	if err != nil || len(recs) != 1 {
		t.Fatalf("re-recover: %v, %d sessions", err, len(recs))
	}
	if recs[0].Shots != 10 {
		t.Fatalf("shots after continued append: %d, want 10", recs[0].Shots)
	}
}

func TestEmptySessionRecovers(t *testing.T) {
	root := t.TempDir()
	s := mustOpen(t, root, Options{Sync: SyncNever})
	if _, err := s.Create("empty", SessionMeta{Width: 4}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := mustOpen(t, root, Options{Sync: SyncNever})
	recs, err := s2.Recover()
	if err != nil || len(recs) != 1 || recs[0].Shots != 0 || len(recs[0].Counts) != 0 {
		t.Fatalf("empty session: %v %+v", err, recs)
	}
}

func TestAppendValidation(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{Sync: SyncNever})
	l, err := s.Create("v", SessionMeta{Width: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]Pair{{X: 0b10000, K: 1}}); err == nil {
		t.Error("over-wide outcome accepted")
	}
	if err := l.Append([]Pair{{X: 1, K: 0}}); err == nil {
		t.Error("zero count accepted")
	}
	if err := l.Append(nil); err != nil {
		t.Errorf("empty batch: %v", err)
	}
	// A rejected batch must not have written anything.
	if off := l.off; off == 0 {
		t.Fatal("create record missing")
	} else {
		rep := replayPath(t, l.path)
		if rep.Records != 1 || rep.Torn {
			t.Fatalf("after rejected appends: %+v", rep)
		}
	}
}

func replayPath(t *testing.T, path string) *Replay {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return ReplayBytes(b)
}

func TestCompactionBoundsLogSize(t *testing.T) {
	root := t.TempDir()
	reg := obs.NewRegistry()
	s := mustOpen(t, root, Options{Sync: SyncNever, CompactFactor: 2, MinCompactPairs: 16})
	m := testMetrics(reg)
	s.Instrument(m)
	l, err := s.Create("c", SessionMeta{Width: 6})
	if err != nil {
		t.Fatal(err)
	}
	// Support stays at 4 outcomes while thousands of pairs stream in; the
	// caller-driven compact loop mirrors the serving layer's.
	counts := map[uint64]int{}
	pair := func(x uint64, k int) {
		if err := l.Append([]Pair{{X: x, K: k}}); err != nil {
			t.Fatal(err)
		}
		counts[x] += k
		if l.ShouldCompact(len(counts)) {
			if err := l.Compact(sortedPairs(counts)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 4000; i++ {
		pair(uint64(i%4), 1+i%3)
	}
	if m.Compactions.Value() == 0 {
		t.Fatal("no compactions happened")
	}
	// Bounded by support, not shots: 4 outcomes snapshot to well under a
	// hundred bytes; with factor 2 and floor 16 the live log holds at most
	// ~16 pair records past the last fold.
	if off := l.off; off > 2048 {
		t.Fatalf("log size %d bytes after 4000 appends of support 4", off)
	}
	s.Close()

	s2 := mustOpen(t, root, Options{Sync: SyncNever})
	recs, err := s2.Recover()
	if err != nil || len(recs) != 1 {
		t.Fatalf("recover: %v, %d", err, len(recs))
	}
	wantShots := 0
	for _, k := range counts {
		wantShots += k
	}
	if recs[0].Shots != wantShots {
		t.Fatalf("shots %d, want %d", recs[0].Shots, wantShots)
	}
	for _, p := range recs[0].Counts {
		if counts[p.X] != p.K {
			t.Fatalf("outcome %b: %d, want %d", p.X, p.K, counts[p.X])
		}
	}
}

func TestRemovePrunesAndCounts(t *testing.T) {
	root := t.TempDir()
	reg := obs.NewRegistry()
	s := mustOpen(t, root, Options{Sync: SyncNever})
	m := testMetrics(reg)
	s.Instrument(m)
	l, err := s.Create("gone", SessionMeta{Width: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]Pair{{X: 1, K: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove("gone"); err != nil {
		t.Fatal(err)
	}
	if m.Pruned.Value() != 1 {
		t.Fatalf("pruned counter %d, want 1", m.Pruned.Value())
	}
	// Idempotent: a second remove (no file) is a no-op and does not count.
	if err := s.Remove("gone"); err != nil {
		t.Fatal(err)
	}
	if m.Pruned.Value() != 1 {
		t.Fatalf("pruned counter %d after no-op remove, want 1", m.Pruned.Value())
	}
	// The closed log rejects appends instead of resurrecting the file.
	if err := l.Append([]Pair{{X: 1, K: 1}}); err == nil {
		t.Fatal("append to pruned log succeeded")
	}
	recs, err := s.Recover()
	if err != nil || len(recs) != 0 {
		t.Fatalf("recover after prune: %v, %d sessions", err, len(recs))
	}
}

func TestRecoverTruncatesTornTail(t *testing.T) {
	root := t.TempDir()
	s := mustOpen(t, root, Options{Sync: SyncNever})
	l, err := s.Create("torn", SessionMeta{Width: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]Pair{{X: 1, K: 2}}); err != nil {
		t.Fatal(err)
	}
	good := l.off
	s.Close()
	// Simulate a crash mid-append: half a record of garbage at the tail.
	f, err := os.OpenFile(filepath.Join(s.Dir(), "torn.wal"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	reg := obs.NewRegistry()
	s2 := mustOpen(t, root, Options{Sync: SyncNever})
	m := testMetrics(reg)
	s2.Instrument(m)
	recs, err := s2.Recover()
	if err != nil || len(recs) != 1 {
		t.Fatalf("recover: %v, %d", err, len(recs))
	}
	if !recs[0].Torn || recs[0].Shots != 2 {
		t.Fatalf("recovered %+v", recs[0])
	}
	if m.TornTails.Value() != 1 {
		t.Fatalf("torn counter %d", m.TornTails.Value())
	}
	// The file was physically truncated, and the reopened log appends from
	// the good boundary.
	fi, err := os.Stat(filepath.Join(s2.Dir(), "torn.wal"))
	if err != nil || fi.Size() != good {
		t.Fatalf("file size %d, want %d (%v)", fi.Size(), good, err)
	}
	if err := recs[0].Log.Append([]Pair{{X: 2, K: 1}}); err != nil {
		t.Fatal(err)
	}
	rep := replayPath(t, filepath.Join(s2.Dir(), "torn.wal"))
	if rep.Torn || rep.Shots != 3 {
		t.Fatalf("replay after healed append: %+v", rep)
	}
}

func TestRecoverQuarantinesCorrupt(t *testing.T) {
	root := t.TempDir()
	s := mustOpen(t, root, Options{Sync: SyncNever})
	if err := os.WriteFile(filepath.Join(s.Dir(), "junk.wal"), []byte("not a log"), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	m := testMetrics(reg)
	s.Instrument(m)
	recs, err := s.Recover()
	if err != nil || len(recs) != 0 {
		t.Fatalf("recover: %v, %d", err, len(recs))
	}
	if m.CorruptLogs.Value() != 1 {
		t.Fatalf("corrupt counter %d", m.CorruptLogs.Value())
	}
	if _, err := os.Stat(filepath.Join(s.Dir(), "junk.wal.corrupt")); err != nil {
		t.Fatalf("quarantine file: %v", err)
	}
	if _, err := os.Stat(filepath.Join(s.Dir(), "junk.wal")); !os.IsNotExist(err) {
		t.Fatalf("original still present: %v", err)
	}
}

func TestCreateCollision(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{Sync: SyncNever})
	if _, err := s.Create("dup", SessionMeta{Width: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create("dup", SessionMeta{Width: 4}); err == nil {
		t.Fatal("duplicate create succeeded")
	}
}

func TestSyncAlwaysSmoke(t *testing.T) {
	// SyncAlways exercises the fsync paths (file + directory); correctness
	// is the same as SyncNever, this pins that the syscalls succeed.
	root := t.TempDir()
	s := mustOpen(t, root, Options{}) // zero value = SyncAlways
	if s.Sync() != SyncAlways {
		t.Fatalf("default sync policy %v", s.Sync())
	}
	l, err := s.Create("fs", SessionMeta{Width: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]Pair{{X: 3, K: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Compact([]Pair{{X: 3, K: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove("fs"); err != nil {
		t.Fatal(err)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
		ok   bool
	}{{"", SyncAlways, true}, {"always", SyncAlways, true}, {"never", SyncNever, true}, {"sometimes", 0, false}} {
		got, err := ParseSyncPolicy(tc.in)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
	}
}

func TestReplayBytesEdgeCases(t *testing.T) {
	if r := ReplayBytes(nil); r.Records != 0 || r.Torn || r.Good != 0 {
		t.Fatalf("nil: %+v", r)
	}
	if r := ReplayBytes([]byte{1, 2, 3}); r.Records != 0 || !r.Torn {
		t.Fatalf("short: %+v", r)
	}
	// A batch record with no preceding create is invalid.
	b := appendFrame(nil, recBatch, encodePairs(nil, []Pair{{X: 1, K: 1}}))
	if r := ReplayBytes(b); r.Records != 0 || !r.Torn || r.HasMeta {
		t.Fatalf("batch-first: %+v", r)
	}
	// An unknown record type stops replay but keeps the prefix.
	good := appendFrame(nil, recCreate, []byte(`{"width":4}`))
	n := len(good)
	mixed := appendFrame(good, 0x7f, []byte("???"))
	if r := ReplayBytes(mixed); r.Records != 1 || !r.Torn || r.Good != int64(n) {
		t.Fatalf("unknown type: %+v", r)
	}
	// A second create record stops replay too.
	two := appendFrame(append([]byte(nil), good...), recCreate, []byte(`{"width":4}`))
	if r := ReplayBytes(two); r.Records != 1 || !r.Torn {
		t.Fatalf("double create: %+v", r)
	}
}
