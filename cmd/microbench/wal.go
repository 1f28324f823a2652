package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cost"
	"repro/internal/wal"
)

// The wal suite measures the durability layer's headline numbers — how fast
// a session write-ahead log replays at startup (shots folded per second) and
// how much compaction shrinks a shot-by-shot log into its create+snapshot
// form — as BENCH_wal.json.
const (
	walSupport = 4000   // unique outcomes in the session
	walShots   = 200000 // total shots journaled before replay
	walBatch   = 64     // pairs per appended batch record
	// Replay is uvarint decode plus a map fold — single-digit millions of
	// shots per second is leisurely even for CI hardware — and a shot-by-shot
	// log of shots >> support must compact by at least minCompactionRatio
	// for "log size bounded by support" to mean anything.
	minReplayShotsPerSec = 1e6
	minCompactionRatio   = 5.0
)

// walReport is the BENCH_wal.json schema. ReplayNs covers one full
// ReplayBytes pass over the uncompacted log, the median of three runs
// (timer.medians); CompactionRatio is uncompacted bytes over compacted bytes
// for the same session state.
type walReport struct {
	Benchmark            string  `json:"benchmark"`
	Bits                 int     `json:"bits"`
	Support              int     `json:"support"`
	Shots                int     `json:"shots"`
	BatchPairs           int     `json:"batch_pairs"`
	LogBytes             int64   `json:"log_bytes"`
	ReplayNs             int64   `json:"replay_ns_per_op"`
	ReplayShotsPerSec    float64 `json:"replay_shots_per_sec"`
	MinReplayShotsPerSec float64 `json:"min_replay_shots_per_sec"`
	CompactedBytes       int64   `json:"compacted_bytes"`
	CompactionRatio      float64 `json:"compaction_ratio"`
	MinCompactionRatio   float64 `json:"min_compaction_ratio"`
	cost.Host
}

func runWAL() (any, error) {
	dir, err := os.MkdirTemp("", "microbench-wal")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	// SyncNever: the bench measures encode/replay/compact work, not the
	// machine's fsync latency.
	st, err := wal.Open(dir, wal.Options{Sync: wal.SyncNever})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	l, err := st.Create("bench", wal.SessionMeta{Width: bits})
	if err != nil {
		return nil, err
	}

	// Exactly walSupport distinct outcomes, deterministic in the seed.
	rng := rand.New(rand.NewSource(42))
	seen := make(map[uint64]bool, walSupport)
	outcomes := make([]uint64, 0, walSupport)
	for len(outcomes) < walSupport {
		if x := rng.Uint64() & (1<<bits - 1); !seen[x] {
			seen[x] = true
			outcomes = append(outcomes, x)
		}
	}
	hist := make(map[uint64]int, walSupport)
	for written := 0; written < walShots; {
		n := min(walBatch, walShots-written)
		pairs := make([]wal.Pair, n)
		for i := range pairs {
			x := outcomes[(written+i)%len(outcomes)]
			pairs[i] = wal.Pair{X: x, K: 1}
			hist[x]++
		}
		if err := l.Append(pairs); err != nil {
			return nil, err
		}
		written += n
	}

	path := filepath.Join(st.Dir(), "bench.wal")
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	check := wal.ReplayBytes(raw)
	if !check.HasMeta || check.Torn || check.Shots != walShots || len(check.Counts) != walSupport {
		return nil, fmt.Errorf("self-check: replay of a clean log gave meta=%v torn=%v shots=%d support=%d",
			check.HasMeta, check.Torn, check.Shots, len(check.Counts))
	}

	var t timer
	replayNs := t.medians(func(b *testing.B) error {
		for i := 0; i < b.N; i++ {
			if r := wal.ReplayBytes(raw); r.Shots != walShots {
				return fmt.Errorf("replay folded %d shots, want %d", r.Shots, walShots)
			}
		}
		return nil
	})[0].NsPerOp()

	snap := make([]wal.Pair, 0, len(hist))
	for x, k := range hist {
		snap = append(snap, wal.Pair{X: x, K: k})
	}
	if err := l.Compact(snap); err != nil {
		return nil, err
	}
	compacted, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if r := wal.ReplayBytes(compacted); r.Shots != walShots || len(r.Counts) != walSupport {
		return nil, fmt.Errorf("self-check: compacted log replays to shots=%d support=%d", r.Shots, len(r.Counts))
	}
	return &walReport{
		Benchmark:            "wal-replay-and-compaction",
		Bits:                 bits,
		Support:              walSupport,
		Shots:                walShots,
		BatchPairs:           walBatch,
		LogBytes:             int64(len(raw)),
		ReplayNs:             replayNs,
		ReplayShotsPerSec:    float64(walShots) * 1e9 / float64(replayNs),
		MinReplayShotsPerSec: minReplayShotsPerSec,
		CompactedBytes:       int64(len(compacted)),
		CompactionRatio:      float64(len(raw)) / float64(len(compacted)),
		MinCompactionRatio:   minCompactionRatio,
		Host:                 host(),
	}, t.err
}
