package wal

import (
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/stream"
)

// frameEnds parses a valid log's frame headers and returns every record
// boundary offset, including 0 and len(b).
func frameEnds(t *testing.T, b []byte) []int64 {
	t.Helper()
	ends := []int64{0}
	off := 0
	for off < len(b) {
		if len(b)-off < headerBytes {
			t.Fatalf("log not frame-aligned: %d trailing bytes", len(b)-off)
		}
		plen := int(binary.LittleEndian.Uint32(b[off : off+4]))
		if plen < 1 || plen > len(b)-off-headerBytes {
			t.Fatalf("bad frame length %d at offset %d", plen, off)
		}
		off += headerBytes + plen
		ends = append(ends, int64(off))
	}
	return ends
}

// TestCrashReplayProperty is the crash-replay harness: randomized ingest
// schedules (shot/count mixes, widths 8..20, config overrides including the
// TopM/pinned-engine batch fallback) are journaled with compaction forced
// often, then the log is truncated at every record boundary AND at mid-record
// offsets. Each truncation must replay to exactly the surviving prefix of
// batches, and the replayed stream's snapshot must match an uninterrupted
// in-memory stream fed the same prefix to 1e-12 per outcome.
func TestCrashReplayProperty(t *testing.T) {
	trials := []struct {
		name  string
		width int
		opts  core.Options
	}{
		{"default-w8", 8, core.Options{Workers: 1}},
		{"topm-batch-w12", 12, core.Options{TopM: 4, Workers: 1}},
		{"uniform-radius-w16", 16, core.Options{Radius: 2, Weights: core.UniformWeight, Workers: 1}},
		{"pinned-bucketed-w20", 20, core.Options{Engine: core.EngineBucketed, Weights: core.ExpDecay, Workers: 1}},
		{"nofilter-w14", 14, core.Options{DisableFilter: true, Workers: 1}},
	}
	for ti, tr := range trials {
		tr := tr
		seed := int64(1000 + ti)
		t.Run(tr.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			st, err := Open(t.TempDir(), Options{Sync: SyncNever, CompactFactor: 2, MinCompactPairs: 8})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			meta := SessionMeta{
				Width:         tr.width,
				Radius:        tr.opts.Radius,
				Weights:       tr.opts.Weights.String(),
				DisableFilter: tr.opts.DisableFilter,
				TopM:          tr.opts.TopM,
				Engine:        tr.opts.Engine,
			}
			l, err := st.Create("s", meta)
			if err != nil {
				t.Fatal(err)
			}

			// Random schedule: small batches, mixing single shots (k=1)
			// with pre-aggregated counts (k>1), on a narrow outcome pool so
			// collisions and support growth both happen.
			mask := widthMask(tr.width)
			pool := make([]uint64, 12+rng.Intn(8))
			for i := range pool {
				pool[i] = rng.Uint64() & mask
			}
			batches := make([][]Pair, 30)
			for i := range batches {
				batch := make([]Pair, 1+rng.Intn(6))
				for j := range batch {
					k := 1
					if rng.Intn(2) == 0 {
						k = 1 + rng.Intn(7)
					}
					batch[j] = Pair{X: pool[rng.Intn(len(pool))], K: k}
				}
				batches[i] = batch
			}

			// prefixAt maps every record-boundary offset of the final log to
			// the batch prefix a truncation there must replay to. Compaction
			// rewrites the file, so the map is rebuilt from the new layout
			// (create + snapshot) whenever it fires.
			cum := map[uint64]int{}
			prefixAt := map[int64]int{0: 0, l.off: 0}
			compactions := 0
			for i, batch := range batches {
				if err := l.Append(batch); err != nil {
					t.Fatal(err)
				}
				for _, p := range batch {
					cum[p.X] += p.K
				}
				prefixAt[l.off] = i + 1
				if l.ShouldCompact(len(cum)) {
					hist := make([]Pair, 0, len(cum))
					for x, k := range cum {
						hist = append(hist, Pair{X: x, K: k})
					}
					if err := l.Compact(hist); err != nil {
						t.Fatal(err)
					}
					compactions++
					b, err := os.ReadFile(l.path)
					if err != nil {
						t.Fatal(err)
					}
					ends := frameEnds(t, b)
					if len(ends) != 3 {
						t.Fatalf("compacted log has %d records, want create+snapshot", len(ends)-1)
					}
					// Truncating inside the compacted file can only lose
					// everything (mid-create/mid-snapshot): prefix 0 at both
					// interior boundaries, full prefix at the end.
					prefixAt = map[int64]int{ends[0]: 0, ends[1]: 0, ends[2]: i + 1}
				}
			}
			if compactions == 0 {
				t.Fatal("schedule never triggered compaction; harness is not exercising rewrite truncations")
			}

			full, err := os.ReadFile(l.path)
			if err != nil {
				t.Fatal(err)
			}
			ends := frameEnds(t, full)
			for _, e := range ends {
				if _, ok := prefixAt[e]; !ok {
					t.Fatalf("no expected prefix tracked for boundary %d", e)
				}
			}

			// Truncation points: every boundary, plus offsets just inside,
			// midway through, and just before the end of every record.
			cuts := map[int64]bool{}
			for i, e := range ends {
				cuts[e] = true
				if i+1 < len(ends) {
					next := ends[i+1]
					for _, c := range []int64{e + 1, (e + next) / 2, next - 1} {
						if c > e && c < next {
							cuts[c] = true
						}
					}
				}
			}
			offs := make([]int64, 0, len(cuts))
			for c := range cuts {
				offs = append(offs, c)
			}
			sort.Slice(offs, func(a, b int) bool { return offs[a] < offs[b] })

			for _, cut := range offs {
				rep := ReplayBytes(full[:cut])

				wantGood := int64(0)
				for e := range prefixAt {
					if e <= cut && e > wantGood {
						wantGood = e
					}
				}
				prefix := prefixAt[wantGood]
				if rep.Good != wantGood {
					t.Fatalf("cut %d: good prefix %d, want %d", cut, rep.Good, wantGood)
				}
				if rep.Torn != (wantGood < cut) {
					t.Fatalf("cut %d: torn=%t with good %d", cut, rep.Torn, rep.Good)
				}

				// Uninterrupted control stream fed the same surviving prefix.
				ctl, err := stream.New(tr.width, tr.opts)
				if err != nil {
					t.Fatal(err)
				}
				for _, batch := range batches[:prefix] {
					for _, p := range batch {
						if err := ctl.IngestN(p.X, p.K); err != nil {
							t.Fatal(err)
						}
					}
				}
				if rep.Shots != ctl.Shots() {
					t.Fatalf("cut %d: replayed %d shots, control has %d", cut, rep.Shots, ctl.Shots())
				}
				if ctl.Shots() == 0 {
					if len(rep.Counts) != 0 {
						t.Fatalf("cut %d: empty control but %d replayed outcomes", cut, len(rep.Counts))
					}
					continue
				}
				if len(rep.Counts) != ctl.Support() {
					t.Fatalf("cut %d: replayed support %d, control %d", cut, len(rep.Counts), ctl.Support())
				}

				repl, err := stream.New(tr.width, tr.opts)
				if err != nil {
					t.Fatal(err)
				}
				for x, k := range rep.Counts {
					if err := repl.IngestN(x, k); err != nil {
						t.Fatal(err)
					}
				}
				want, err := ctl.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				got, err := repl.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if got.Out.Len() != want.Out.Len() {
					t.Fatalf("cut %d: snapshot support %d, want %d", cut, got.Out.Len(), want.Out.Len())
				}
				want.Out.Range(func(x uint64, p float64) {
					if math.Abs(got.Out.Prob(x)-p) > 1e-12 {
						t.Errorf("cut %d: outcome %b: %g, want %g", cut, x, got.Out.Prob(x), p)
					}
				})
				if t.Failed() {
					t.FailNow()
				}
			}
		})
	}
}
