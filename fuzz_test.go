package hammer

import (
	"math"
	"strings"
	"testing"
)

// validCountsKey mirrors the facade's documented contract: keys are
// non-empty strings of '0'/'1' up to 64 characters, all the same length,
// and every count is positive.
func validCountsKey(k string) bool {
	if len(k) == 0 || len(k) > 64 {
		return false
	}
	return strings.Trim(k, "01") == ""
}

// fuzzEngines is the one engine table the facade fuzzers pin: every batch
// engine must accept what exact accepts and agree with it within 1e-12 on
// whatever histogram the fuzzer conjures.
var fuzzEngines = []string{"blocked"}

// FuzzRunCounts drives the public facade with adversarial histograms:
// arbitrary string keys, mixed widths, and non-positive counts must come
// back as errors — never a panic — while valid histograms must reconstruct
// to a unit-mass distribution over the same support, identically (to
// 1e-12) across every scoring engine.
func FuzzRunCounts(f *testing.F) {
	f.Add("0101", 3, "1100", 1, "0011", 2)
	f.Add("1", 1, "0", 2, "1", 3)        // duplicate key collapses in the map
	f.Add("01", 10, "011", 5, "0111", 1) // mixed widths
	f.Add("01", -2, "10", 3, "11", 1)    // negative count
	f.Add("01", 0, "10", 0, "11", 0)     // zero counts
	f.Add("0x", 1, "ab", 2, "", 3)       // malformed keys
	f.Add(strings.Repeat("1", 64), 1, strings.Repeat("0", 64), 2, strings.Repeat("10", 32), 3)
	f.Add(strings.Repeat("1", 65), 1, "11", 2, "10", 3) // over-wide key
	f.Fuzz(func(t *testing.T, k1 string, v1 int, k2 string, v2 int, k3 string, v3 int) {
		counts := map[string]int{k1: v1, k2: v2, k3: v3}
		out, err := RunCounts(counts)

		wantErr := false
		width := -1
		for k, v := range counts {
			if !validCountsKey(k) || v <= 0 {
				wantErr = true
			}
			if width == -1 {
				width = len(k)
			} else if len(k) != width {
				wantErr = true
			}
		}
		if wantErr {
			if err == nil {
				t.Fatalf("invalid histogram %q accepted", counts)
			}
			return
		}
		if err != nil {
			t.Fatalf("valid histogram %q rejected: %v", counts, err)
		}
		if len(out) != len(counts) {
			t.Fatalf("support %d in, %d out", len(counts), len(out))
		}
		var mass float64
		for k, p := range out {
			if p < 0 || math.IsNaN(p) || math.IsInf(p, 0) {
				t.Fatalf("non-finite or negative probability %v for %q", p, k)
			}
			if _, ok := counts[k]; !ok {
				t.Fatalf("outcome %q appeared from nowhere", k)
			}
			mass += p
		}
		if math.Abs(mass-1) > 1e-9 {
			t.Fatalf("output mass %v", mass)
		}
		// Cross-engine net: every batch engine reconstructs the same valid
		// histogram to the exact reference within 1e-12 per outcome.
		h := make(map[string]float64, len(counts))
		for k, v := range counts {
			h[k] = float64(v)
		}
		ex, err := RunWithConfig(h, Config{Engine: "exact"})
		if err != nil {
			t.Fatalf("exact engine rejected valid histogram: %v", err)
		}
		for _, engine := range fuzzEngines {
			got, err := RunWithConfig(h, Config{Engine: engine})
			if err != nil {
				t.Fatalf("%s engine rejected valid histogram: %v", engine, err)
			}
			if len(got) != len(ex) {
				t.Fatalf("%s support %d, exact %d", engine, len(got), len(ex))
			}
			for k, p := range ex {
				if diff := got[k] - p; diff > 1e-12 || diff < -1e-12 {
					t.Fatalf("%s diverges from exact on %q: %v vs %v", engine, k, got[k], p)
				}
			}
		}
	})
}

// FuzzStreamIngest is the streaming counterpart: arbitrary shot strings and
// counts must never panic the stream, failed ingests must not corrupt it,
// and a snapshot after any accepted prefix must stay a unit-mass
// distribution.
func FuzzStreamIngest(f *testing.F) {
	f.Add("0101", 1, "1100", 3)
	f.Add("0101", 0, "0101", -1)
	f.Add("", 1, "01012", 2)
	f.Add("01010101", 1, "0101", 1) // width mismatch vs stream
	f.Fuzz(func(t *testing.T, s1 string, k1 int, s2 string, k2 int) {
		st, err := NewStream(4, Config{})
		if err != nil {
			t.Fatal(err)
		}
		ok := 0
		for _, in := range []struct {
			s string
			k int
		}{{s1, k1}, {s2, k2}} {
			if err := st.IngestN(in.s, in.k); err == nil {
				ok += in.k
			}
		}
		if st.Shots() != ok {
			t.Fatalf("stream recorded %d shots, accepted %d", st.Shots(), ok)
		}
		if ok == 0 {
			return
		}
		snap, err := st.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		var mass float64
		for _, p := range snap {
			mass += p
		}
		if math.Abs(mass-1) > 1e-9 {
			t.Fatalf("snapshot mass %v", mass)
		}
	})
}
