package hammer

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// noisyBV is a realistic BV-style histogram: the key has a rich single-flip
// neighborhood; a spurious outcome sits far away.
func noisyBV() map[string]float64 {
	h := map[string]float64{
		"11111111": 0.10,
		"01111111": 0.05, "10111111": 0.05, "11011111": 0.05, "11101111": 0.05,
		"11110111": 0.05, "11111011": 0.05, "11111101": 0.05, "11111110": 0.05,
		"00001111": 0.14, // isolated spurious outcome
	}
	// Uniform far tail.
	for _, tail := range []string{
		"11110000", "11110001", "11110010", "11110100", "11111000",
		"11110011", "11110101", "11110110", "11111001",
	} {
		h[tail] = 0.04
	}
	return h
}

func TestRunBoostsCorrectKey(t *testing.T) {
	in := noisyBV()
	out, err := Run(in)
	if err != nil {
		t.Fatal(err)
	}
	if out["11111111"] <= in["11111111"]/sum(in) {
		t.Errorf("key not boosted: %v", out["11111111"])
	}
	var total float64
	for _, p := range out {
		total += p
	}
	if !almostEq(total, 1, 1e-9) {
		t.Errorf("output mass = %v", total)
	}
	// The isolated spurious outcome loses its lead.
	if out["00001111"] >= out["11111111"] {
		t.Errorf("spurious outcome still ahead: %v vs %v", out["00001111"], out["11111111"])
	}
}

func TestRunCounts(t *testing.T) {
	counts := map[string]int{"11": 60, "10": 25, "01": 10, "00": 5}
	out, err := RunCounts(counts)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 {
		t.Fatalf("support = %d", len(out))
	}
	if _, err := RunCounts(map[string]int{"1": -2}); err == nil {
		t.Error("negative count accepted")
	}
}

func TestRunWithConfigSchemes(t *testing.T) {
	in := noisyBV()
	for _, w := range []string{"", "inverse-chs", "uniform", "exp-decay"} {
		if _, err := RunWithConfig(in, Config{Weights: w}); err != nil {
			t.Errorf("scheme %q: %v", w, err)
		}
	}
	if _, err := RunWithConfig(in, Config{Weights: "quadratic"}); err == nil {
		t.Error("unknown scheme accepted")
	}
	if _, err := RunWithConfig(in, Config{Radius: -3}); err == nil {
		t.Error("negative radius accepted")
	}
}

func TestRunWithConfigEngines(t *testing.T) {
	in := noisyBV()
	base, err := RunWithConfig(in, Config{Engine: "exact"})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []string{"", "auto", "bucketed"} {
		out, err := RunWithConfig(in, Config{Engine: e})
		if err != nil {
			t.Fatalf("engine %q: %v", e, err)
		}
		for k, p := range base {
			if !almostEq(out[k], p, 1e-12) {
				t.Fatalf("engine %q diverges on %s: %v vs %v", e, k, out[k], p)
			}
		}
	}
	if _, err := RunWithConfig(in, Config{Engine: "fpga"}); err == nil {
		t.Error("unknown engine accepted")
	}
}

func TestRunWithConfigTopM(t *testing.T) {
	in := noisyBV()
	full, err := RunWithConfig(in, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// TopM >= support reproduces the exact algorithm through the facade.
	capped, err := RunWithConfig(in, Config{TopM: len(in)})
	if err != nil {
		t.Fatal(err)
	}
	for k, p := range full {
		if !almostEq(capped[k], p, 1e-12) {
			t.Fatalf("TopM=N diverges on %s: %v vs %v", k, capped[k], p)
		}
	}
	// Truncation keeps the histogram support and unit mass.
	trunc, err := RunWithConfig(in, Config{TopM: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(trunc) != len(in) {
		t.Fatalf("TopM truncation dropped outcomes: %d vs %d", len(trunc), len(in))
	}
	var mass float64
	for _, p := range trunc {
		mass += p
	}
	if !almostEq(mass, 1, 1e-12) {
		t.Fatalf("truncated mass %v", mass)
	}
	if _, err := RunWithConfig(in, Config{TopM: -1}); err == nil {
		t.Error("negative TopM accepted")
	}
}

// wideHistogram builds a deterministic 20-bit histogram with a rich cluster
// around a key plus a long low-probability tail — wide enough that TopM
// truncation actually truncates.
func wideHistogram(n, tailSize int) (map[string]float64, string) {
	key := strings.Repeat("10", n/2)
	h := map[string]float64{key: 0.08}
	// Single-flip cluster.
	for i := 0; i < n; i++ {
		b := []byte(key)
		b[i] ^= 1
		h[string(b)] = 0.01 + 0.001*float64(i)
	}
	// Deterministic pseudo-random tail (LCG so no test-order coupling).
	state := uint64(12345)
	for len(h) < n+1+tailSize {
		state = state*6364136223846793005 + 1442695040888963407
		x := state >> (64 - n)
		s := fmt.Sprintf("%0*b", n, x)
		if _, ok := h[s]; !ok {
			h[s] = 1e-5 * float64(1+state%7)
		}
	}
	return h, key
}

// TestCrossEngineGoldenWideTopM extends the facade's cross-engine goldens
// past width 16: at 20 bits with TopM truncation active the exact engine
// and the blocked engine, pinned by its retired bucketed name, must still
// agree to 1e-12, and the truncated tail must
// take the isolated-scoring path L(x) = Pr(x)² — pinned through the ratio of
// two tail outcomes, which must equal the squared ratio of their inputs.
func TestCrossEngineGoldenWideTopM(t *testing.T) {
	const n, tailSize, topM = 20, 400, 64
	in, key := wideHistogram(n, tailSize)
	ex, err := RunWithConfig(in, Config{Engine: "exact", TopM: topM})
	if err != nil {
		t.Fatal(err)
	}
	bu, err := RunWithConfig(in, Config{Engine: "bucketed", TopM: topM})
	if err != nil {
		t.Fatal(err)
	}
	if len(ex) != len(in) || len(bu) != len(in) {
		t.Fatalf("support changed: %d/%d vs %d", len(ex), len(bu), len(in))
	}
	for k, p := range ex {
		if !almostEq(bu[k], p, 1e-12) {
			t.Fatalf("engines diverge on %s: %v vs %v", k, bu[k], p)
		}
	}
	if ex[key] <= in[key]/sum(in) {
		t.Errorf("key not boosted under TopM: %v", ex[key])
	}
	// Two tail outcomes with distinct input mass: their reconstructed ratio
	// pins the tail-scoring path.
	type entry struct {
		k string
		p float64
	}
	var entries []entry
	for k, p := range in {
		entries = append(entries, entry{k, p})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].p != entries[j].p {
			return entries[i].p > entries[j].p
		}
		return entries[i].k < entries[j].k
	})
	tail := entries[topM:]
	var a, b entry
	found := false
	for i := 0; i < len(tail) && !found; i++ {
		for j := i + 1; j < len(tail); j++ {
			if tail[i].p != tail[j].p {
				a, b, found = tail[i], tail[j], true
				break
			}
		}
	}
	if !found {
		t.Fatal("test premise broken: no distinct tail pair")
	}
	got := ex[a.k] / ex[b.k]
	want := (a.p / b.p) * (a.p / b.p)
	if !almostEq(got/want, 1, 1e-9) {
		t.Fatalf("tail ratio %v, want %v (L(x)=Pr(x)² violated)", got, want)
	}
}

func TestRunErrors(t *testing.T) {
	cases := map[string]map[string]float64{
		"empty":       {},
		"mixed width": {"01": 1, "011": 1},
		"bad chars":   {"0x": 1},
		"no mass":     {"01": 0, "10": 0},
		"negative":    {"01": -1},
	}
	for name, h := range cases {
		if _, err := Run(h); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestPSTAndIST(t *testing.T) {
	h := map[string]float64{"111": 0.3, "101": 0.4, "011": 0.3}
	pst, err := PST(h, []string{"111"})
	if err != nil || !almostEq(pst, 0.3, 1e-12) {
		t.Errorf("PST = %v, %v", pst, err)
	}
	ist, err := IST(h, []string{"111"})
	if err != nil || !almostEq(ist, 0.75, 1e-12) {
		t.Errorf("IST = %v, %v", ist, err)
	}
	if _, err := PST(h, []string{"1111"}); err == nil {
		t.Error("width mismatch accepted")
	}
	if _, err := PST(h, nil); err == nil {
		t.Error("empty correct set accepted")
	}
}

func TestEHDAndSpectrum(t *testing.T) {
	h := map[string]float64{"00": 0.5, "01": 0.25, "11": 0.25}
	ehd, err := EHD(h, []string{"00"})
	if err != nil || !almostEq(ehd, 0.25*1+0.25*2, 1e-12) {
		t.Errorf("EHD = %v, %v", ehd, err)
	}
	sp, err := Spectrum(h, []string{"00"})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.5, 0.25, 0.25}
	for k := range want {
		if !almostEq(sp[k], want[k], 1e-12) {
			t.Errorf("spectrum = %v", sp)
		}
	}
}

func TestEndToEndImprovement(t *testing.T) {
	// Full public-API pipeline: noisy histogram -> metrics -> HAMMER ->
	// metrics, asserting the paper's headline direction.
	in := noisyBV()
	correct := []string{"11111111"}
	pstBefore, _ := PST(norm(in), correct)
	out, err := Run(in)
	if err != nil {
		t.Fatal(err)
	}
	pstAfter, _ := PST(out, correct)
	if pstAfter <= pstBefore {
		t.Errorf("PST did not improve: %v -> %v", pstBefore, pstAfter)
	}
	istBefore, _ := IST(norm(in), correct)
	istAfter, _ := IST(out, correct)
	if istAfter <= istBefore {
		t.Errorf("IST did not improve: %v -> %v", istBefore, istAfter)
	}
}

func TestKeyFormatsPreserved(t *testing.T) {
	in := map[string]float64{"0001": 0.5, "1000": 0.5}
	out, err := Run(in)
	if err != nil {
		t.Fatal(err)
	}
	for k := range out {
		if len(k) != 4 || strings.Trim(k, "01") != "" {
			t.Errorf("malformed output key %q", k)
		}
	}
}

func sum(h map[string]float64) float64 {
	var s float64
	for _, v := range h {
		s += v
	}
	return s
}

func norm(h map[string]float64) map[string]float64 {
	s := sum(h)
	out := make(map[string]float64, len(h))
	for k, v := range h {
		out[k] = v / s
	}
	return out
}
