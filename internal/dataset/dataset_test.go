package dataset

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitstr"
	"repro/internal/dist"
	"repro/internal/metrics"
	"repro/internal/noise"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestBVSuiteMatchesTable2(t *testing.T) {
	s := BVSuite(1, 15)
	// Table 2: BV 5-15 qubits, 88 circuits.
	if len(s.Instances) != 88 {
		t.Errorf("BV suite has %d instances, Table 2 says 88", len(s.Instances))
	}
	for _, inst := range s.Instances {
		if inst.Qubits < 5 || inst.Qubits > 15 {
			t.Errorf("BV size %d out of range", inst.Qubits)
		}
		if inst.Secret&^bitstr.AllOnes(inst.Qubits) != 0 {
			t.Errorf("secret exceeds width for %s", inst.ID)
		}
	}
}

func TestBVSuiteTruncation(t *testing.T) {
	s := BVSuite(1, 8)
	for _, inst := range s.Instances {
		if inst.Qubits > 8 {
			t.Fatalf("truncation failed: %d qubits", inst.Qubits)
		}
	}
	if len(s.Instances) != 8*4 { // sizes 5,6,7,8
		t.Errorf("truncated suite size = %d", len(s.Instances))
	}
}

func TestSuitesDeterministic(t *testing.T) {
	a := QAOA3RegSuite(7, 6, 8, []int{1}, 2)
	b := QAOA3RegSuite(7, 6, 8, []int{1}, 2)
	if len(a.Instances) != len(b.Instances) {
		t.Fatal("sizes differ")
	}
	for i := range a.Instances {
		ia, ib := a.Instances[i], b.Instances[i]
		if ia.ID != ib.ID || ia.Seed != ib.Seed || len(ia.Graph.Edges) != len(ib.Graph.Edges) {
			t.Fatalf("instance %d differs", i)
		}
	}
}

func TestExecuteBVRun(t *testing.T) {
	inst := &Instance{ID: "t", Kind: KindBV, Qubits: 6,
		Secret: bitstr.MustParse("101101"), Seed: 3}
	run := Execute(inst, noise.IBMParisLike(), 0)
	// Ideal output: secret with probability ~1 (ancilla marginalized away).
	if got := run.Ideal.Prob(inst.Secret); !almostEq(got, 1, 1e-9) {
		t.Fatalf("ideal P(secret) = %v", got)
	}
	if run.Noisy.NumBits() != 6 {
		t.Fatalf("noisy width = %d (ancilla not dropped?)", run.Noisy.NumBits())
	}
	pst := metrics.PST(run.Noisy, run.Correct)
	if pst <= 0.01 || pst >= 0.99 {
		t.Errorf("noisy PST = %v, want usable noise regime", pst)
	}
	if !almostEq(run.Noisy.Total(), 1, 1e-9) {
		t.Errorf("noisy mass = %v", run.Noisy.Total())
	}
}

func TestExecuteQAOARun(t *testing.T) {
	s := QAOA3RegSuite(11, 6, 6, []int{2}, 1)
	if len(s.Instances) != 1 {
		t.Fatalf("suite size = %d", len(s.Instances))
	}
	run := Execute(s.Instances[0], noise.IBMManhattanLike(), 0)
	if run.Cmin >= 0 {
		t.Fatalf("Cmin = %v, want negative", run.Cmin)
	}
	if len(run.Correct) < 2 {
		t.Errorf("expected Z2-paired argmins, got %d", len(run.Correct))
	}
	// Noise must strictly degrade the distribution vs ideal.
	if tvd := dist.TVD(run.Ideal, run.Noisy); tvd < 1e-3 {
		t.Errorf("noisy output suspiciously close to ideal: TVD = %v", tvd)
	}
}

func TestExecuteShotsSampling(t *testing.T) {
	inst := &Instance{ID: "t", Kind: KindGHZ, Qubits: 5, Seed: 9}
	run := Execute(inst, noise.IBMParisLike(), 2048)
	if run.Shots != 2048 {
		t.Fatalf("shots = %d", run.Shots)
	}
	// Finite sampling: support far below 2^5 * huge, mass normalized.
	if !almostEq(run.Noisy.Total(), 1, 1e-9) {
		t.Errorf("mass = %v", run.Noisy.Total())
	}
	// Same seed, same result.
	run2 := Execute(inst, noise.IBMParisLike(), 2048)
	if dist.TVD(run.Noisy, run2.Noisy) != 0 {
		t.Error("sampling not deterministic by seed")
	}
}

func TestGridSuiteUsesGridGraphs(t *testing.T) {
	s := QAOAGridSuite(5, 6, 10, []int{1, 2}, 1)
	if len(s.Instances) != 3*2 {
		t.Fatalf("suite size = %d", len(s.Instances))
	}
	for _, inst := range s.Instances {
		if inst.Graph.N != inst.Qubits {
			t.Errorf("%s: graph size %d != %d", inst.ID, inst.Graph.N, inst.Qubits)
		}
	}
}

func TestRandSuiteAvoidsEdgeless(t *testing.T) {
	s := QAOARandSuite(3, 5, 8, []int{2}, 4)
	for _, inst := range s.Instances {
		if len(inst.Graph.Edges) == 0 {
			t.Errorf("%s has no edges", inst.ID)
		}
	}
}

func TestSKSuite(t *testing.T) {
	s := QAOASKSuite(2, 4, 5, []int{1}, 2)
	if len(s.Instances) != 4 {
		t.Fatalf("suite size = %d", len(s.Instances))
	}
	for _, inst := range s.Instances {
		want := inst.Qubits * (inst.Qubits - 1) / 2
		if len(inst.Graph.Edges) != want {
			t.Errorf("%s: %d edges, want complete graph %d", inst.ID, len(inst.Graph.Edges), want)
		}
	}
}

func TestRecordRoundTrip(t *testing.T) {
	inst := &Instance{ID: "rt", Kind: KindBV, Qubits: 5,
		Secret: bitstr.MustParse("10110"), Seed: 21}
	run := Execute(inst, noise.IBMTorontoLike(), 0)
	rec := run.ToRecord(1e-9)
	var buf bytes.Buffer
	if err := WriteRecords(&buf, []*Record{rec}); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].ID != "rt" || recs[0].Device != "ibm-toronto-like" {
		t.Fatalf("round trip metadata wrong: %+v", recs[0])
	}
	ideal, noisy, correct, err := recs[0].Dists()
	if err != nil {
		t.Fatal(err)
	}
	if len(correct) != 1 || correct[0] != inst.Secret {
		t.Fatalf("correct set = %v", correct)
	}
	if d := dist.TVD(run.Ideal, ideal); d > 1e-6 {
		t.Errorf("ideal round-trip TVD = %v", d)
	}
	if d := dist.TVD(run.Noisy, noisy); d > 1e-6 {
		t.Errorf("noisy round-trip TVD = %v", d)
	}
}

func TestRecordBadStrings(t *testing.T) {
	rec := &Record{ID: "bad", Qubits: 3, Correct: []string{"10x"},
		Ideal: map[string]float64{"000": 1}, Noisy: map[string]float64{"000": 1}}
	if _, _, _, err := rec.Dists(); err == nil {
		t.Error("expected error for malformed correct string")
	}
	rec2 := &Record{ID: "bad2", Qubits: 3,
		Ideal: map[string]float64{"0z0": 1}, Noisy: map[string]float64{"000": 1}}
	if _, _, _, err := rec2.Dists(); err == nil {
		t.Error("expected error for malformed outcome string")
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/runs.json"
	inst := &Instance{ID: "f", Kind: KindGHZ, Qubits: 4, Seed: 2}
	rec := Execute(inst, noise.IBMParisLike(), 0).ToRecord(1e-9)
	if err := SaveFile(path, []*Record{rec}); err != nil {
		t.Fatal(err)
	}
	recs, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].ID != "f" {
		t.Fatalf("loaded %+v", recs)
	}
}

func TestExecutePanicsOnMissingGraph(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Execute(&Instance{ID: "x", Kind: KindQAOA3Reg, Qubits: 6}, noise.IBMParisLike(), 0)
}

func TestGHZSuite(t *testing.T) {
	s := GHZSuite(3, 3, 8)
	if len(s.Instances) != 6 {
		t.Fatalf("suite size = %d", len(s.Instances))
	}
	run := Execute(s.Instances[0], noise.IBMParisLike(), 0)
	if len(run.Correct) != 2 {
		t.Fatalf("GHZ correct set = %d", len(run.Correct))
	}
	pCorrect := run.Noisy.Prob(run.Correct[0]) + run.Noisy.Prob(run.Correct[1])
	if pCorrect <= 0.05 || pCorrect >= 1 {
		t.Errorf("GHZ correct mass = %v", pCorrect)
	}
	// Determinism.
	run2 := Execute(s.Instances[0], noise.IBMParisLike(), 0)
	if dist.TVD(run.Noisy, run2.Noisy) != 0 {
		t.Error("GHZ execution not deterministic")
	}
}

// TestRecordDistsBitReproducible: a record's histograms are maps, and
// Dists must not let Go's map order into the total it normalizes by, so
// repeated conversions of one record agree in every bit of every mass.
func TestRecordDistsBitReproducible(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	rec := &Record{ID: "r", Qubits: 16, Ideal: map[string]float64{}, Noisy: map[string]float64{}}
	for len(rec.Noisy) < 500 {
		rec.Noisy[bitstr.Format(bitstr.Bits(rng.Intn(1<<16)), 16)] = rng.Float64() / 7
	}
	for len(rec.Ideal) < 40 {
		rec.Ideal[bitstr.Format(bitstr.Bits(rng.Intn(1<<16)), 16)] = rng.Float64() / 3
	}
	bits := func() []uint64 {
		ideal, noisy, _, err := rec.Dists()
		if err != nil {
			t.Fatal(err)
		}
		var out []uint64
		for _, d := range []*dist.Dist{ideal, noisy} {
			d.Range(func(_ bitstr.Bits, p float64) { out = append(out, math.Float64bits(p)) })
		}
		return out
	}
	first := bits()
	for call := 1; call < 20; call++ {
		if !slices.Equal(bits(), first) {
			t.Fatalf("call %d: masses differ in some bit from the first call's", call)
		}
	}
}
