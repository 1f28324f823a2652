package stream

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitstr"
	"repro/internal/core"
	"repro/internal/dist"
)

func TestNewValidation(t *testing.T) {
	for name, c := range map[string]struct {
		n    int
		opts core.Options
	}{
		"width 0":            {0, core.Options{}},
		"width 65":           {65, core.Options{}},
		"negative radius":    {4, core.Options{Radius: -1}},
		"negative topm":      {4, core.Options{TopM: -1}},
		"unknown engine":     {4, core.Options{Engine: "gpu"}},
		"incremental + topm": {4, core.Options{Engine: core.EngineIncremental, TopM: 8}},
	} {
		if _, err := New(c.n, c.opts); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	for name, opts := range map[string]core.Options{
		"zero":        {},
		"auto":        {Engine: core.EngineAuto},
		"incremental": {Engine: core.EngineIncremental},
		"exact":       {Engine: core.EngineExact},
		"topm":        {TopM: 16},
	} {
		if _, err := New(8, opts); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestIncrementalGating(t *testing.T) {
	for _, c := range []struct {
		opts core.Options
		want bool
	}{
		{core.Options{}, true},
		{core.Options{Engine: core.EngineAuto}, true},
		{core.Options{Engine: core.EngineIncremental}, true},
		{core.Options{Engine: core.EngineExact}, false},
		{core.Options{Engine: core.EngineBucketed}, false},
		{core.Options{TopM: 32}, false},
	} {
		if got := Incremental(c.opts); got != c.want {
			t.Errorf("Incremental(%+v) = %v", c.opts, got)
		}
	}
}

func TestIngestErrors(t *testing.T) {
	s, err := New(3, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.IngestN(0b1000, 1); err == nil {
		t.Error("overflowing outcome accepted")
	}
	if err := s.IngestN(0b001, 0); err == nil {
		t.Error("zero count accepted")
	}
	if err := s.IngestN(0b001, -4); err == nil {
		t.Error("negative count accepted")
	}
	wide := dist.NewCounts(5)
	wide.Add(0b10000)
	if err := s.IngestCounts(wide); err == nil {
		t.Error("mismatched batch width accepted")
	}
	if _, err := s.Snapshot(); err == nil {
		t.Error("empty snapshot did not error")
	}
}

func TestAccessors(t *testing.T) {
	s, err := New(4, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumBits() != 4 {
		t.Errorf("NumBits %d", s.NumBits())
	}
	if err := s.Ingest(0b1111); err != nil {
		t.Fatal(err)
	}
	if err := s.IngestN(0b1110, 3); err != nil {
		t.Fatal(err)
	}
	batch := dist.NewCounts(4)
	batch.AddN(0b1111, 2)
	batch.AddN(0b0111, 1)
	if err := s.IngestCounts(batch); err != nil {
		t.Fatal(err)
	}
	if s.Shots() != 7 || s.Support() != 3 {
		t.Errorf("shots=%d support=%d", s.Shots(), s.Support())
	}
	// Counts returns a copy: mutating it must not corrupt the stream.
	c := s.Counts()
	c.AddN(0b0000, 100)
	if s.Shots() != 7 {
		t.Error("Counts() exposed internal state")
	}
}

// streamVsBatch drives a stream and the batch pipeline from the same shot
// sequence and asserts snapshot agreement at every checkpoint.
func streamVsBatch(t *testing.T, opts core.Options, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const n = 9
	s, err := New(n, opts)
	if err != nil {
		t.Fatal(err)
	}
	acc := dist.NewCounts(n)
	key := bitstr.Bits(rng.Intn(1 << n))
	for round := 0; round < 8; round++ {
		batch := 1 + rng.Intn(60)
		for i := 0; i < batch; i++ {
			x := key
			for f := rng.Intn(4); f > 0; f-- {
				x = bitstr.Flip(x, rng.Intn(n))
			}
			if err := s.Ingest(x); err != nil {
				t.Fatal(err)
			}
			acc.Add(x)
		}
		got, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		batchOpts := opts
		if batchOpts.Engine == core.EngineIncremental {
			batchOpts.Engine = ""
		}
		want := core.Reconstruct(acc.Dist(), batchOpts)
		if d := dist.TVD(got.Out, want.Out); d > 1e-12 {
			t.Fatalf("round %d: TVD %v (engine %s)", round, d, got.Engine)
		}
	}
}

func TestSnapshotMatchesBatch(t *testing.T) {
	for name, opts := range map[string]core.Options{
		"incremental": {},
		"pinned-inc":  {Engine: core.EngineIncremental},
		"no-filter":   {DisableFilter: true},
		"radius 2":    {Radius: 2},
		"exact":       {Engine: core.EngineExact},
		"bucketed":    {Engine: core.EngineBucketed},
		"topm":        {TopM: 24},
	} {
		t.Run(name, func(t *testing.T) { streamVsBatch(t, opts, 77) })
	}
}

// TestSnapshotEngineSelection pins which path serves each configuration.
func TestSnapshotEngineSelection(t *testing.T) {
	ingest := func(s *Stream) {
		for i := 0; i < 80; i++ {
			if err := s.IngestN(bitstr.Bits(i), 1+i%5); err != nil {
				t.Fatal(err)
			}
		}
	}
	inc, _ := New(8, core.Options{})
	ingest(inc)
	res, err := inc.Snapshot()
	if err != nil || res.Engine != core.EngineIncremental {
		t.Fatalf("default stream ran %q, %v", res.Engine, err)
	}
	pinned, _ := New(8, core.Options{Engine: core.EngineExact})
	ingest(pinned)
	res, err = pinned.Snapshot()
	if err != nil || res.Engine != core.EngineExact {
		t.Fatalf("pinned stream ran %q, %v", res.Engine, err)
	}
	truncated, _ := New(8, core.Options{TopM: 16})
	ingest(truncated)
	res, err = truncated.Snapshot()
	if err != nil || res.Engine == core.EngineIncremental {
		t.Fatalf("TopM stream ran %q, %v", res.Engine, err)
	}
	if mass := res.Out.Total(); math.Abs(mass-1) > 1e-12 {
		t.Fatalf("TopM snapshot mass %v", mass)
	}
}

// TestIngestShotBound: a stream holds up to dist.MaxShots shots, the
// total the journal replays and float64 masses represent exactly; an ingest
// past it is refused whole, on the incremental and the batch path alike.
func TestIngestShotBound(t *testing.T) {
	for _, opts := range []core.Options{{}, {TopM: 2}} {
		s, err := New(4, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.IngestN(0b0101, dist.MaxShots-3); err != nil {
			t.Fatal(err)
		}
		if err := s.IngestN(0b0011, 3); err != nil {
			t.Fatalf("ingest up to the bound refused: %v", err)
		}
		if err := s.IngestN(0b1111, 1); err == nil {
			t.Error("ingest past the bound accepted")
		}
		batch := dist.NewCounts(4)
		batch.AddN(0b0001, 1)
		if err := s.IngestCounts(batch); err == nil {
			t.Error("batch past the bound accepted")
		}
		if _, err := s.CheckShots(0, 0); err == nil {
			t.Error("zero count accepted")
		}
		c := s.Counts()
		if s.Shots() != dist.MaxShots || s.Support() != 2 ||
			c.Get(0b0101) != dist.MaxShots-3 || c.Get(0b0011) != 3 {
			t.Errorf("TopM=%d: shots %d support %d counts %d/%d after refused ingests",
				opts.TopM, s.Shots(), s.Support(), c.Get(0b0101), c.Get(0b0011))
		}
		if _, err := s.Snapshot(); err != nil {
			t.Errorf("TopM=%d: snapshot at the bound: %v", opts.TopM, err)
		}
	}
}
