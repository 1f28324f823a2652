package cache

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/bitstr"
	"repro/internal/core"
	"repro/internal/dist"
)

func TestKeyMapOrderIndependent(t *testing.T) {
	// Build equal maps via different insertion orders; Go additionally
	// randomizes iteration, so repeated Key calls exercise differing orders.
	a := map[string]float64{}
	b := map[string]float64{}
	outs := []string{"0000", "0001", "0011", "0111", "1111", "1010", "0101"}
	for i := 0; i < len(outs); i++ {
		a[outs[i]] = float64(i + 1)
		b[outs[len(outs)-1-i]] = float64(len(outs) - i)
	}
	want := Key(a, core.Options{})
	for i := 0; i < 20; i++ {
		if got := Key(b, core.Options{}); got != want {
			t.Fatalf("key differs across equal maps: %s vs %s", got, want)
		}
	}
}

func TestKeySensitivity(t *testing.T) {
	h := map[string]float64{"01": 1, "10": 2}
	base := Key(h, core.Options{})
	distinct := map[string]string{
		"different value":   Key(map[string]float64{"01": 1, "10": 2.0000000001}, core.Options{}),
		"different outcome": Key(map[string]float64{"01": 1, "11": 2}, core.Options{}),
		"extra outcome":     Key(map[string]float64{"01": 1, "10": 2, "00": 0}, core.Options{}),
		"radius":            Key(h, core.Options{Radius: 1}),
		"weights":           Key(h, core.Options{Weights: core.UniformWeight}),
		"filter":            Key(h, core.Options{DisableFilter: true}),
		"topm":              Key(h, core.Options{TopM: 4}),
		"engine":            Key(h, core.Options{Engine: core.EngineExact}),
	}
	for name, k := range distinct {
		if k == base {
			t.Errorf("%s: key collided with base", name)
		}
	}
	// Workers must NOT participate: parallelism never changes results.
	if Key(h, core.Options{Workers: 8}) != base {
		t.Error("Workers changed the key")
	}
	// Injectivity for arbitrary (not-yet-validated) keys: a single crafted
	// key embedding another entry's serialization — separator bytes, float
	// bits and all — must not collide with the honest two-entry histogram.
	// Keys are hashed before wire validation, so this is security-relevant.
	// Under a separator-based encoding this exact key — "01", a fake
	// separator, float64(1)'s bits, then "10" — serialized identically to
	// the honest histogram.
	embedded := "01" + "\x00" + string([]byte{0, 0, 0, 0, 0, 0, 0xf0, 0x3f}) + "10"
	if Key(map[string]float64{embedded: 2}, core.Options{}) == base {
		t.Error("crafted embedded key collided with a valid histogram")
	}
	// "" and "auto" are the same engine.
	if Key(h, core.Options{Engine: core.EngineAuto}) != base {
		t.Error(`Engine "auto" keyed differently from ""`)
	}
}

// TestKeyGolden pins keys computed by Key before KeyEntries existed, when
// Key hashed each entry with its own writes. Key and KeyEntries must both
// still produce them: they name the files of existing -cache-dir
// directories and the entries peers running older builds serve.
func TestKeyGolden(t *testing.T) {
	wide := map[string]float64{}
	for i := 0; i < 300; i++ {
		// 300 distinct 20-bit outcomes, 36 serialized bytes each: the
		// stream spans several of keyStream's 4096-byte writes.
		wide[fmt.Sprintf("%020b", i*7919%(1<<20))] = float64(i%13) / 3
	}
	for _, c := range []struct {
		name string
		hist map[string]float64
		opts core.Options
		want string
	}{
		{"two outcomes", map[string]float64{"01": 1, "10": 2}, core.Options{},
			"0026519dfed1e3a3fa9d0ba07e40d2f634d67bb2041f634809d5066799fe197c"},
		{"every option", map[string]float64{"01": 1, "10": 2}, core.Options{
			Radius: 1, Weights: core.UniformWeight, DisableFilter: true,
			Workers: 8, TopM: 4, Engine: core.EngineExact},
			"2a759e24bf48745d77bd4e8544bcf9ee86a045722c87cf1649f2b7c5a3bb0077"},
		{"20 bits", wide, core.Options{Engine: core.EngineBucketed},
			"7be2c5aabe1cdeed384b930ea76749d1d42e536d3897959044701258afd7e842"},
		{"64 bits", map[string]float64{
			strings.Repeat("0", 64):       math.Copysign(0, -1),
			strings.Repeat("01", 32):      1e-7,
			"1" + strings.Repeat("0", 63): 5e-324,
			strings.Repeat("1", 64):       0.1,
		}, core.Options{Radius: 3},
			"f43bf5ee9dbbd7bf43b6ab2b17bd8e2eb720cb56caf6e13f1dae94d6633540bc"},
	} {
		if got := Key(c.hist, c.opts); got != c.want {
			t.Errorf("%s: Key = %s, want %s", c.name, got, c.want)
		}
		var es []dist.Entry
		n := 0
		for k, p := range c.hist {
			x, err := bitstr.Parse(k)
			if err != nil {
				t.Fatal(err)
			}
			es, n = append(es, dist.Entry{X: x, P: p}), len(k)
		}
		slices.SortFunc(es, func(a, b dist.Entry) int { return cmp.Compare(a.X, b.X) })
		if got := KeyEntries(es, n, c.opts); got != c.want {
			t.Errorf("%s: KeyEntries = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := New[int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	if _, ok := c.Get("a"); !ok { // refresh a: b is now LRU
		t.Fatal("a missing")
	}
	c.Put("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted (LRU after a was refreshed)")
	}
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Errorf("a = %d, %t", v, ok)
	}
	if v, ok := c.Get("c"); !ok || v != 3 {
		t.Errorf("c = %d, %t", v, ok)
	}
	if c.Len() != 2 || c.Evictions() != 1 {
		t.Errorf("len %d evictions %d", c.Len(), c.Evictions())
	}
	// Replacing an existing key neither grows nor evicts.
	c.Put("c", 30)
	if v, _ := c.Get("c"); v != 30 || c.Len() != 2 || c.Evictions() != 1 {
		t.Errorf("replace: c=%d len=%d evictions=%d", v, c.Len(), c.Evictions())
	}
}

func TestLRUStats(t *testing.T) {
	c := New[string](4)
	c.Get("absent")
	c.Put("k", "v")
	c.Get("k")
	c.Get("k")
	c.Get("also-absent")
	if c.Hits() != 2 || c.Misses() != 2 {
		t.Errorf("hits %d misses %d", c.Hits(), c.Misses())
	}
	if c.Capacity() != 4 {
		t.Errorf("capacity %d", c.Capacity())
	}
}

func TestNilLRUDisabled(t *testing.T) {
	c := New[int](0)
	if c != nil {
		t.Fatal("non-positive capacity should return nil")
	}
	c.Put("k", 1)
	if v, ok := c.Get("k"); ok || v != 0 {
		t.Error("nil cache returned a hit")
	}
	if c.Len() != 0 || c.Capacity() != 0 || c.Hits() != 0 || c.Misses() != 0 || c.Evictions() != 0 {
		t.Error("nil cache reported nonzero stats")
	}
}

// Concurrent Get/Put/stat reads across overlapping keys: correctness under
// -race, plus the conservation law hits+misses == lookups.
func TestLRUConcurrent(t *testing.T) {
	c := New[int](16)
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j",
		"k", "l", "m", "n", "o", "p", "q", "r", "s", "t"}
	const perWorker = 500
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				k := keys[(i+w)%len(keys)]
				if v, ok := c.Get(k); ok && v < 0 {
					t.Error("impossible cached value")
				}
				c.Put(k, i)
				c.Len()
				c.Evictions()
			}
		}(w)
	}
	wg.Wait()
	if got := c.Hits() + c.Misses(); got != 8*perWorker {
		t.Errorf("hits+misses = %d, want %d", got, 8*perWorker)
	}
	if c.Len() > 16 {
		t.Errorf("len %d exceeds capacity", c.Len())
	}
}
