package main

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"repro/internal/bitstr"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dist"
)

// referenceDecode is the decode the one-pass scanner replaced, kept as an
// oracle that shares no code with it: encoding/json into a
// map[string]float64, bare body first, then the {"counts", "config",
// "deadline_ms"} wrapper with a non-empty counts map.
func referenceDecode(body []byte) (map[string]float64, *wireConfig, int64, bool) {
	var bare map[string]float64
	if err := json.Unmarshal(body, &bare); err == nil {
		return bare, nil, 0, true
	}
	var wrapped struct {
		Counts     map[string]float64 `json:"counts"`
		Config     *wireConfig        `json:"config"`
		DeadlineMS int64              `json:"deadline_ms"`
	}
	if err := json.Unmarshal(body, &wrapped); err == nil && len(wrapped.Counts) > 0 && wrapped.DeadlineMS >= 0 {
		return wrapped.Counts, wrapped.Config, wrapped.DeadlineMS, true
	}
	return nil, nil, 0, false
}

// sameDist reports whether two distributions are bit-identical: one width,
// one support, and equal float64 bits on every outcome and in the total.
func sameDist(a, b *dist.Dist) bool {
	if a.NumBits() != b.NumBits() || a.Len() != b.Len() ||
		math.Float64bits(a.Total()) != math.Float64bits(b.Total()) {
		return false
	}
	same := true
	a.Range(func(x bitstr.Bits, p float64) {
		if math.Float64bits(b.Prob(x)) != math.Float64bits(p) {
			same = false
		}
	})
	return same
}

// FuzzParseHistogramJSON checks the histogram scanner, as decodeReconstruct
// runs it (bare, and inside encoding/json's wrapper), against referenceDecode + FromHistogram +
// cache.Key: both sides must accept the same bodies, and on accepted ones
// give the same width, override and deadline, a bit-identical Dist, and the
// same cache key.
func FuzzParseHistogramJSON(f *testing.F) {
	for _, seed := range []string{
		`{"0101": 3, "1100": 1.5}`,
		`{"01": 1, "10": 2}`,
		`{"01": 1, "01": 4}`,
		`{"01": 1, "01": 3, "10": 2}`,
		`{"10": 1, "01": 2, "10": 5, "00": 0}`,
		`{"01": null, "10": 1}`,
		`{"01": -0, "10": 1}`,
		`{"01": -0}`,
		`{"0": 1e400}`,
		`{"0": 1e-400, "1": 2}`,
		`{"0": 5e-324}`,
		`{"0": 1.5E+2, "1": 0.25e-1}`,
		" \t\r\n{ \"01\" :\t1 ,\n\"11\":2 }\n ",
		`{"0": 1} x`,
		`{"0": 1}{}`,
		`{"0": 01}`,
		`{"0": 1.}`,
		`{"0": -}`,
		`{"0": "1"}`,
		`{"0x": 1}`,
		`{"": 1}`,
		`{"01": 1, "011": 1}`,
		`{"01": 0, "10": 0}`,
		`{"01": -1, "01": 2}`,
		`{"01": 1.7e308, "10": 1.7e308}`,
		`{}`,
		`null`,
		`[]`,
		`{"counts": {"01": 1}}`,
		`{"COUNTS": {"01": 1}}`,
		`{"Counts": {"01": 1}, "cOUNTS": {"10": 2}}`,
		`{"counts": {"01": 1}, "counts": {"10": 2}}`,
		`{"counts": {"01": 1}, "counts": {"01": 7}}`,
		`{"counts": {"01": -1}, "counts": null, "counts": {"1": 2}}`,
		`{"counts": {"01": 1}, "counts": null}`,
		`{"counts": {"0x": 1}, "counts": null, "counts": {"1": 1}}`,
		`{"counts": {"01": 1}, "config": {"radius": 1, "engine": "exact"}, "deadline_ms": 50}`,
		`{"counts": {"01": 1}, "deadline_ms": -1}`,
		`{"counts": {"01": 1}, "config": {"radius": "x"}}`,
		`{"counts": {}, "01": 1}`,
		`{"counts": {"01": 1}, "01": 1}`,
		`{"counts": {"01": 1}}`,
		`{"counts": 5}`,
		`{"counts": null}`,
		`{"counts": {"01": 1}} x`,
	} {
		f.Add([]byte(seed))
	}
	opts := []core.Options{{}, {Radius: 2, Engine: core.EngineExact, TopM: 4}}
	f.Fuzz(func(t *testing.T, body []byte) {
		rr, err := decodeReconstruct(body)
		counts, override, deadlineMS, ok := referenceDecode(body)
		var ref *dist.Dist
		var refN int
		if ok {
			var rerr error
			if ref, refN, rerr = dist.FromHistogram(counts); rerr != nil {
				ok = false
			}
		}
		if (err == nil) != ok {
			t.Fatalf("scanner accepts=%v (err %v), reference accepts=%v, body %q", err == nil, err, ok, body)
		}
		if !ok {
			return
		}
		if rr.width != refN {
			t.Fatalf("width %d, reference %d", rr.width, refN)
		}
		if !reflect.DeepEqual(rr.override, override) || rr.deadline.Milliseconds() != deadlineMS {
			t.Fatalf("override %+v/%v, reference %+v/%d", rr.override, rr.deadline, override, deadlineMS)
		}
		got, err := dist.FromEntries(rr.width, rr.entries)
		if err != nil {
			t.Fatalf("FromEntries rejected scanned entries: %v", err)
		}
		if !sameDist(got, ref) {
			t.Fatalf("dist %v, reference %v", got, ref)
		}
		for _, o := range opts {
			if k, want := cache.KeyEntries(rr.entries, rr.width, o), cache.Key(counts, o); k != want {
				t.Fatalf("key %s, reference %s", k, want)
			}
		}
	})
}
