package main

import (
	"encoding/json"
	"math"
	"math/big"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/bitstr"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dist"
)

// referenceDecode is the decode the one-pass scanner replaced, kept as an
// oracle that shares no code with it: encoding/json into a
// map[string]float64, bare body first, then the {"counts", "config",
// "deadline_ms"} wrapper with a non-empty counts map, its deadline converted
// by referenceDeadline.
func referenceDecode(body []byte) (map[string]float64, *wireConfig, time.Duration, bool) {
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
		return wrapped.Counts, wrapped.Config, referenceDeadline(wrapped.DeadlineMS), true
	}
	return nil, nil, 0, false
}

// referenceDeadline is the deadline_ms rule written the long way: the
// nanoseconds computed exactly in math/big, and any count past the largest
// time.Duration read as that duration.
func referenceDeadline(ms int64) time.Duration {
	ns := new(big.Int).Mul(big.NewInt(ms), big.NewInt(int64(time.Millisecond)))
	if !ns.IsInt64() {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(ns.Int64())
}

// referenceRequest is one request as the reference reads it.
type referenceRequest struct {
	counts   map[string]float64
	override *wireConfig
	deadline time.Duration
	d        *dist.Dist
	width    int
}

// referenceRead runs referenceDecode and FromHistogram on one body; ok
// reports whether the reference accepts it.
func referenceRead(body []byte) (ref referenceRequest, ok bool) {
	ref.counts, ref.override, ref.deadline, ok = referenceDecode(body)
	if ok {
		var err error
		ref.d, ref.width, err = dist.FromHistogram(ref.counts)
		ok = err == nil
	}
	return ref, ok
}

// checkRequest fails the test unless rr is the request the reference read:
// the same width, override and deadline, a bit-identical Dist, and the same
// cache key under each of a few option sets.
func checkRequest(t *testing.T, rr *reconstructRequest, ref referenceRequest) {
	t.Helper()
	if rr.width != ref.width {
		t.Fatalf("width %d, reference %d", rr.width, ref.width)
	}
	if !reflect.DeepEqual(rr.override, ref.override) || rr.deadline != ref.deadline {
		t.Fatalf("override %+v/%v, reference %+v/%v", rr.override, rr.deadline, ref.override, ref.deadline)
	}
	// Keys first, as the handler does: FromEntries takes the entries over
	// and normalizes them in place.
	for _, o := range []core.Options{{}, {Radius: 2, Engine: core.EngineExact, TopM: 4}} {
		if k, want := cache.KeyEntries(rr.entries, rr.width, o), cache.Key(ref.counts, o); k != want {
			t.Fatalf("key %s, reference %s", k, want)
		}
	}
	got, err := dist.FromEntries(rr.width, rr.entries)
	if err != nil {
		t.Fatalf("FromEntries rejected scanned entries: %v", err)
	}
	if !sameDist(got, ref.d) {
		t.Fatalf("dist %v, reference %v", got, ref.d)
	}
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

// FuzzParseHistogramJSON checks decodeReconstruct against referenceRead
// and the cache key of its map: both sides must accept the same bodies, and
// on accepted ones give the same width, override and deadline, a
// bit-identical Dist, and the same cache key.
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
		`{"counts": {"01": 1}, "deadline_ms": 18446744073710}`,
		`{"counts": {"01": 1}, "deadline_ms": 70761710266749840}`,
		`{"counts": {"01": 1}, "deadline_ms": 9223372036854775807}`,
		`{"counts": {"01": 1}, "deadline_ms": 9223372036854775808}`,
		`{"counts": {"01": 1}, "deadline_ms": 9223372036854, "deadline_ms": null}`,
		`{"counts": {"01": 1}, "deadline_ms": 1e3}`,
		`{"counts": {"01": 1}, "config": {"radius": 1}, "CONFIG": {"topm": 2}}`,
		`{"counts": {"01": 1}, "config": {"radius": 1}, "config": null}`,
		`{"c\u006funts": {"01": 1}, "count\u017f": {"10": 1}, "cou\nts": {"11": 1}}`,
		"{\"count\u017f\": {\"01\": 1}}",
		`{"cou\u006ets": {"01": 1}, "\u0063onfig": {"radius": 1}, "deadli\u006ee_ms": 5}`,
		`{"cou\nts": {"01": 1}}`,
		`{"counts": {"01": 1}, "x": [[[{"y": "\ud83d\ude00"}]]], "z": true}`,
	} {
		f.Add([]byte(seed))
	}
	// encoding/json's nesting limit: 10000 open objects and arrays pass,
	// 10001 do not.
	f.Add(nested(`{"counts": {"01": 1}, "x": `, 9999, `}`))
	f.Add(nested(`{"counts": {"01": 1}, "x": `, 10000, `}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		rr, err := decodeReconstruct(body)
		ref, ok := referenceRead(body)
		if (err == nil) != ok {
			t.Fatalf("scanner accepts=%v (err %v), reference accepts=%v, body %q", err == nil, err, ok, body)
		}
		if ok {
			checkRequest(t, rr, ref)
		}
	})
}

// FuzzBatchEnvelope checks decodeBatch against encoding/json: the envelope
// decoded into struct{ Requests []json.RawMessage }, then referenceRead on
// each member. Both sides must accept the same bodies and fail at the same
// index (-1 for a malformed envelope or an empty batch, else the lowest
// failing member), and agree on every member both accept.
func FuzzBatchEnvelope(f *testing.F) {
	for _, seed := range []string{
		`{"requests": [{"1111": 20, "1110": 7, "0011": 2}, {"1111": 21, "1110": 7, "0011": 2}]}`,
		`{"requests": [{"01": 3}, {"bad": 1}, {"10": 2}]}`,
		`{"requests": []}`,
		`42`,
		`{"requests": [{"01": 1.7e308, "10": 1.7e308}]}`,
		`{"requests": [{"0": 5e-324, "1": 5e-324}]}`,
		`{"requests": [
			{"1111": 20, "1110": 7, "0011": 2},
			{"counts": {"1111": 20, "1110": 7, "0011": 2}, "config": {"engine": "exact", "radius": 3}},
			{"counts": {"1111": 20, "1110": 7, "0011": 2}, "config": {"topm": 2}}
		]}`,
		`{"requests": [{"01": 3}, {"counts": {"01": 3}, "config": {"engine": "fpga"}}]}`,
		`{"requests": [
			{"110000": 20, "100000": 4},
			{"counts": {"111111": 9, "011111": 3}, "config": {"radius": 1, "engine": "exact"}}
		]}`,
		`{"REQUESTS": [{"01": 1}]}`,
		`{"\u0072equests": [{"01": 1}], "requ\u0065s\u0074s": [{"10": 1}]}`,
		`{"Requests": [{"01": 1}], "requeſts": [{"10": 2}, {"11": 3}]}`,
		`{"requests": [{"0x": 1}], "requests": [{"01": 1}]}`,
		`{"requests": [{"01": 1}], "requests": null}`,
		`{"requests": [null]}`,
		`{"requests": [{"01": 1}, null, {"10": 1}]}`,
		`{"requests": [{"01": 1}]} x`,
		`{"requests": [{"01": 1}]}{}`,
		`{"requests": [{"bad": 1}, {"01": }]}`,
		`{"requests": [{"01": "x"}, {"counts": {"01": 1}, "deadline_ms": 1.5}]}`,
		`{"requests": [{"counts": {"01": 1}, "deadline_ms": 18446744073710}]}`,
		`{"requests": {"01": 1}}`,
		`{"requests": [1, "x", [], {}]}`,
		`{"other": [{"01": 1}]}`,
		`null`,
		`[]`,
	} {
		f.Add([]byte(seed))
	}
	f.Add(nested(`{"requests": [{"01": 1}, {"counts": {"01": 1}, "x": `, 9997, `}]}`))
	f.Add(nested(`{"requests": [{"01": 1}, {"counts": {"01": 1}, "x": `, 9998, `}]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		members, err := decodeBatch(body)
		got := len(members) // the failing index; past the end when none fails
		if err != nil {
			got = -1
		} else {
			for i, m := range members {
				if m.err != nil {
					got = i
					break
				}
			}
		}

		var env struct{ Requests []json.RawMessage }
		want, refs := -1, []referenceRequest(nil)
		if err := json.Unmarshal(body, &env); err == nil && len(env.Requests) > 0 {
			want = len(env.Requests)
			for i, raw := range env.Requests {
				ref, ok := referenceRead(raw)
				if !ok {
					want = i
					break
				}
				refs = append(refs, ref)
			}
		}
		if got != want {
			t.Fatalf("failing index %d (err %v), reference %d, body %q", got, err, want, body)
		}
		for i, ref := range refs {
			checkRequest(t, members[i].rr, ref)
		}
	})
}

// nested returns prefix, depth nested empty arrays, then suffix.
func nested(prefix string, depth int, suffix string) []byte {
	return []byte(prefix + strings.Repeat("[", depth) + strings.Repeat("]", depth) + suffix)
}
