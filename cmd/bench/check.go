package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	hammer "repro"
)

// tolerance is the per-outcome agreement the server's responses must show
// with the in-process reference.
const tolerance = 1e-12

// oracle computes reference reconstructions with the public hammer facade,
// decoding the exact bytes the server was sent, and remembers them across
// rounds (every round sends the same bodies).
type oracle struct {
	refs map[string][]map[string]float64 // by workload and body index
}

func newOracle() *oracle { return &oracle{refs: map[string][]map[string]float64{}} }

// reference returns the expected distributions for request i of the
// workload: one for /v1/reconstruct, one per member for /v1/batch.
func (o *oracle) reference(in *inputs, i int) ([]map[string]float64, error) {
	b := i % len(in.bodies)
	key := fmt.Sprintf("%s/%d", in.w.name, b)
	if ref, ok := o.refs[key]; ok {
		return ref, nil
	}
	var members []json.RawMessage
	if in.w.path == "/v1/batch" {
		var batch struct {
			Requests []json.RawMessage `json:"requests"`
		}
		if err := json.Unmarshal(in.bodies[b], &batch); err != nil {
			return nil, err
		}
		members = batch.Requests
	} else {
		members = []json.RawMessage{in.bodies[b]}
	}
	var ref []map[string]float64
	for _, m := range members {
		var h map[string]float64
		if in.w.cfg.Radius != 0 {
			var wrapped struct {
				Counts map[string]float64 `json:"counts"`
			}
			if err := json.Unmarshal(m, &wrapped); err != nil {
				return nil, err
			}
			h = wrapped.Counts
		} else if err := json.Unmarshal(m, &h); err != nil {
			return nil, err
		}
		out, err := hammer.RunWithConfig(h, in.w.cfg)
		if err != nil {
			return nil, err
		}
		ref = append(ref, out)
	}
	o.refs[key] = ref
	return ref, nil
}

// wireResult is the part of a reconstruction response the checks read.
type wireResult struct {
	Dist   map[string]float64 `json:"dist"`
	Engine string             `json:"engine"`
}

// check compares a kept closed-loop response with the reference and returns
// the engines that served it.
func (o *oracle) check(in *inputs, i int, body []byte) ([]string, error) {
	want, err := o.reference(in, i)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	var got []wireResult
	if in.w.path == "/v1/batch" {
		var resp struct {
			Results []wireResult `json:"results"`
		}
		err = json.Unmarshal(body, &resp)
		got = resp.Results
	} else {
		var resp wireResult
		err = json.Unmarshal(body, &resp)
		got = []wireResult{resp}
	}
	if err != nil {
		return nil, fmt.Errorf("response: %w", err)
	}
	if len(got) != len(want) {
		return nil, fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	var engines []string
	for m := range got {
		if err := sameDist(got[m].Dist, want[m]); err != nil {
			return nil, fmt.Errorf("member %d: %w", m, err)
		}
		engines = append(engines, got[m].Engine)
	}
	return engines, nil
}

// checkStream compares a session snapshot (GET /v1/stream/{id}) with
// hammer.RunCounts of the exact counts the session was sent.
func (o *oracle) checkStream(counts map[string]int, body []byte) error {
	var snap struct {
		Shots int                `json:"shots"`
		Dist  map[string]float64 `json:"dist"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		return fmt.Errorf("snapshot response: %w", err)
	}
	shots := 0
	for _, k := range counts {
		shots += k
	}
	if snap.Shots != shots {
		return fmt.Errorf("snapshot holds %d shots, %d were sent", snap.Shots, shots)
	}
	want, err := hammer.RunCounts(counts)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	return sameDist(snap.Dist, want)
}

// sameDist reports the first outcome where got and want differ by more than
// the tolerance, or differ in support.
func sameDist(got, want map[string]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("support %d, want %d", len(got), len(want))
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		g, ok := got[k]
		if !ok {
			return fmt.Errorf("outcome %s missing", k)
		}
		if math.Abs(g-want[k]) > tolerance {
			return fmt.Errorf("outcome %s: %.17g, want %.17g", k, g, want[k])
		}
	}
	return nil
}
