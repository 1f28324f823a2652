package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// bodiesOf flattens every generated byte sequence of a workload's inputs.
func bodiesOf(in *inputs) [][]byte {
	all := append(append([][]byte(nil), in.bodies...), in.warm...)
	if s := in.stream; s != nil {
		for a := range s.ingests {
			all = append(all, s.ingests[a]...)
		}
		for _, seed := range s.seeds {
			all = append(all, appendCounts(nil, streamWidth, seed))
		}
	}
	return all
}

func TestSeedFixesBodies(t *testing.T) {
	for _, w := range workloads {
		a, b, c := bodiesOf(generate(w, 7, 1)), bodiesOf(generate(w, 7, 1)), bodiesOf(generate(w, 8, 1))
		if len(a) == 0 || len(a) != len(b) {
			t.Fatalf("%s: %d and %d bodies from one seed", w.name, len(a), len(b))
		}
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("%s: body %d differs between two generations from seed 7", w.name, i)
			}
		}
		if bytes.Equal(a[0], c[0]) {
			t.Errorf("%s: seeds 7 and 8 give the same first body", w.name)
		}
	}
}

func TestSweepBodiesAreDistinct(t *testing.T) {
	in := generate(workloads[0], 1, 1)
	seen := map[string]bool{}
	for _, b := range append(append([][]byte(nil), in.bodies...), in.warm...) {
		if seen[string(b)] {
			t.Fatal("sweep repeats a body, so a request could hit the cache")
		}
		seen[string(b)] = true
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // descending: the helper must sort
	}
	for _, c := range []struct{ p, want float64 }{{50, 100}, {95, 190}, {99.9, 200}, {100, 200}, {0.1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v of 1..200 = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 95); got != 0 {
		t.Errorf("p95 of nothing = %v", got)
	}
}

func TestQuartilesMatchExclusiveMethod(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100.5}, [3]float64{27.5, 55, 82.5}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		// Two children overlapping each other on [30, 40].
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "child", Start: 30, End: 60},
		// A child running past its parent's end covers only [90, 100].
		{ID: 4, Parent: 1, Name: "late", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "grandchild", Start: 15, End: 20},
		// A separate root.
		{ID: 6, Name: "parent", Start: 200, End: 210},
	}
	got := selfTimes(spans)
	want := map[string]int64{
		"parent":     100 - 50 - 10 + 10, // children cover [10,60] and [90,100]
		"child":      30 - 5 + 30,
		"late":       30,
		"grandchild": 5,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %d, want %d", name, got[name], w)
		}
	}
}

func TestPromDeltaOnObsText(t *testing.T) {
	reg := obs.NewRegistry()
	reqs := reg.CounterVec("hammer_http_requests_total", "requests", "endpoint", "code")
	lat := reg.HistogramVec("hammer_http_request_seconds", "latency", obs.LatencyBuckets, "endpoint")
	hits := reg.Counter("hammer_cache_hits_total", "hits")
	render := func() prom {
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		p, err := parseProm(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	lat.Observe(1, "/v1/batch")
	hits.Inc()
	before := render()
	for _, s := range []float64{0.002, 0.004} {
		lat.Observe(s, "/v1/reconstruct")
		reqs.Inc("/v1/reconstruct", "2xx")
	}
	lat.Observe(0.5, "/v1/batch")
	hits.Add(3)
	d := delta(before, render())
	if got := d.sum("hammer_cache_hits_total", ""); got != 3 {
		t.Errorf("hits delta = %v, want 3", got)
	}
	if got := d.sum("hammer_http_requests_total", `code="2xx"`); got != 2 {
		t.Errorf("2xx delta = %v, want 2", got)
	}
	if got := d.mean("hammer_http_request_seconds", `endpoint="/v1/reconstruct"`, 1000); math.Abs(got-3) > 1e-9 {
		t.Errorf("reconstruct mean = %v ms, want 3", got)
	}
	if got := d.mean("hammer_http_request_seconds", `endpoint="/v1/batch"`, 1000); math.Abs(got-500) > 1e-9 {
		t.Errorf("batch mean = %v ms, want 500", got)
	}
	if got := d.mean("hammer_sched_wait_seconds", "", 1); got != 0 {
		t.Errorf("absent histogram mean = %v, want 0", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	rep := func(thr float64) *report {
		return &report{Workloads: map[string]*workloadResult{
			"sweep": {Metrics: map[string]metric{"throughput_ops": {Value: thr}}},
		}}
	}
	reps := func(vs ...float64) []*report {
		var out []*report
		for _, v := range vs {
			out = append(out, rep(v))
		}
		return out
	}
	for _, c := range []struct {
		a, b []float64
		want string
	}{
		{[]float64{100, 101, 99}, []float64{100, 99, 101}, "ok"},
		{[]float64{100, 101, 99}, []float64{70, 71, 69}, "regressed"},
		{[]float64{60, 100, 140}, []float64{95, 99, 97}, "unresolved"},
		{[]float64{60, 100, 140}, []float64{150, 160, 170}, "ok"},
	} {
		var out bytes.Buffer
		compareReports(&out, reps(c.a...), reps(c.b...))
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		if len(lines) != 2 || !strings.HasSuffix(lines[1], " "+c.want) {
			t.Errorf("a=%v b=%v:\n%s\nwant verdict %s", c.a, c.b, out.String(), c.want)
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json at the repository root in
// step with the workloads and metrics this command reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "cmd/bench" {
		t.Errorf("paths = %v", spec.Paths)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, code has %s: %s", i, spec.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []def, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better || (g.Bound != nil) != bounded ||
				bounded && *g.Bound != m.bound {
				t.Errorf("%s %d: BENCHMARK.json has %+v, code has %+v", kind, i, g, m)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
}

// TestSmoke runs every workload for one tiny round against a freshly built
// hammerctl, with the traced replay, through the same entry point the
// command line uses.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts hammerctl")
	}
	dir := t.TempDir()
	for _, w := range workloads {
		spans := filepath.Join(dir, w.name+"-spans.json")
		var stdout, stderr bytes.Buffer
		code, err := measureRun(options{
			root: "../..", seed: 3, workload: w.name, seconds: 1e-3, trace: spans,
			out: filepath.Join(dir, w.name+".json"), build: dir, scale: 0.02,
		}, &stdout, &stderr)
		if err != nil || code != 0 {
			t.Fatalf("%s: exit %d, %v\n%s", w.name, code, err, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res resultLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("%s: last line %q: %v", w.name, lines[len(lines)-1], err)
		}
		if !res.Correct || res.Attempted == 0 || res.Failed != 0 || len(res.Metrics) != len(perLayer) {
			t.Errorf("%s: result %+v", w.name, res)
		}
		rep, err := readReport(filepath.Join(dir, w.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range endToEnd {
			if v := rep.Workloads[w.name].Metrics[m.name].Value; !(v > 0) {
				t.Errorf("%s: %s = %v, want a positive value", w.name, m.name, v)
			}
		}
		if st, err := os.Stat(spans); err != nil || st.Size() == 0 {
			t.Errorf("%s: no span file: %v", w.name, err)
		}
	}
}

// TestCalibrateResumesProcess checks that a calibration leaves the process
// it stopped running again.
func TestCalibrateResumesProcess(t *testing.T) {
	cmd := exec.Command("sleep", "30")
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}()
	cal, err := calibrate(cmd.Process.Pid)
	if err != nil {
		t.Fatal(err)
	}
	if !(cal > 0) {
		t.Errorf("calibration took %v ns, want a positive time", cal)
	}
	if stopped, err := allStopped(cmd.Process.Pid); err != nil || stopped {
		t.Errorf("process stopped after calibration: %v, %v", stopped, err)
	}
}
