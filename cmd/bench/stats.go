package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// metricDef names one reported metric. BENCHMARK.json at the repository root
// lists the same names, units, directions and bounds; a test keeps the two in
// step.
type metricDef struct {
	name   string
	unit   string
	better string // "lower", "higher", or "" for a diagnostic
	// bound is how far, as a share of the baseline median, an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
}

// endToEnd are the metrics a user of the server sees, measured with tracing
// off. Every workload reports every one of them. Each bound is about three
// times the metric's widest spread over ten seeds (doc.go, STABILITY.md).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_ops", "ops/s", "higher", 0.20},
	{"latency_p50_ms", "ms", "lower", 0.20},
	{"latency_p95_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"rss_peak_mb", "MiB", "lower", 0.15},
}

// ingestMetrics are stream's latencies of the plain ingests; its
// latency_p50_ms and latency_p95_ms time the ingests that ask for a
// snapshot. They are not in BENCHMARK.json, whose end-to-end metrics every
// workload reports, but -compare judges them like the end-to-end ones.
var ingestMetrics = []metricDef{
	{"ingest_p50_ms", "ms", "lower", 0.20},
	{"ingest_p95_ms", "ms", "lower", 0.25},
}

// perLayer are the single-layer metrics BENCHMARK.json lists, reported with
// -trace. doc.go maps each to the end-to-end metric and workload it should
// move.
var perLayer = []metricDef{
	{"hammerctl.handler_ms", "ms", "lower", 0},
	{"hammerctl.outside_slot_ms", "ms", "lower", 0},
	{"hammerctl.decode_ms", "ms", "lower", 0},
	{"hammerctl.encode_ms", "ms", "lower", 0},
	{"client.overhead_ms", "ms", "lower", 0},
	{"dist.index_ms", "ms", "lower", 0},
	{"dist.pack_ms", "ms", "lower", 0},
	{"core.score_ms", "ms", "lower", 0},
	{"core.ns_per_pair", "ns", "lower", 0},
	{"cost.ratio_deviation", "ratio", "lower", 0},
	{"wal.bytes_per_append", "B", "lower", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
}

// extraMetrics are printed in the table and written with -out but are not in
// BENCHMARK.json: layers only some workloads exercise (0 with 0 samples
// elsewhere), diagnostics whose expected value depends on the workload (no
// direction: doc.go gives the expected values), the host calibration, and
// the unscaled end-to-end figures.
var extraMetrics = []metricDef{
	{"cache.hit_ratio", "ratio", "", 0},
	{"core.engine.exact_share", "ratio", "", 0},
	{"core.engine.bucketed_share", "ratio", "", 0},
	{"core.engine.blocked_share", "ratio", "", 0},
	{"core.engine.incremental_share", "ratio", "", 0},
	{"cache.key_ms", "ms", "lower", 0},
	{"cache.evictions", "count", "lower", 0},
	{"dist.from_histogram_ms", "ms", "lower", 0},
	{"dist.to_histogram_ms", "ms", "lower", 0},
	{"sched.wait_ms", "ms", "lower", 0},
	{"sched.run_ms", "ms", "lower", 0},
	{"stream.ingest_ms", "ms", "lower", 0},
	{"stream.snapshot_ms", "ms", "lower", 0},
	{"serve.self_ms", "ms", "lower", 0},
	{"wal.append_ms", "ms", "lower", 0},
	{"wal.compactions", "count", "lower", 0},
	{"wal.recover_ms", "ms", "lower", 0},
	{"host.slowdown", "ratio", "lower", 0},
	{"raw.setup_s", "s", "lower", 0},
	{"raw.throughput_ops", "ops/s", "higher", 0},
	{"raw.latency_p50_ms", "ms", "lower", 0},
	{"raw.latency_p95_ms", "ms", "lower", 0},
	{"raw.cpu_ms_per_op", "ms", "lower", 0},
}

func lookupMetric(name string) (metricDef, bool) {
	for _, m := range slices.Concat(endToEnd, ingestMetrics, perLayer, extraMetrics) {
		if m.name == name {
			return m, true
		}
	}
	return metricDef{}, false
}

// median returns the middle value of xs (the mean of the middle two for even
// lengths); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first, second and third quartile of xs by the
// exclusive method (Python's statistics.quantiles(xs, n=4)). Fewer than two
// values give that value (or 0) for all three.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Sorted(slices.Values(xs))
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// percentile returns the nearest-rank value at level p (0 < p <= 100) of
// xs; 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	return s[max(1, int(math.Ceil(p*float64(len(s))/100)))-1]
}

// prom is one scrape of a Prometheus text exposition: sample value by series
// (metric name plus its rendered label set).
type prom map[string]float64

// parseProm reads the sample lines of a text exposition, skipping comments.
func parseProm(text []byte) (prom, error) {
	p := prom{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line without a value: %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		p[line[:i]] = v
	}
	return p, sc.Err()
}

// delta returns after minus before for every series in after.
func delta(before, after prom) prom {
	d := make(prom, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// add accumulates another delta into p.
func (p prom) add(q prom) {
	for k, v := range q {
		p[k] += v
	}
}

// sum totals every series of the named metric whose label set contains
// label (an exact `key="value"` fragment; "" matches all series).
func (p prom) sum(name, label string) float64 {
	total := 0.0
	for k, v := range p {
		series, labels, _ := strings.Cut(k, "{")
		if series == name && strings.Contains(labels, label) {
			total += v
		}
	}
	return total
}

// mean is a histogram's sum over its count in p, scaled; 0 when empty.
func (p prom) mean(name, label string, scale float64) float64 {
	n := p.sum(name+"_count", label)
	if n == 0 {
		return 0
	}
	return scale * p.sum(name+"_sum", label) / n
}
