package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"time"
)

// metric is one reported value with its unit and the number of samples
// behind it.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// workloadResult is everything one workload reported in a run.
type workloadResult struct {
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Rounds    int               `json:"rounds"`
	Problems  []string          `json:"problems,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the -out file: one run's results by workload. -compare reads
// these.
type report struct {
	Seed      uint64                     `json:"seed"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// put records a metric under its defined unit.
func (res *workloadResult) put(name string, value float64, samples int) {
	def, ok := lookupMetric(name)
	if !ok {
		panic("undefined metric " + name) // a bug: every name is in stats.go
	}
	res.Metrics[name] = metric{Value: value, Unit: def.unit, Samples: samples}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endpointLabel selects the workload's route in the server's HTTP metrics.
func endpointLabel(w workload) string {
	if w.path == "" {
		return `endpoint="/v1/stream/{id}/shots"`
	}
	return `endpoint="` + w.path + `"`
}

// setupSample is one server start: its set-up time and the factor from the
// calibration just before it.
type setupSample struct {
	d time.Duration
	f float64
}

// aggregate folds a workload's rounds and set-up samples into its metrics.
// Every per-round figure (a latency percentile, throughput, CPU per op, peak
// RSS) reports the median over rounds, so one round the host disturbed moves
// none of them. End-to-end times are scaled to nominal host speed; the raw.*
// metrics are the same figures unscaled.
func aggregate(w workload, rounds []*roundResult, setups []setupSample) *workloadResult {
	res := &workloadResult{Rounds: len(rounds), Metrics: map[string]metric{}}
	var clientSum float64 // unscaled latency over every op
	var latN, ingestN int
	var p50, p95, rawP50, rawP95, ingestP50, ingestP95 []float64
	var thr, rawThr, cpu, rawCPU, rss, setup, rawSetup, slowdown []float64
	scrape := prom{}
	engines := map[string]int{}
	for _, rr := range rounds {
		res.Attempted += rr.attempted
		res.Failed += rr.attempted - rr.ok
		res.Problems = append(res.Problems, rr.problems...)
		p50 = append(p50, percentile(rr.lat, 50)*rr.f)
		p95 = append(p95, percentile(rr.lat, 95)*rr.f)
		rawP50 = append(rawP50, percentile(rr.lat, 50))
		rawP95 = append(rawP95, percentile(rr.lat, 95))
		latN += len(rr.lat)
		if len(rr.ingestLat) > 0 {
			ingestP50 = append(ingestP50, percentile(rr.ingestLat, 50)*rr.f)
			ingestP95 = append(ingestP95, percentile(rr.ingestLat, 95)*rr.f)
			ingestN += len(rr.ingestLat)
		}
		for _, x := range slices.Concat(rr.lat, rr.ingestLat) {
			clientSum += x
		}
		thr = append(thr, float64(rr.ok)/(rr.elapsed.Seconds()*rr.f))
		rawThr = append(rawThr, float64(rr.ok)/rr.elapsed.Seconds())
		cpu = append(cpu, ratio(ms(rr.cpu)*rr.f, float64(rr.ok)))
		rawCPU = append(rawCPU, ratio(ms(rr.cpu), float64(rr.ok)))
		rss = append(rss, rr.rssMiB)
		slowdown = append(slowdown, rr.slowdown...)
		scrape.add(rr.scrape)
		for e, k := range rr.engines {
			engines[e] += k
		}
	}
	for _, s := range setups {
		setup = append(setup, s.d.Seconds()*s.f)
		rawSetup = append(rawSetup, s.d.Seconds())
	}
	res.put("setup_s", median(setup), len(setup))
	res.put("throughput_ops", median(thr), len(thr))
	res.put("latency_p50_ms", median(p50), latN)
	res.put("latency_p95_ms", median(p95), latN)
	res.put("cpu_ms_per_op", median(cpu), len(cpu))
	res.put("rss_peak_mb", median(rss), len(rss))
	res.put("host.slowdown", median(slowdown), len(slowdown))
	res.put("raw.setup_s", median(rawSetup), len(rawSetup))
	res.put("raw.throughput_ops", median(rawThr), len(rawThr))
	res.put("raw.latency_p50_ms", median(rawP50), latN)
	res.put("raw.latency_p95_ms", median(rawP95), latN)
	res.put("raw.cpu_ms_per_op", median(rawCPU), len(rawCPU))

	endpoint := endpointLabel(w)
	requests := scrape.sum("hammer_http_request_seconds_count", endpoint)
	handler := scrape.mean("hammer_http_request_seconds", endpoint, 1000)
	slots := scrape.sum("hammer_sched_wait_seconds_count", "")
	res.put("hammerctl.handler_ms", handler, int(requests))
	// Time in the handler spent neither waiting for nor holding a worker
	// slot, per request: plain stream ingests take no slot, and a batch
	// takes one per member.
	inSlots := scrape.sum("hammer_sched_wait_seconds_sum", "") + scrape.sum("hammer_sched_run_seconds_sum", "")
	res.put("hammerctl.outside_slot_ms",
		ratio(1000*(scrape.sum("hammer_http_request_seconds_sum", endpoint)-inSlots), requests), int(requests))
	res.put("sched.wait_ms", scrape.mean("hammer_sched_wait_seconds", "", 1000), int(slots))
	res.put("sched.run_ms", scrape.mean("hammer_sched_run_seconds", "", 1000), int(slots))
	// Client latency minus handler time, both unscaled, over every op.
	ops := latN + ingestN
	res.put("client.overhead_ms", ratio(clientSum, float64(ops))-handler, ops)
	hits, misses := scrape.sum("hammer_cache_hits_total", ""), scrape.sum("hammer_cache_misses_total", "")
	res.put("cache.hit_ratio", ratio(hits, hits+misses), int(hits+misses))
	res.put("cache.evictions", scrape.sum("hammer_cache_evictions_total", ""), int(hits+misses))
	predicted := scrape.sum("hammer_cost_error_ratio_count", "")
	deviation := 0.0
	if predicted > 0 {
		deviation = math.Abs(scrape.mean("hammer_cost_error_ratio", "", 1) - 1)
	}
	res.put("cost.ratio_deviation", deviation, int(predicted))
	appends := scrape.sum("hammer_wal_appends_total", "")
	res.put("wal.bytes_per_append", ratio(scrape.sum("hammer_wal_appended_bytes_total", ""), appends), int(appends))
	res.put("wal.compactions", scrape.sum("hammer_wal_compactions_total", ""), int(appends))
	served := 0
	for _, k := range engines {
		served += k
	}
	for _, e := range []string{"exact", "bucketed", "blocked", "incremental"} {
		res.put("core.engine."+e+"_share", ratio(float64(engines[e]), float64(served)), served)
	}
	if w.path == "" {
		res.put("ingest_p50_ms", median(ingestP50), ingestN)
		res.put("ingest_p95_ms", median(ingestP95), ingestN)
	}
	return res
}

// printTable writes every metric of every workload with its unit and sample
// count, end-to-end metrics first.
func printTable(out io.Writer, rep *report, order []workload) {
	fmt.Fprintf(out, "%-8s %-30s %14s %-6s %8s\n", "workload", "metric", "value", "unit", "samples")
	for _, w := range order {
		res, ok := rep.Workloads[w.name]
		if !ok {
			continue
		}
		row := func(name string, m metric) {
			fmt.Fprintf(out, "%-8s %-30s %14.6g %-6s %8d\n", w.name, name, m.Value, m.Unit, m.Samples)
		}
		for _, def := range slices.Concat(endToEnd, ingestMetrics) {
			if m, ok := res.Metrics[def.name]; ok {
				row(def.name, m)
			}
		}
		row("error_rate", metric{Value: ratio(float64(res.Failed), float64(res.Attempted)), Unit: "ratio", Samples: res.Attempted})
		for _, def := range slices.Concat(perLayer, extraMetrics) {
			if m, ok := res.Metrics[def.name]; ok {
				row(def.name, m)
			}
		}
		for _, p := range res.Problems {
			fmt.Fprintf(out, "%-8s PROBLEM: %s\n", w.name, p)
		}
	}
}

// resultLine is the one-line JSON result of a single-workload run.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line renders a workload's result: the end-to-end metrics, or with trace
// the per-layer ones.
func line(res *workloadResult, trace bool) ([]byte, error) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	l := resultLine{
		Correct:   len(res.Problems) == 0,
		Attempted: res.Attempted,
		Failed:    res.Failed,
		Metrics:   map[string]lineMetric{},
	}
	for _, def := range defs {
		m, ok := res.Metrics[def.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", def.name)
		}
		l.Metrics[def.name] = lineMetric{Value: m.Value, Unit: def.unit}
	}
	return json.Marshal(l)
}

func writeReport(path string, rep *report) error {
	body, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(body, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	body, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(body, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}
