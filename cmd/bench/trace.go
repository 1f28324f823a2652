package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"sync"
	"time"

	hammer "repro"
	"repro/internal/bitstr"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/wal"
)

// The traced run replays a workload's seeded requests in process, through
// the public calls the server's handlers make, with a span around each call
// into a layer. Spans live in memory until the run ends. The handlers' own
// decode and encode are private to cmd/hammerctl, so the replay mirrors them
// (same types, same encoder settings) rather than calling them.

// span is one timed call. Times are nanoseconds since the tracer started;
// Parent 0 marks a root. Spans of one replayed request share Req.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans. A nil *tracer records nothing, which is how the
// untraced replay runs the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// selfTimes returns each span name's total self time: every span's duration
// minus the part of it its children cover. Children may overlap each other
// (batch members run two at a time), so the covered part is the union of
// their intervals, clipped to the parent.
func selfTimes(spans []span) map[string]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]int64{}
	for _, s := range spans {
		self[s.Name] += s.End - s.Start - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals within
// the parent's.
func covered(parent span, kids []span) int64 {
	type interval struct{ lo, hi int64 }
	var iv []interval
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, interval{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].lo < iv[j].lo })
	var total, reach int64
	reach = parent.Start
	for _, x := range iv {
		lo := max(x.lo, reach)
		if x.hi > lo {
			total += x.hi - lo
			reach = x.hi
		}
	}
	return total
}

// replayEnv is the in-process stand-in for one server: a scheduler sized and
// instrumented like hammerctl's, a result cache, and on stream a session
// manager recovered from the seeded journal.
type replayEnv struct {
	sch *sched.Scheduler
	lru *cache.LRU[[]byte]
	// puts records what the replay stored in lru.
	puts  map[string][]byte
	mgr   *serve.Manager
	store *wal.Store
	// kernel collects the reconstructions the replay ran, as inputs for the
	// kernel pass.
	mu     sync.Mutex
	kernel []kernelInput
}

type kernelInput struct {
	d      *dist.Dist
	opts   core.Options
	engine string
}

// maxKernelInputs caps the inputs the kernel pass times per workload.
const maxKernelInputs = 8

func newReplayEnv() (*replayEnv, error) {
	sch, err := hammer.NewScheduler(hammer.Config{}, clients)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	sch.Instrument(&sched.Metrics{
		QueueDepth:       reg.Gauge("queue_depth", ""),
		InFlight:         reg.Gauge("inflight", ""),
		WaitSeconds:      reg.Histogram("wait_seconds", "", obs.LatencyBuckets),
		RunSeconds:       reg.Histogram("run_seconds", "", obs.LatencyBuckets),
		PredictedSeconds: reg.HistogramVec("predicted_seconds", "", obs.LatencyBuckets, "engine"),
		ActualSeconds:    reg.HistogramVec("actual_seconds", "", obs.LatencyBuckets, "engine"),
		ErrorRatio:       reg.HistogramVec("error_ratio", "", obs.RatioBuckets, "engine"),
		DeadlineRejected: reg.CounterVec("deadline_rejected_total", "", "reason"),
	})
	return &replayEnv{sch: sch, lru: cache.New[[]byte](cache.DefaultEntries), puts: map[string][]byte{}}, nil
}

func (e *replayEnv) close() {
	if e.store != nil {
		e.store.Close()
	}
}

// wireResponse mirrors the server's reconstruction response.
type wireResponse struct {
	Dist    map[string]float64 `json:"dist"`
	Support int                `json:"support"`
	Engine  string             `json:"engine"`
	Radius  int                `json:"radius"`
}

func toWire(res *core.Result) wireResponse {
	return wireResponse{Dist: dist.ToHistogram(res.Out), Support: res.Out.Len(), Engine: res.Engine, Radius: res.Radius}
}

// encodeJSON mirrors the server's response encoder: indented by one space,
// newline-terminated.
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// decodeRequest mirrors the server's reconstruction body decoding: a bare
// histogram first, then the {"counts": ..., "config": ...} wrapper.
func decodeRequest(body []byte) (map[string]float64, *int, error) {
	var bare map[string]float64
	bareErr := json.Unmarshal(body, &bare)
	if bareErr == nil {
		return bare, nil, nil
	}
	var wrapped struct {
		Counts map[string]float64 `json:"counts"`
		Config *struct {
			Radius *int `json:"radius"`
		} `json:"config"`
	}
	if err := json.Unmarshal(body, &wrapped); err != nil || len(wrapped.Counts) == 0 {
		return nil, nil, fmt.Errorf("request is neither a histogram nor {\"counts\": ...}: %w", bareErr)
	}
	if wrapped.Config == nil {
		return wrapped.Counts, nil, nil
	}
	return wrapped.Counts, wrapped.Config.Radius, nil
}

// reconstruct replays one /v1/reconstruct request.
func (e *replayEnv) reconstruct(t *tracer, req int, body []byte) error {
	root := t.begin("request", 0, req)
	defer t.end(root)
	sp := t.begin("hammerctl.decode", root, req)
	counts, radius, err := decodeRequest(body)
	t.end(sp)
	if err != nil {
		return err
	}
	opts := e.sch.Options()
	var override *core.Options
	if radius != nil {
		if opts, err = hammer.SessionOptions(hammer.Config{Radius: *radius}); err != nil {
			return err
		}
		override = &opts
	}
	sp = t.begin("cache.key", root, req)
	key := cache.Key(counts, opts)
	_, hit := e.lru.Get(key)
	t.end(sp)
	if hit {
		return nil
	}
	sp = t.begin("dist.from_histogram", root, req)
	in, _, err := dist.FromHistogram(counts)
	t.end(sp)
	if err != nil {
		return err
	}
	sp = t.begin("sched.reconstruct", root, req)
	var resp wireResponse
	err = e.sch.Reconstruct(context.Background(), sched.Request{In: in, Opts: override}, func(res *core.Result) error {
		c := t.begin("dist.to_histogram", sp, req)
		resp = toWire(res)
		t.end(c)
		e.keep(in, opts, res.Engine)
		return nil
	})
	t.end(sp)
	if err != nil {
		return err
	}
	sp = t.begin("hammerctl.encode", root, req)
	out, err := encodeJSON(resp)
	t.end(sp)
	if err != nil {
		return err
	}
	sp = t.begin("cache.put", root, req)
	e.lru.Put(key, out)
	t.end(sp)
	e.puts[key] = out
	return nil
}

// keep records a reconstruction for the kernel pass. It runs inside
// scheduler callbacks, which batch members run concurrently.
func (e *replayEnv) keep(in *dist.Dist, opts core.Options, engine string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.kernel) < maxKernelInputs {
		e.kernel = append(e.kernel, kernelInput{in, opts, engine})
	}
}

// batch replays one /v1/batch request; its members decode, convert and
// format inside the scheduler's workers, two at a time.
func (e *replayEnv) batch(t *tracer, req int, body []byte) error {
	root := t.begin("request", 0, req)
	defer t.end(root)
	sp := t.begin("hammerctl.decode", root, req)
	var b struct {
		Requests []json.RawMessage `json:"requests"`
	}
	err := json.Unmarshal(body, &b)
	t.end(sp)
	if err != nil {
		return err
	}
	ins := make([]*dist.Dist, len(b.Requests))
	results := make([]wireResponse, len(b.Requests))
	sp = t.begin("sched.batch", root, req)
	err = e.sch.Batch(context.Background(), len(b.Requests),
		func(i int) (sched.Request, error) {
			c := t.begin("hammerctl.decode", sp, req)
			counts, _, err := decodeRequest(b.Requests[i])
			t.end(c)
			if err != nil {
				return sched.Request{}, err
			}
			c = t.begin("dist.from_histogram", sp, req)
			ins[i], _, err = dist.FromHistogram(counts)
			t.end(c)
			return sched.Request{In: ins[i]}, err
		},
		func(i int, res *core.Result) error {
			c := t.begin("dist.to_histogram", sp, req)
			results[i] = toWire(res)
			t.end(c)
			e.keep(ins[i], e.sch.Options(), res.Engine)
			return nil
		})
	t.end(sp)
	if err != nil {
		return err
	}
	sp = t.begin("hammerctl.encode", root, req)
	_, err = encodeJSON(struct {
		Results []wireResponse `json:"results"`
	}{results})
	t.end(sp)
	return err
}

// ingest replays one POST /v1/stream/{id}/shots, with a snapshot when asked.
func (e *replayEnv) ingest(t *tracer, req int, id string, body []byte, snapshot bool) error {
	root := t.begin("request", 0, req)
	defer t.end(root)
	sp := t.begin("hammerctl.decode", root, req)
	var ing struct {
		Counts map[string]int `json:"counts"`
	}
	err := json.Unmarshal(body, &ing)
	keys := make([]string, 0, len(ing.Counts))
	for k := range ing.Counts {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	t.end(sp)
	if err != nil {
		return err
	}
	var resp any
	sp = t.begin("serve.do_session", root, req)
	err = e.mgr.DoSession(id, func(sess *serve.Session) error {
		apply := func(parent int) error {
			st := sess.Stream()
			c := t.begin("hammerctl.parse_shots", parent, req)
			pairs := make([]wal.Pair, len(keys))
			for i, k := range keys {
				x, err := bitstr.Parse(k)
				if err != nil {
					t.end(c)
					return err
				}
				pairs[i] = wal.Pair{X: x, K: ing.Counts[k]}
			}
			t.end(c)
			c = t.begin("stream.ingest", parent, req)
			for _, p := range pairs {
				if err := st.IngestN(p.X, p.K); err != nil {
					t.end(c)
					return err
				}
			}
			t.end(c)
			c = t.begin("wal.append", parent, req)
			err := sess.Record(pairs)
			t.end(c)
			if err != nil || !snapshot {
				resp = map[string]any{"id": id, "shots": st.Shots(), "support": st.Support()}
				return err
			}
			c = t.begin("stream.snapshot", parent, req)
			res, err := st.Snapshot()
			t.end(c)
			if err != nil {
				return err
			}
			c = t.begin("dist.to_histogram", parent, req)
			resp = map[string]any{"id": id, "shots": st.Shots(), "snapshot": toWire(res)}
			t.end(c)
			return nil
		}
		if !snapshot {
			return apply(sp)
		}
		slot := t.begin("sched.do", sp, req)
		defer t.end(slot)
		return e.sch.Do(context.Background(), func() error { return apply(slot) })
	})
	t.end(sp)
	if err != nil {
		return err
	}
	sp = t.begin("hammerctl.encode", root, req)
	_, err = encodeJSON(resp)
	t.end(sp)
	return err
}

// replayCounts is how many timed requests the replay sends per workload;
// on stream, ingests per active session.
var replayCounts = map[string]int{"sweep": 30, "tight": 30, "repeat": 240, "batch": 60, "stream": 48}

// tracePairs is how many untraced and traced replay passes alternate.
const tracePairs = 3

// replayPass builds a fresh environment, warms it up untimed, and replays the
// workload's first requests with t (nil = untraced), returning the wall time
// of the timed part. fill, when not nil, stands in for the warm-up: the
// cache contents an earlier pass's warm-up left.
func (r *runner) replayPass(in *inputs, t *tracer, fill map[string][]byte) (time.Duration, *replayEnv, error) {
	env, err := newReplayEnv()
	if err != nil {
		return 0, nil, err
	}
	n := scaled(replayCounts[in.w.name], r.scale)
	if in.stream != nil {
		return r.replayStream(env, in, t, n)
	}
	send := env.reconstruct
	if in.w.path == "/v1/batch" {
		send = env.batch
	}
	for k, v := range fill {
		env.lru.Put(k, v)
	}
	if fill == nil {
		for i, body := range in.warm {
			if err := send(nil, -1-i, body); err != nil {
				return 0, nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	start := time.Now()
	for i := range n {
		if err := send(t, i, in.bodies[i%len(in.bodies)]); err != nil {
			return 0, nil, fmt.Errorf("request %d: %w", i, err)
		}
	}
	return time.Since(start), env, nil
}

// replayStream recovers the seeded journal (the wal.recover span) and
// replays n ingests per active session, alternating between the sessions.
func (r *runner) replayStream(env *replayEnv, in *inputs, t *tracer, n int) (time.Duration, *replayEnv, error) {
	dir, err := r.freshJournal()
	if err != nil {
		return 0, nil, err
	}
	defer os.RemoveAll(dir)
	if env.store, err = wal.Open(dir, wal.Options{Sync: wal.SyncNever}); err != nil {
		return 0, nil, err
	}
	defer env.close()
	env.mgr = serve.NewManager(serve.Config{Journal: env.store, TTL: -1})
	sp := t.begin("wal.recover", 0, -1)
	_, err = env.mgr.Recover()
	t.end(sp)
	if err != nil {
		return 0, nil, err
	}
	s := in.stream
	for _, idx := range s.active {
		if err := env.mgr.Do(sessionID(idx), func(st *stream.Stream) error {
			_, err := st.Snapshot()
			return err
		}); err != nil {
			return 0, nil, fmt.Errorf("warm-up snapshot: %w", err)
		}
		// Snapshots run the incremental engine, which has no batch kernel;
		// the kernel pass times what a one-shot reconstruction of the
		// session's histogram would run instead.
		counts := map[string]float64{}
		for x, k := range histogramOf(streamWidth, s.seeds[idx]) {
			counts[x] = float64(k)
		}
		d, _, err := dist.FromHistogram(counts)
		if err != nil {
			return 0, nil, err
		}
		err = env.sch.Reconstruct(context.Background(), sched.Request{In: d}, func(res *core.Result) error {
			env.keep(d, env.sch.Options(), res.Engine)
			return nil
		})
		if err != nil {
			return 0, nil, fmt.Errorf("kernel input: %w", err)
		}
	}
	n = min(n, len(s.ingests[0]))
	start := time.Now()
	for k := range n {
		for a, idx := range s.active {
			req := k*streamActive + a
			if err := env.ingest(t, req, sessionID(idx), s.ingests[a][k], k%snapshotEvery == snapshotEvery-1); err != nil {
				return 0, nil, fmt.Errorf("ingest %d: %w", req, err)
			}
		}
	}
	return time.Since(start), env, nil
}

// kernelTimes totals the kernel pass over its inputs, in nanoseconds.
type kernelTimes struct {
	inputs             int
	index, pack, score float64
	scan, pairs        float64
}

// kernelPass times the index build, the packed view and the engine scan on
// the reconstructions the replay ran, each on warm scratch state.
func kernelPass(t *tracer, inputs []kernelInput) (kernelTimes, error) {
	var kt kernelTimes
	var ix dist.Index
	var pk dist.Packed
	var sc core.Scratch
	for k, in := range inputs {
		reg, ok := core.Lookup(in.engine)
		if !ok || reg.Engine == nil {
			return kt, fmt.Errorf("no batch engine %q", in.engine)
		}
		n := in.d.NumBits()
		var entries []dist.Entry
		prob := &core.Problem{NumBits: n, MaxD: in.opts.EffectiveRadius(n), Scheme: in.opts.Weights,
			DisableFilter: in.opts.DisableFilter, Workers: 1}
		in.d.Range(func(x bitstr.Bits, p float64) {
			entries = append(entries, dist.Entry{X: x, P: p})
			prob.Outs = append(prob.Outs, x)
			prob.Probs = append(prob.Probs, p)
		})
		var err error
		score := func() { _, _, _, err = reg.Engine.Score(context.Background(), prob, &sc) }
		if score(); err != nil { // warms the scratch state
			return kt, err
		}
		root := t.begin("kernel", 0, k)
		index := t.timed("dist.index", root, k, func() { ix.Reset(n, entries) })
		pack := t.timed("dist.pack", root, k, func() { pk.Reset(&ix) })
		total := t.timed("core.score", root, k, score)
		t.end(root)
		if err != nil {
			return kt, err
		}
		// Score builds the index itself on the bucketed engine, and the
		// index and the packed view on blocked; the rest is the scan.
		scan := total
		switch in.engine {
		case core.EngineBucketed:
			scan -= index
		case core.EngineBlocked:
			scan -= index + pack
		}
		m := float64(len(entries))
		kt.inputs++
		kt.index += float64(index)
		kt.pack += float64(pack)
		kt.score += float64(total)
		kt.scan += float64(scan)
		kt.pairs += m * (m - 1) / 2
	}
	return kt, nil
}

// timed runs fn inside a span and returns its duration.
func (t *tracer) timed(name string, parent, req int, fn func()) time.Duration {
	sp := t.begin(name, parent, req)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.end(sp)
	return d
}

// traceWorkload replays the workload untraced and traced, runs the kernel
// pass, adds the per-layer metrics to res, prints the layer self times to out
// and returns the spans.
func (r *runner) traceWorkload(in *inputs, res *workloadResult, out io.Writer) ([]span, error) {
	// The first pass only warms the process up. Untraced and traced passes
	// then alternate, and the last traced one gives the spans. On repeat
	// they start from the cache the first pass filled, rather than
	// computing it again.
	_, warm, err := r.replayPass(in, nil, nil)
	if err != nil {
		return nil, err
	}
	var fill map[string][]byte
	if in.w.cache == "hit" {
		fill = warm.puts
	}
	var plain, traced []float64
	var t *tracer
	for range tracePairs {
		d, _, err := r.replayPass(in, nil, fill)
		if err != nil {
			return nil, err
		}
		plain = append(plain, float64(d))
		t = newTracer()
		d, _, err = r.replayPass(in, t, fill)
		if err != nil {
			return nil, err
		}
		traced = append(traced, float64(d))
	}
	self := selfTimes(t.spans)
	var wall int64
	requests := 0
	for _, s := range t.spans {
		if s.Name == "request" {
			wall += s.End - s.Start
			requests++
		}
	}
	kt, err := kernelPass(t, warm.kernel)
	if err != nil {
		return nil, err
	}
	perRequest := func(ns float64) float64 { return ns / 1e6 / float64(max(requests, 1)) }
	for metric, name := range map[string]string{
		"hammerctl.decode_ms":    "hammerctl.decode",
		"hammerctl.encode_ms":    "hammerctl.encode",
		"cache.key_ms":           "cache.key",
		"dist.from_histogram_ms": "dist.from_histogram",
		"dist.to_histogram_ms":   "dist.to_histogram",
		"stream.ingest_ms":       "stream.ingest",
		"stream.snapshot_ms":     "stream.snapshot",
		"wal.append_ms":          "wal.append",
		"serve.self_ms":          "serve.do_session",
	} {
		res.put(metric, perRequest(float64(self[name])), requests)
	}
	res.put("wal.recover_ms", float64(self["wal.recover"])/1e6, boolInt(in.stream != nil))
	perInput := func(ns float64) float64 { return ns / 1e6 / float64(max(kt.inputs, 1)) }
	res.put("dist.index_ms", perInput(kt.index), kt.inputs)
	res.put("dist.pack_ms", perInput(kt.pack), kt.inputs)
	res.put("core.score_ms", perInput(kt.score), kt.inputs)
	nsPerPair := 0.0
	if kt.pairs > 0 {
		nsPerPair = kt.scan / kt.pairs
	}
	res.put("core.ns_per_pair", nsPerPair, kt.inputs)
	res.put("trace.overhead_ratio", median(traced)/median(plain), len(traced))

	// The layer table: self time per replayed request, and the share of the
	// requests' wall time the layers under the root account for.
	names := make([]string, 0, len(self))
	var layers int64
	for name, ns := range self {
		names = append(names, name)
		if name != "request" && name != "kernel" && name != "wal.recover" && !kernelLayer(name) {
			layers += ns
		}
	}
	slices.Sort(names)
	fmt.Fprintf(out, "%s: %d requests replayed, %.3f ms wall each; layers cover %.1f%% of it\n",
		in.w.name, requests, perRequest(float64(wall)), 100*float64(layers)/float64(max(wall, 1)))
	for _, name := range names {
		if kernelLayer(name) || name == "kernel" || name == "wal.recover" {
			continue
		}
		fmt.Fprintf(out, "  %-24s %10.4f ms/request self\n", name, perRequest(float64(self[name])))
	}
	if in.stream != nil {
		fmt.Fprintf(out, "  %-24s %10.4f ms once\n", "wal.recover", float64(self["wal.recover"])/1e6)
	}
	fmt.Fprintf(out, "  kernel pass over %d inputs: index %.4f ms, pack %.4f ms, score %.4f ms, %.3f ns/pair\n",
		kt.inputs, perInput(kt.index), perInput(kt.pack), perInput(kt.score), nsPerPair)
	return t.spans, nil
}

func kernelLayer(name string) bool {
	return name == "dist.index" || name == "dist.pack" || name == "core.score"
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// writeSpans writes every workload's spans as one JSON document.
func writeSpans(path string, spans map[string][]span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"workloads": spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
