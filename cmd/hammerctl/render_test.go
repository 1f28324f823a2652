package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"strings"
	"testing"

	"repro/internal/bitstr"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fleettest"
	"repro/internal/serve"
)

// The map-typed wire structs the renderers replaced. encodeJSON of these is
// the reference every rendered body must equal byte for byte; the handler
// tests also decode responses into them.

type reconstructResponse struct {
	Dist    map[string]float64 `json:"dist"`
	Support int                `json:"support"`
	Engine  string             `json:"engine"`
	Radius  int                `json:"radius"`
}

type batchResponse struct {
	Results []reconstructResponse `json:"results"`
}

type streamSnapshotResponse struct {
	ID      string             `json:"id"`
	Shots   int                `json:"shots"`
	Support int                `json:"support"`
	Dist    map[string]float64 `json:"dist"`
	Engine  string             `json:"engine"`
	Radius  int                `json:"radius"`
}

type streamIngestResponse struct {
	ID       string                  `json:"id"`
	Ingested int                     `json:"ingested"`
	Shots    int                     `json:"shots"`
	Support  int                     `json:"support"`
	Snapshot *streamSnapshotResponse `json:"snapshot,omitempty"`
}

func referenceResult(res *core.Result) reconstructResponse {
	return reconstructResponse{Dist: dist.ToHistogram(res.Out), Support: res.Out.Len(), Engine: res.Engine, Radius: res.Radius}
}

func referenceSnapshot(id string, shots, support int, res *core.Result) *streamSnapshotResponse {
	return &streamSnapshotResponse{ID: id, Shots: shots, Support: support,
		Dist: dist.ToHistogram(res.Out), Engine: res.Engine, Radius: res.Radius}
}

// renderCases builds distributions at widths 1, 12, 20 and 64: for each
// mass, one where every outcome carries it, plus one mixing all of them.
func renderCases() []*dist.Dist {
	masses := []float64{0, 5e-324, 1e-7, 0.1, 1}
	var out []*dist.Dist
	for _, n := range []int{1, 12, 20, 64} {
		outcomes := []bitstr.Bits{0, 1, bitstr.AllOnes(n), bitstr.AllOnes(n) / 3, bitstr.AllOnes(n) &^ 2}
		for _, m := range masses {
			d := dist.New(n)
			for _, x := range outcomes {
				d.Set(x, m)
			}
			out = append(out, d)
		}
		mixed := dist.New(n)
		for i, x := range outcomes {
			mixed.Set(x, masses[i])
		}
		out = append(out, mixed)
	}
	return out
}

// renderEngines is every engine label a body can carry: each registered
// engine, its sharded: form, and the streaming engine.
func renderEngines() []string {
	var out []string
	for _, name := range core.EngineNames() {
		out = append(out, name, "sharded:"+name)
	}
	return append(out, core.EngineIncremental)
}

func mustEncode(t *testing.T, v any) []byte {
	t.Helper()
	b, err := encodeJSON(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func checkRendered(t *testing.T, shape string, got rendered, want []byte) {
	t.Helper()
	if got.err != nil {
		t.Fatalf("%s: %v", shape, got.err)
	}
	if !bytes.Equal(got.body, want) {
		t.Fatalf("%s: rendered body differs\n got: %q\nwant: %q", shape, got.body, want)
	}
}

// TestRenderByteIdentity: every rendered shape equals encodeJSON of the
// map-typed struct it replaced, across widths, edge masses (zero, the
// smallest subnormal, the 'e'-form cutoff) and every engine label.
func TestRenderByteIdentity(t *testing.T) {
	cases := renderCases()
	for i, d := range cases {
		for _, engine := range renderEngines() {
			res := &core.Result{Out: d, Engine: engine, Radius: d.NumBits() / 2}
			name := fmt.Sprintf("case %d (n=%d) engine %s", i, d.NumBits(), engine)

			checkRendered(t, name+" /v1/reconstruct", renderReconstruct(res),
				mustEncode(t, referenceResult(res)))

			// /v1/batch with one member and with several.
			other := &core.Result{Out: cases[(i+1)%len(cases)], Engine: engine, Radius: 1}
			for _, members := range [][]*core.Result{{res}, {res, other, res}} {
				var ref batchResponse
				var parts []rendered
				for _, m := range members {
					ref.Results = append(ref.Results, referenceResult(m))
					parts = append(parts, appendResult(nil, 2, m))
				}
				body, err := renderBatch(parts)
				checkRendered(t, fmt.Sprintf("%s /v1/batch x%d", name, len(members)),
					rendered{body: body, err: err}, mustEncode(t, ref))
			}

			for _, id := range []string{"t", "qaoa-7", `a<b>&"c"\d` + "é \x01"} {
				checkRendered(t, name+" stream GET "+id, renderSnapshot(id, 63, d.Len(), res),
					mustEncode(t, referenceSnapshot(id, 63, d.Len(), res)))
				ack := streamIngestAck{ID: id, Ingested: 7, Shots: 63, Support: d.Len()}
				checkRendered(t, name+" ingest ?snapshot=1 "+id, renderIngestSnapshot(ack, res),
					mustEncode(t, streamIngestResponse{ID: id, Ingested: 7, Shots: 63, Support: d.Len(),
						Snapshot: referenceSnapshot(id, 63, d.Len(), res)}))
			}
		}
	}
	// A plain ingest keeps the envelope encoder and renders as before.
	if got, want := mustEncode(t, streamIngestAck{ID: "t", Ingested: 1, Shots: 2, Support: 3}),
		mustEncode(t, streamIngestResponse{ID: "t", Ingested: 1, Shots: 2, Support: 3}); !bytes.Equal(got, want) {
		t.Errorf("plain ingest: %q vs %q", got, want)
	}
}

// TestInvalidHistogramSkipsCacheTiers: a histogram the server rejects is
// rejected before any cache tier sees it — no L1 miss is counted and no
// peer is probed — while a valid one still walks the tiers.
func TestInvalidHistogramSkipsCacheTiers(t *testing.T) {
	peer := fleettest.New(fleettest.Config{})
	t.Cleanup(peer.Close)
	srv, ts := newFleetServer(t, serve.Config{}, durableConfig{cacheDir: t.TempDir()},
		fleetConfig{peers: []string{peer.URL()}})
	for _, body := range []string{
		`{"0x": 1}`,
		`{"01": 1, "011": 1}`,
		`{}`,
		`{"01": 0}`,
		`{"01": -1}`,
		`{"counts": {"0x": 1}, "config": {"radius": 1}}`,
	} {
		code, resp, hdr := postHeaders(t, ts.URL+"/v1/reconstruct", body)
		if code != http.StatusBadRequest || hdr.Get(cacheHeader) != "" {
			t.Errorf("%s: %d %q (%s)", body, code, hdr.Get(cacheHeader), resp)
		}
	}
	if n := peer.CacheGets(); n != 0 {
		t.Errorf("peer probed %d times for invalid histograms", n)
	}
	if n := srv.cache.Misses(); n != 0 {
		t.Errorf("L1 counted %d misses for invalid histograms", n)
	}
	if !strings.Contains(metricsBody(t, ts.URL), "hammer_cache_misses_total 0\n") {
		t.Error("hammer_cache_misses_total moved on invalid histograms")
	}
	if code, _, hdr := postHeaders(t, ts.URL+"/v1/reconstruct", `{"01": 1, "10": 2}`); code != http.StatusOK || hdr.Get(cacheHeader) != cacheMiss {
		t.Fatalf("valid request: %d %q", code, hdr.Get(cacheHeader))
	}
	if peer.CacheGets() != 1 || srv.cache.Misses() != 1 {
		t.Errorf("valid request: peer gets %d, misses %d", peer.CacheGets(), srv.cache.Misses())
	}
}

// TestCacheStoresExactLength: L1 entries hold exactly their body — no
// rendering slack — whether they came from a miss, from L2, or from a peer.
func TestCacheStoresExactLength(t *testing.T) {
	body := string(benchHistogramJSON(t, 12, 300))
	key := func(srv *server) string {
		rr, err := decodeReconstruct([]byte(body))
		if err != nil {
			t.Fatal(err)
		}
		return cache.KeyEntries(rr.entries, rr.width, srv.sch.Options())
	}
	check := func(srv *server, tier string) {
		t.Helper()
		got, ok := srv.cache.Get(key(srv))
		if !ok {
			t.Fatalf("%s: not in L1", tier)
		}
		if cap(got.Body) != len(got.Body) {
			t.Errorf("%s: stored cap %d, len %d", tier, cap(got.Body), len(got.Body))
		}
	}
	dir := t.TempDir()
	srvB, tsB := newFleetServer(t, serve.Config{}, durableConfig{cacheDir: dir}, fleetConfig{})
	if code, _, hdr := postHeaders(t, tsB.URL+"/v1/reconstruct", body); code != http.StatusOK || hdr.Get(cacheHeader) != cacheMiss {
		t.Fatalf("miss: %d %q", code, hdr.Get(cacheHeader))
	}
	check(srvB, "miss")

	srvL2, tsL2 := newFleetServer(t, serve.Config{}, durableConfig{cacheDir: dir}, fleetConfig{})
	if _, _, hdr := postHeaders(t, tsL2.URL+"/v1/reconstruct", body); hdr.Get(cacheHeader) != cacheHitL2 {
		t.Fatalf("L2: %q", hdr.Get(cacheHeader))
	}
	check(srvL2, "L2 promotion")

	srvPeer, tsPeer := newFleetServer(t, serve.Config{}, durableConfig{}, fleetConfig{peers: []string{tsB.URL}})
	if _, _, hdr := postHeaders(t, tsPeer.URL+"/v1/reconstruct", body); hdr.Get(cacheHeader) != cacheHitPeer {
		t.Fatalf("peer: %q", hdr.Get(cacheHeader))
	}
	check(srvPeer, "peer promotion")
}

// TestRenderNonFiniteMass: no valid histogram reconstructs to a non-finite
// mass (the histogram checks reject totals that overflow or whose
// reciprocal does), but should one reach a renderer, every renderer fails
// with the error encodeJSON gives for the reference structs rather than
// emit a body.
func TestRenderNonFiniteMass(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		d := dist.New(2)
		d.Add(0b01, 0.5)
		d.Add(0b10, bad)
		res := &core.Result{Out: d, Engine: core.EngineExact, Radius: 1}
		_, want := encodeJSON(referenceResult(res))
		if want == nil {
			t.Fatalf("%v: encodeJSON accepted it", bad)
		}
		batch, batchErr := renderBatch([]rendered{appendResult(nil, 2, res)})
		if batch != nil {
			t.Errorf("%v: batch rendered %q", bad, batch)
		}
		ack := streamIngestAck{ID: "s", Ingested: 1, Shots: 2, Support: 2}
		for name, err := range map[string]error{
			"reconstruct": renderReconstruct(res).err,
			"batch":       batchErr,
			"snapshot":    renderSnapshot("s", 2, 2, res).err,
			"ingest":      renderIngestSnapshot(ack, res).err,
		} {
			if err == nil || err.Error() != want.Error() {
				t.Errorf("%v %s: err %v, want %v", bad, name, err, want)
			}
		}
	}
}
