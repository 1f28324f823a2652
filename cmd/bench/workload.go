package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"slices"
	"strconv"

	hammer "repro"
	"repro/internal/bitstr"
)

// workload is one traffic mix driven against a fresh server every round,
// which sends a fixed number of requests. doc.go explains why each workload
// exists.
type workload struct {
	name string
	why  string
	// path is the endpoint requests post to; stream's are per session.
	path string
	// requests is the request count per round.
	requests int
	// cache is the X-Hammer-Cache value every timed response must carry
	// ("" = not asserted).
	cache string
	// cfg is the configuration the in-process reference applies.
	cfg hammer.Config
}

// The workloads, in their canonical order. Sizes make one round take two to
// three seconds on two cores, so a 12-second run holds four to six rounds
// for its medians.
var workloads = []workload{
	{
		name: "sweep", path: "/v1/reconstruct", requests: 120, cache: "miss",
		why: "QAOA optimizer iterations: 20-bit/4000-outcome histograms that each miss the cache, dominated by the pairwise scan",
	},
	{
		name: "tight", path: "/v1/reconstruct", requests: 200, cache: "miss",
		cfg: hammer.Config{Radius: tightRadius},
		why: "small-radius regime served by the bucketed engine, through the wrapped {counts, config} body",
	},
	{
		name: "repeat", path: "/v1/reconstruct", requests: 1200, cache: "hit",
		why: "repeated identical requests: every request hits the result cache, so decode, key and write dominate",
	},
	{
		name: "batch", path: "/v1/batch", requests: 240,
		why: "many small circuits: 16 12-bit/256-outcome histograms per request, dominated by per-outcome layers and batch fan-out",
	},
	{
		name: "stream", requests: 800,
		why: "producers awaiting each ack: ingests with WAL appends beside incremental snapshots on journal-recovered sessions; bypasses the result cache",
	},
}

const (
	// tightRadius is the tight workload's per-request radius override.
	tightRadius = 3
	// checkEvery selects the responses compared to the in-process
	// reference: request indices divisible by it (on stream, snapshot
	// indices, whose engine is counted).
	checkEvery = 25
	// distinctBodies is how many distinct bodies the repeat and batch
	// workloads cycle through.
	distinctBodies = 64
	// sweepBases is how many histograms the sweep and tight requests
	// cycle through.
	sweepBases = 8
	// warmRequests is the untimed warm-up request count of the sweep,
	// tight and batch workloads.
	warmRequests = 4

	// Stream workload shape.
	streamWidth    = 20
	streamSupport  = 2000
	streamSessions = 8
	streamActive   = 2
	streamShots    = 64 // shots per ingest
	// snapshotEvery is how often a stream ingest asks for a snapshot: every
	// second one.
	snapshotEvery = 2
)

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// inputs are one workload's generated request bodies. The server sees only
// these bytes; the seed fixes them completely.
type inputs struct {
	w workload
	// bodies are the timed bodies; request i sends bodies[i%len(bodies)].
	bodies [][]byte
	// warm are the untimed warm-up bodies. For repeat they are bodies
	// itself: the warm-up fills the cache.
	warm [][]byte
	// stream holds the stream workload's sessions and ingests.
	stream *streamInputs
}

// streamInputs is the stream workload: sessions seeded into a journal before
// the server starts, and the ingest bodies sent to the active ones.
type streamInputs struct {
	// seeds[i] is session sessionID(i)'s journaled histogram.
	seeds [][]pair
	// active are the indices of the sessions that receive ingests.
	active [streamActive]int
	// ingests[a][k] is the k-th ingest body for active session a, and
	// counts[a][k] the shots it carries.
	ingests [streamActive][][]byte
	counts  [streamActive][]map[string]int
}

func sessionID(i int) string { return "s" + strconv.Itoa(i) }

// pair is one histogram entry: an outcome and its shot count.
type pair struct {
	x uint64
	k int
}

// generate builds a workload's inputs from the seed. scale shrinks the
// per-round work (1 = full size) for tests.
func generate(w workload, seed uint64, scale float64) *inputs {
	stream := fnv.New64a()
	stream.Write([]byte(w.name))
	rng := rand.New(rand.NewPCG(seed, stream.Sum64()))
	in := &inputs{w: w}
	n := scaled(w.requests, scale)
	switch w.name {
	case "sweep", "tight":
		// Requests cycle through several histograms, so one unusual draw
		// weighs little. Varying the key outcome's count per request makes
		// every request distinct, so each one misses the cache; warm-up
		// bodies vary it downwards so they never collide with a timed one.
		bases := make([][]pair, sweepBases)
		for b := range bases {
			bases[b] = clustered(rng, 20, 4000)
		}
		for i := range n {
			in.bodies = append(in.bodies, reconstructBody(w, bases[i%sweepBases], i))
		}
		for i := range warmRequests {
			in.warm = append(in.warm, reconstructBody(w, bases[i%sweepBases], -1-i))
		}
	case "repeat":
		for range distinctBodies {
			in.bodies = append(in.bodies, reconstructBody(w, clustered(rng, 20, 4000), 0))
		}
		in.warm = in.bodies
	case "batch":
		for range distinctBodies {
			body := []byte(`{"requests":[`)
			for m := range 16 {
				if m > 0 {
					body = append(body, ',')
				}
				body = appendCounts(body, 12, clustered(rng, 12, 256))
			}
			in.bodies = append(in.bodies, append(body, "]}"...))
		}
		in.warm = in.bodies[:warmRequests]
	case "stream":
		in.stream = generateStream(rng, streamIngests(w, scale))
	}
	return in
}

// scaled returns n scaled down, never below one.
func scaled(n int, scale float64) int {
	return max(1, int(float64(n)*scale))
}

// streamIngests is the per-session ingest count of one stream round.
func streamIngests(w workload, scale float64) int {
	return max(2, scaled(w.requests, scale)/streamActive)
}

// reconstructBody renders one /v1/reconstruct body: the base histogram with
// its first (key) outcome's count shifted by vary, bare or, on tight,
// wrapped with a radius override.
func reconstructBody(w workload, base []pair, vary int) []byte {
	h := slices.Clone(base)
	h[0].k += vary
	if w.cfg.Radius == 0 {
		return appendCounts(nil, 20, h)
	}
	body := appendCounts([]byte(`{"counts":`), 20, h)
	return fmt.Appendf(body, `,"config":{"radius":%d}}`, w.cfg.Radius)
}

// clustered returns a count histogram over n-bit outcomes in the shape of
// the paper's §6.6 workloads: a key outcome, its single-bit-flip neighbours,
// and a uniform tail, support outcomes in all. The key outcome comes first.
func clustered(rng *rand.Rand, n, support int) []pair {
	mask := uint64(1)<<n - 1
	key := rng.Uint64() & mask
	h := []pair{{key, 5000}}
	seen := map[uint64]bool{key: true}
	for i := 0; i < n && len(h) < support; i++ {
		x := key ^ 1<<i
		seen[x] = true
		h = append(h, pair{x, 1000 + rng.IntN(1000)})
	}
	for len(h) < support {
		x := rng.Uint64() & mask
		if !seen[x] {
			seen[x] = true
			h = append(h, pair{x, 10 + rng.IntN(10)})
		}
	}
	return h
}

// appendCounts renders a histogram as a JSON object keyed by bitstring, in
// ascending outcome order so equal histograms render to equal bytes.
func appendCounts(dst []byte, n int, h []pair) []byte {
	sorted := slices.Clone(h)
	slices.SortFunc(sorted, func(a, b pair) int {
		switch {
		case a.x < b.x:
			return -1
		case a.x > b.x:
			return 1
		}
		return 0
	})
	dst = append(dst, '{')
	for i, p := range sorted {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '"')
		dst = append(dst, bitstr.Format(bitstr.Bits(p.x), n)...)
		dst = append(dst, `":`...)
		dst = strconv.AppendInt(dst, int64(p.k), 10)
	}
	return append(dst, '}')
}

// generateStream seeds the stream sessions and draws each active session's
// ingests: perSession batches of streamShots shots sampled from the
// session's own histogram, so ingests mostly land on known outcomes.
func generateStream(rng *rand.Rand, perSession int) *streamInputs {
	s := &streamInputs{}
	for range streamSessions {
		s.seeds = append(s.seeds, clustered(rng, streamWidth, streamSupport))
	}
	perm := rng.Perm(streamSessions)
	for a := range streamActive {
		s.active[a] = perm[a]
		seed := s.seeds[perm[a]]
		cum := make([]int, len(seed))
		total := 0
		for i, p := range seed {
			total += p.k
			cum[i] = total
		}
		for range perSession {
			shots := map[string]int{}
			for range streamShots {
				i, _ := slices.BinarySearch(cum, 1+rng.IntN(total))
				shots[bitstr.Format(bitstr.Bits(seed[i].x), streamWidth)]++
			}
			// encoding/json sorts map keys, so the body is deterministic.
			body, err := json.Marshal(map[string]any{"counts": shots})
			if err != nil {
				panic(err) // unreachable: string keys and int values
			}
			s.ingests[a] = append(s.ingests[a], body)
			s.counts[a] = append(s.counts[a], shots)
		}
	}
	return s
}

// histogramOf converts generated pairs to the facade's string-keyed form.
func histogramOf(n int, h []pair) map[string]int {
	out := make(map[string]int, len(h))
	for _, p := range h {
		out[bitstr.Format(bitstr.Bits(p.x), n)] += p.k
	}
	return out
}
