// Command streambench measures the streaming layer's headline numbers — the
// cost of a snapshot after a small shot batch, served incrementally versus
// recomputed from scratch by the batch pipeline — and writes them as JSON so
// the perf trajectory across PRs is machine-readable (BENCH_stream.json at
// the repository root holds the last committed run).
//
//	streambench -out BENCH_stream.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/bitstr"
	"repro/internal/dist"

	hammer "repro"
)

// report is the BENCH_stream.json schema. NsPerOp covers one small-batch
// ingest plus one snapshot over the accumulated stream.
type report struct {
	Benchmark     string  `json:"benchmark"`
	Bits          int     `json:"bits"`
	Support       int     `json:"support"`
	BatchShots    int     `json:"batch_shots"`
	IncrementalNs int64   `json:"incremental_ns_per_op"`
	BatchNs       int64   `json:"batch_ns_per_op"`
	Speedup       float64 `json:"speedup"`
	GOOS          string  `json:"goos"`
	GOARCH        string  `json:"goarch"`
	CPUs          int     `json:"cpus"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
}

func main() {
	out := flag.String("out", "BENCH_stream.json", "output file ('-' for stdout)")
	bits := flag.Int("bits", 20, "outcome width")
	support := flag.Int("support", 2000, "unique outcomes in the accumulated stream")
	batch := flag.Int("batch", 64, "shots per ingest-then-snapshot cycle")
	flag.Parse()

	base, outcomes := synthetic(*bits, *support, 42)

	incremental := testing.Benchmark(func(b *testing.B) {
		s, err := hammer.NewStream(*bits, hammer.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if err := s.IngestCounts(base); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Snapshot(); err != nil { // settle the initial full pass
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < *batch; j++ {
				if err := s.Ingest(outcomes[(i**batch+j)%len(outcomes)]); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := s.Snapshot(); err != nil {
				b.Fatal(err)
			}
		}
	})
	full := testing.Benchmark(func(b *testing.B) {
		acc := make(map[string]int, len(base))
		for k, v := range base {
			acc[k] = v
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < *batch; j++ {
				acc[outcomes[(i**batch+j)%len(outcomes)]]++
			}
			if _, err := hammer.RunCounts(acc); err != nil {
				b.Fatal(err)
			}
		}
	})

	rep := report{
		Benchmark:     "stream-snapshot-after-batch",
		Bits:          *bits,
		Support:       *support,
		BatchShots:    *batch,
		IncrementalNs: incremental.NsPerOp(),
		BatchNs:       full.NsPerOp(),
		Speedup:       float64(full.NsPerOp()) / float64(incremental.NsPerOp()),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		CPUs:          runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
	}

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(rep); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "incremental %d ns/op, batch %d ns/op (%.2fx)\n",
		rep.IncrementalNs, rep.BatchNs, rep.Speedup)
}

// synthetic is dist.Synthetic's §6.6 workload as integer counts, plus the
// outcome list the per-cycle shots draw from.
func synthetic(n, uniqueOutcomes int, seed int64) (map[string]int, []string) {
	d := dist.Synthetic(n, uniqueOutcomes, seed)
	counts := make(map[string]int, d.Len())
	outcomes := make([]string, 0, d.Len())
	d.Range(func(x bitstr.Bits, p float64) {
		k := int(p * 1e6)
		if k < 1 {
			k = 1
		}
		s := bitstr.Format(x, n)
		counts[s] = k
		outcomes = append(outcomes, s)
	})
	return counts, outcomes
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "streambench:", err)
	os.Exit(1)
}
