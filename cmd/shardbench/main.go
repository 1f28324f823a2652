// Command shardbench measures the stripe-sharded reconstruction's two
// overheads that wall-clock speedup hides: how evenly the pair-balanced plan
// splits the triangular scan (pair balance — max stripe pairs over the ideal
// even share) and how much of the total time the reduction-tree merge costs
// (merge-overhead fraction — tree-fold ns over scan+fold ns). Both are
// host-independent ratios, so the committed BENCH_shard.json gates them
// directly instead of gating ns figures that drift with hardware:
//
//   - pair_balance <= 1.05: no stripe owns more than 5% over its even share,
//     so the slowest replica is within 5% of ideal on uniform hardware.
//   - merge_overhead_fraction <= 0.10: the fold is an epilogue, not a phase —
//     sharding S ways must not buy an O(S) merge tax back.
//
// The gate workload is the blocked engine's acceptance config (20-bit /
// 4000-support at the paper's default radius) split S=8 ways. The run also
// re-verifies the split: the combined stripes must match the single-node
// reconstruction within 1e-12 total variation, or the timing numbers gate a
// wrong answer.
//
//	shardbench -out BENCH_shard.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
)

// report is the BENCH_shard.json schema.
type report struct {
	Benchmark string `json:"benchmark"`
	Bits      int    `json:"bits"`
	Support   int    `json:"support"`
	Radius    int    `json:"radius"`
	Stripes   int    `json:"stripes"`
	Engine    string `json:"engine"`
	// Workers pins the measured runs single-threaded, like corebench: the
	// ratios below compare sequential scan time to sequential fold time, not
	// scheduler luck.
	Workers int `json:"workers"`
	// TotalPairs and MaxStripePairs feed the balance ratio; committed so the
	// gate is auditable from the report alone.
	TotalPairs     int64   `json:"total_pairs"`
	MaxStripePairs int64   `json:"max_stripe_pairs"`
	PairBalance    float64 `json:"pair_balance"`
	MaxPairBalance float64 `json:"max_pair_balance"`
	// ScanNsPerOp is one full pass of all stripes' ScoreStripe calls;
	// MergeNsPerOp is one CombineStripes tree-fold + epilogue over their
	// partials. The fraction divides merge by their sum.
	ScanNsPerOp          int64   `json:"scan_ns_per_op"`
	MergeNsPerOp         int64   `json:"merge_ns_per_op"`
	MergeOverheadFrac    float64 `json:"merge_overhead_fraction"`
	MaxMergeOverheadFrac float64 `json:"max_merge_overhead_fraction"`
	// CombinedVsSingleTVD is the correctness cross-check: total variation
	// between the combined stripes and a single-node reconstruction.
	CombinedVsSingleTVD float64 `json:"combined_vs_single_tvd"`
	GOOS                string  `json:"goos"`
	GOARCH              string  `json:"goarch"`
	CPUs                int     `json:"cpus"`
	GOMAXPROCS          int     `json:"gomaxprocs"`
}

func main() {
	out := flag.String("out", "BENCH_shard.json", "output file ('-' for stdout)")
	bits := flag.Int("bits", 20, "outcome width")
	support := flag.Int("support", 4000, "unique outcomes")
	stripes := flag.Int("stripes", 8, "stripe count")
	maxBalance := flag.Float64("max-balance", 1.05, "committed pair-balance ceiling")
	maxMergeFrac := flag.Float64("max-merge-fraction", 0.10, "committed merge-overhead ceiling")
	flag.Parse()

	d := dist.Synthetic(*bits, *support, 42)
	ctx := context.Background()

	scorer, err := core.NewSession(core.Options{Workers: 1, Engine: core.EngineBlocked})
	if err != nil {
		fatal(err)
	}
	combiner, err := core.NewSession(core.Options{Workers: 1, Engine: core.EngineBlocked})
	if err != nil {
		fatal(err)
	}
	spec, err := combiner.ShardProblem(d)
	if err != nil {
		fatal(err)
	}
	plan := dist.NewStripePlan(spec.Support(), *stripes)

	rep := report{
		Benchmark:            "shard-stripe-merge-overhead",
		Bits:                 *bits,
		Support:              spec.Support(),
		Radius:               spec.MaxD,
		Stripes:              plan.Len(),
		Engine:               core.EngineBlocked,
		Workers:              1,
		TotalPairs:           plan.TotalPairs(),
		PairBalance:          plan.Balance(),
		MaxPairBalance:       *maxBalance,
		MaxMergeOverheadFrac: *maxMergeFrac,
		GOOS:                 runtime.GOOS,
		GOARCH:               runtime.GOARCH,
		CPUs:                 runtime.NumCPU(),
		GOMAXPROCS:           runtime.GOMAXPROCS(0),
	}
	for _, st := range plan.Stripes() {
		if st.Pairs > rep.MaxStripePairs {
			rep.MaxStripePairs = st.Pairs
		}
	}

	// Score every stripe once, deep-copying off the session scratch — the
	// merge benchmark folds these fixed partials.
	parts := make([]core.StripePartial, plan.Len())
	for i, st := range plan.Stripes() {
		sp := spec
		sp.Lo, sp.Hi = st.Lo, st.Hi
		part, err := scorer.ScoreStripe(ctx, sp)
		if err != nil {
			fatal(err)
		}
		parts[i] = core.StripePartial{
			Lo:   part.Lo,
			Hi:   part.Hi,
			CHS:  append([]float64(nil), part.CHS...),
			Rows: append([]float64(nil), part.Rows...),
		}
	}

	// Correctness before timing: the combined stripes must reproduce the
	// single-node answer, or the ratios below gate a wrong computation.
	combined, err := combiner.CombineStripes(ctx, d, parts, core.EngineBlocked)
	if err != nil {
		fatal(err)
	}
	single := core.Reconstruct(d, core.Options{Workers: 1, Engine: core.EngineBlocked})
	rep.CombinedVsSingleTVD = dist.TVD(combined.Out, single.Out)
	if rep.CombinedVsSingleTVD > 1e-12 {
		fatal(fmt.Errorf("combined stripes diverge from single-node: TVD %g > 1e-12", rep.CombinedVsSingleTVD))
	}

	scan := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, st := range plan.Stripes() {
				sp := spec
				sp.Lo, sp.Hi = st.Lo, st.Hi
				if _, err := scorer.ScoreStripe(ctx, sp); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	merge := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := combiner.CombineStripes(ctx, d, parts, core.EngineBlocked); err != nil {
				b.Fatal(err)
			}
		}
	})
	rep.ScanNsPerOp = scan.NsPerOp()
	rep.MergeNsPerOp = merge.NsPerOp()
	rep.MergeOverheadFrac = float64(rep.MergeNsPerOp) / float64(rep.ScanNsPerOp+rep.MergeNsPerOp)

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
	fmt.Fprintf(os.Stderr,
		"shardbench: %d-bit/%d-support S=%d: balance %.4f (max %.2f), merge %.2f%% of total (max %.0f%%), scan %d ns, merge %d ns\n",
		rep.Bits, rep.Support, rep.Stripes, rep.PairBalance, rep.MaxPairBalance,
		100*rep.MergeOverheadFrac, 100*rep.MaxMergeOverheadFrac, rep.ScanNsPerOp, rep.MergeNsPerOp)
	if rep.PairBalance > rep.MaxPairBalance {
		fatal(fmt.Errorf("pair balance %.4f above committed ceiling %.2f", rep.PairBalance, rep.MaxPairBalance))
	}
	if rep.MergeOverheadFrac > rep.MaxMergeOverheadFrac {
		fatal(fmt.Errorf("merge overhead %.4f above committed ceiling %.2f", rep.MergeOverheadFrac, rep.MaxMergeOverheadFrac))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "shardbench:", err)
	os.Exit(1)
}
