// Command costfit fits the cost model's per-engine constants from committed
// benchmark reports and gates the model's selection quality: it replays
// every BENCH_core.json workload row, asks the fitted model which engine it
// would pick, and fails unless predicted-fastest matches measured-fastest on
// at least -floor of the rows and no model choice measures more than
// -maxslow times slower than the row's winner.
//
// CI runs it against a freshly regenerated benchmark, so the committed
// trajectory stays a live regression suite for selection accuracy — not a
// snapshot the model could silently drift from. The fitted constants are
// written as JSON (-out) and uploaded as a CI artifact; -table renders the
// "choosing an engine" decision table for docs/operations.md.
//
//	costfit -core BENCH_core.json -stream BENCH_stream.json -out COST_model.json
//	costfit -core BENCH_core.json -table
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/cost"
)

// modelFile is the -out schema: the fitted constants plus the evaluation
// that qualified them.
type modelFile struct {
	FittedFrom  []string    `json:"fitted_from"`
	Accuracy    float64     `json:"selection_accuracy"`
	MaxSlowdown float64     `json:"max_chosen_slowdown"`
	Rows        int         `json:"rows"`
	Model       *cost.Model `json:"model"`
}

func main() {
	corePath := flag.String("core", "BENCH_core.json", "core benchmark report to fit and validate against")
	streamPath := flag.String("stream", "BENCH_stream.json", "stream benchmark report for the incremental constants ('' to skip)")
	out := flag.String("out", "COST_model.json", "fitted-constants output file ('-' for stdout, '' to skip)")
	floor := flag.Float64("floor", 0.9, "minimum fraction of rows where the model picks the measured-fastest engine")
	maxSlow := flag.Float64("maxslow", 1.3, "maximum measured slowdown of any model choice vs the row's best engine")
	table := flag.Bool("table", false, "print the docs/operations.md engine decision table and exit")
	flag.Parse()

	rep, err := cost.LoadCore(*corePath)
	if err != nil {
		fatal(err)
	}
	samples := cost.CoreSamples(rep)
	sources := []string{*corePath}
	if *streamPath != "" {
		srep, err := cost.LoadStream(*streamPath)
		if err != nil {
			fatal(err)
		}
		samples = append(samples, cost.StreamSamples(srep)...)
		sources = append(sources, *streamPath)
	}
	if len(samples) == 0 {
		fatal(fmt.Errorf("no single-threaded samples in %s (per-run workers must be 1)", *corePath))
	}
	fitted := cost.Fit(cost.DefaultModel(), samples)
	if err := fitted.Validate(); err != nil {
		fatal(err)
	}

	if *table {
		printTable(fitted, rep.Bits)
		fmt.Println()
		printShardTable(fitted, rep.Bits)
		return
	}

	rows, accuracy, worst := cost.EvaluateCore(fitted, rep)
	for _, r := range rows {
		mark := "ok"
		if r.Chosen != r.Best {
			mark = fmt.Sprintf("MISS (%.2fx slower)", r.Slowdown)
		}
		fmt.Fprintf(os.Stderr, "support=%d radius=%d measured-best=%s model-chose=%s %s\n",
			r.Support, r.Radius, r.Best, r.Chosen, mark)
	}
	fmt.Fprintf(os.Stderr, "costfit: %d rows, selection accuracy %.0f%%, worst chosen slowdown %.2fx\n",
		len(rows), 100*accuracy, worst)
	for _, name := range fitted.Names() {
		fmt.Fprintf(os.Stderr, "costfit: %-12s %s\n", name, fitted.Engines[name])
	}

	if *out != "" {
		mf := modelFile{FittedFrom: sources, Accuracy: accuracy, MaxSlowdown: worst, Rows: len(rows), Model: fitted}
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
		if err := enc.Encode(mf); err != nil {
			fatal(err)
		}
	}

	if accuracy < *floor {
		fatal(fmt.Errorf("selection accuracy %.0f%% below floor %.0f%%", 100*accuracy, 100**floor))
	}
	if worst > *maxSlow {
		fatal(fmt.Errorf("a model choice measured %.2fx slower than the best engine (cap %.2fx)", worst, *maxSlow))
	}
}

// printTable renders the markdown decision table embedded in
// docs/operations.md: the model's engine choice over a support × radius
// grid at the benchmark width. Regenerate the doc with
//
//	go run ./cmd/costfit -core BENCH_core.json -table
func printTable(m *cost.Model, bits int) {
	supports := []int{50, 200, 1000, 4000, 16000}
	radii := []int{2, 3, 4, defaultRadius(bits)}
	candidates := []string{cost.EngineExact, cost.EngineBlocked}
	fmt.Printf("| support \\ radius |")
	for _, r := range radii {
		label := fmt.Sprintf(" %d |", r)
		if r == defaultRadius(bits) {
			label = fmt.Sprintf(" default (%d @ %d bits) |", r, bits)
		}
		fmt.Print(label)
	}
	fmt.Println()
	fmt.Print("|---|")
	for range radii {
		fmt.Print("---|")
	}
	fmt.Println()
	for _, n := range supports {
		fmt.Printf("| %d |", n)
		for _, r := range radii {
			chosen, _, ok := m.Choose(cost.Workload{Support: n, Bits: bits, Radius: r}, candidates)
			if !ok {
				chosen = "?"
			}
			fmt.Printf(" %s |", chosen)
		}
		fmt.Println()
	}
}

// printShardTable renders the sharded-vs-local crossover table for
// docs/operations.md: at the default radius and benchmark width, for each
// support × replica-count cell, whether the model predicts a stripe-sharded
// run beats single-node, and by how much. The stripe-aware term (per-stripe
// setup + wire transfer + merge per tree level) makes small supports local
// and large supports sharded; the crossover row is where -replicas starts
// paying off.
func printShardTable(m *cost.Model, bits int) {
	supports := []int{1000, 4000, 16000, 64000, 256000}
	stripeCounts := []int{2, 4, 8}
	r := defaultRadius(bits)
	engine := cost.EngineBlocked
	fmt.Printf("Sharded vs local, %s engine, radius %d @ %d bits (predicted local / sharded):\n\n", engine, r, bits)
	fmt.Print("| support \\ replicas |")
	for _, s := range stripeCounts {
		fmt.Printf(" %d |", s)
	}
	fmt.Println()
	fmt.Print("|---|")
	for range stripeCounts {
		fmt.Print("---|")
	}
	fmt.Println()
	for _, n := range supports {
		w := cost.Workload{Support: n, Bits: bits, Radius: r}
		local, _ := m.Predict(engine, w)
		fmt.Printf("| %d |", n)
		for _, s := range stripeCounts {
			sharded, ok := m.PredictSharded(engine, w, s)
			if !ok {
				fmt.Print(" ? |")
				continue
			}
			verdict := "local"
			if sharded < local {
				verdict = "shard"
			}
			fmt.Printf(" %s (%.1fx) |", verdict, local/sharded)
		}
		fmt.Println()
	}
}

func defaultRadius(n int) int {
	if n <= 1 {
		return 0
	}
	if n%2 == 0 {
		return n/2 - 1
	}
	return n / 2
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "costfit:", err)
	os.Exit(1)
}
