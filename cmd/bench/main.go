package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

const (
	// fullRounds is the round count per workload without -workload.
	fullRounds = 5
	// setupSamples is the least number of server starts a run times per
	// workload; starts beyond the rounds' own are set-up probes.
	setupSamples = 31
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the parsed command line.
type options struct {
	root     string
	seed     uint64
	workload string
	seconds  float64
	trace    string
	out      string
	// build holds the server binary and journals while the run lasts;
	// empty means root/.bench_build.
	build string
	// scale shrinks every round's work; tests set it, the command line
	// cannot.
	scale float64
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.root, "root", ".", "repository root to build cmd/hammerctl from")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed: the same seed gives the same request bodies")
	fs.StringVar(&o.workload, "workload", "", "run only this workload for -seconds and end with a one-line JSON result")
	fs.Float64Var(&o.seconds, "seconds", 12, "with -workload, measured seconds: rounds run until their timed windows add up to this")
	fs.StringVar(&o.trace, "trace", "0", "0: measured run only; 1: also replay in process with spans and report per-layer metrics; a file name: as 1, and write the spans there")
	fs.StringVar(&o.out, "out", "", "write the results as JSON to this file")
	compare := fs.Bool("compare", false, "compare result files: -compare a.json... -- b.json...")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *compare {
		return runCompare(fs.Args(), stdout, stderr)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	o.scale = 1
	code, err := measureRun(o, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return code
}

// runCompare loads the result files on each side of "--" and prints the
// comparison; it fails when a row regressed.
func runCompare(args []string, stdout, stderr io.Writer) int {
	i := slices.Index(args, "--")
	if i < 1 || i == len(args)-1 {
		fmt.Fprintln(stderr, "bench: usage: -compare a.json... -- b.json...")
		return 2
	}
	var sides [2][]*report
	for s, files := range [2][]string{args[:i], args[i+1:]} {
		for _, f := range files {
			rep, err := readReport(f)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			sides[s] = append(sides[s], rep)
		}
	}
	if compareReports(stdout, sides[0], sides[1]) > 0 {
		return 1
	}
	return 0
}

// measureRun builds the server, runs the measured rounds (and with -trace
// the replay), prints the results and returns the exit code: 1 when an
// output check or workload assertion failed.
func measureRun(o options, stdout, stderr io.Writer) (int, error) {
	runtime.GOMAXPROCS(clients)
	ws := workloads
	if o.workload != "" {
		w, err := lookupWorkload(o.workload)
		if err != nil {
			return 0, err
		}
		ws = []workload{w}
	}
	root, err := filepath.Abs(o.root)
	if err != nil {
		return 0, err
	}
	build := o.build
	if build == "" {
		build = filepath.Join(root, ".bench_build")
	}
	if err := os.MkdirAll(build, 0o755); err != nil {
		return 0, err
	}
	work, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(work)
	bin, err := buildServer(root, work)
	if err != nil {
		return 0, err
	}
	r := &runner{bin: bin, work: work, scale: o.scale, refs: newOracle()}
	var ins []*inputs
	for _, w := range ws {
		in := generate(w, o.seed, o.scale)
		if in.stream != nil {
			if err := r.seedJournal(in.stream); err != nil {
				return 0, fmt.Errorf("seed journal: %w", err)
			}
		}
		ins = append(ins, in)
	}
	rounds := fullRounds
	if o.workload != "" {
		rounds = 0
	}
	rep, err := r.measureAll(ins, rounds, o.seconds, o.seed, stderr)
	if err != nil {
		return 0, err
	}
	traced := o.trace != "" && o.trace != "0"
	if traced {
		spans := map[string][]span{}
		for _, in := range ins {
			if spans[in.w.name], err = r.traceWorkload(in, rep.Workloads[in.w.name], stderr); err != nil {
				return 0, fmt.Errorf("trace %s: %w", in.w.name, err)
			}
		}
		if o.trace != "1" {
			if err := writeSpans(o.trace, spans); err != nil {
				return 0, err
			}
		}
	}
	table := stdout
	if o.workload != "" {
		table = stderr
	}
	printTable(table, rep, ws)
	if o.out != "" {
		if err := writeReport(o.out, rep); err != nil {
			return 0, err
		}
	}
	code := 0
	for _, res := range rep.Workloads {
		if len(res.Problems) > 0 {
			code = 1
		}
	}
	if o.workload != "" {
		l, err := line(rep.Workloads[o.workload], traced)
		if err != nil {
			return 0, err
		}
		fmt.Fprintf(stdout, "%s\n", l)
	}
	return code, nil
}

// measureAll runs the rounds. With rounds > 0 every workload runs that many;
// otherwise each runs rounds until its timed windows add up to seconds.
// Rounds interleave across workloads, and the start order rotates each
// round. Set-up probes then top every workload up to setupSamples timed
// server starts.
func (r *runner) measureAll(ins []*inputs, rounds int, seconds float64, seed uint64, log io.Writer) (*report, error) {
	results := make([][]*roundResult, len(ins))
	setups := make([][]setupSample, len(ins))
	measured := make([]time.Duration, len(ins))
	for round := 0; ; round++ {
		ran := false
		for j := range ins {
			k := (j + round) % len(ins)
			if rounds > 0 && round >= rounds || rounds == 0 && round > 0 && measured[k].Seconds() >= seconds {
				continue
			}
			ran = true
			rr, err := r.round(ins[k])
			if err != nil {
				return nil, err
			}
			results[k] = append(results[k], rr)
			setups[k] = append(setups[k], rr.start)
			measured[k] += rr.elapsed
			fmt.Fprintf(log, "%s round %d: %d/%d ok in %.2fs, host slowdown %.2f, setup %.1fms\n",
				ins[k].w.name, round+1, rr.ok, rr.attempted, rr.elapsed.Seconds(), 1/rr.f, ms(rr.start.d))
		}
		if !ran {
			break
		}
	}
	rep := &report{Seed: seed, Workloads: map[string]*workloadResult{}}
	for k, in := range ins {
		for len(setups[k]) < scaled(setupSamples, r.scale) {
			s, err := r.setupProbe(in)
			if err != nil {
				return nil, err
			}
			setups[k] = append(setups[k], s)
		}
		rep.Workloads[in.w.name] = aggregate(in.w, results[k], setups[k])
	}
	return rep, nil
}
