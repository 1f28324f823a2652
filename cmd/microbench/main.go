// Command microbench runs the repository's micro-benchmark suites and writes
// each suite's report as JSON, so the perf trajectory across PRs is
// machine-readable: the BENCH_<suite>.json files at the repository root hold
// the last committed run of each.
//
//	microbench                      # every suite, into ./BENCH_<suite>.json
//	microbench -suite core -out -   # one suite's report on stdout
//
// The suites are core, shard, wal, cache, stream and batch. A report that
// carries committed floors or ceilings (core, shard, wal) is written first
// and then checked against them; a broken bound, a failed self-check or a
// failed measurement exits 1.
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"testing"

	"repro/internal/bitstr"
	"repro/internal/cost"
	"repro/internal/dist"
)

// bits is every suite's outcome width, the 20-bit shape of the paper's §6.6
// cost claims.
const bits = 20

// suite measures one report. It returns an error, never exits, so that its
// deferred cleanup runs whatever the outcome.
type suite struct {
	name string
	run  func() (any, error)
}

var suites = []suite{
	{"core", runCore},
	{"shard", runShard},
	{"wal", runWAL},
	{"cache", runCache},
	{"stream", runStream},
	{"batch", runBatch},
}

func main() {
	name := flag.String("suite", "all", "suite to run: core, shard, wal, cache, stream, batch or all")
	out := flag.String("out", "", "report file of the one -suite ('-' for stdout; default BENCH_<suite>.json)")
	flag.Parse()
	if err := run(suites, *name, *out); err != nil {
		fmt.Fprintln(os.Stderr, "microbench:", err)
		os.Exit(1)
	}
}

// run measures the named suite, or every suite for "all", writing each
// report to out (default BENCH_<suite>.json in the working directory). A
// suite that returns an error writes nothing.
func run(table []suite, name, out string) error {
	switch {
	case name == "all" && out != "":
		return errors.New("-out names one suite's report; -suite all writes BENCH_<suite>.json")
	case name != "all" && !slices.ContainsFunc(table, func(s suite) bool { return s.name == name }):
		return fmt.Errorf("unknown suite %q", name)
	}
	var errs []error
	for _, s := range table {
		if name == "all" || s.name == name {
			if err := s.emit(out); err != nil {
				errs = append(errs, fmt.Errorf("%s: %w", s.name, err))
			}
		}
	}
	return errors.Join(errs...)
}

// emit runs the suite, writes its report and checks the report's bounds.
func (s suite) emit(out string) error {
	rep, err := s.run()
	if err != nil {
		return err
	}
	if err := cost.WriteJSON(cmp.Or(out, "BENCH_"+s.name+".json"), rep); err != nil {
		return err
	}
	var broken []error
	for _, b := range bounds(rep) {
		kind, verdict := "floor", "ok"
		if b.ceiling {
			kind = "ceiling"
		}
		if !b.holds() {
			verdict = "BROKEN"
			broken = append(broken, fmt.Errorf("%s %.4g breaks its %s %.4g", b.what, b.got, kind, b.limit))
		}
		fmt.Fprintf(os.Stderr, "%s: %s %.4g (%s %.4g): %s\n", s.name, b.what, b.got, kind, b.limit, verdict)
	}
	return errors.Join(broken...)
}

// bound is one committed floor (got >= limit) or ceiling (got <= limit) that
// a report carries.
type bound struct {
	what       string
	got, limit float64
	ceiling    bool
}

func (b bound) holds() bool {
	if b.ceiling {
		return b.got <= b.limit
	}
	return b.got >= b.limit
}

// bounds lists the committed floors and ceilings a report carries; the CI
// gates re-check the same fields of the written JSON.
func bounds(rep any) []bound {
	switch r := rep.(type) {
	case *cost.CoreReport:
		var bs []bound
		for _, g := range r.Gates {
			bs = append(bs, bound{fmt.Sprintf("radius %d blocked-vs-exact speedup", g.Radius), g.Speedup, g.MinSpeedup, false})
		}
		return bs
	case *shardReport:
		return []bound{
			{"pair balance", r.PairBalance, r.MaxPairBalance, true},
			{"merge overhead fraction", r.MergeOverheadFrac, r.MaxMergeOverheadFrac, true},
		}
	case *walReport:
		return []bound{
			{"replay shots/s", r.ReplayShotsPerSec, r.MinReplayShotsPerSec, false},
			{"compaction ratio", r.CompactionRatio, r.MinCompactionRatio, false},
		}
	}
	return nil
}

// timer runs testing.Benchmark over functions that return an error instead
// of calling b.Fatal: outside `go test` the testing flags are never parsed,
// and b.Fatal dies on the nil -test.fullpath flag before printing anything.
// It keeps the first error, and every measurement after it is skipped.
type timer struct{ err error }

func (t *timer) measure(f func(b *testing.B) error) testing.BenchmarkResult {
	if t.err != nil {
		return testing.BenchmarkResult{}
	}
	return testing.Benchmark(func(b *testing.B) {
		if err := f(b); err != nil {
			t.err = err
			b.FailNow() // ends the ramp-up; unlike b.Fatal it prints nothing
		}
	})
}

// histogram is dist.Synthetic's §6.6 workload as a wire-form histogram.
func histogram(uniqueOutcomes int, seed int64) map[string]float64 {
	d := dist.Synthetic(bits, uniqueOutcomes, seed)
	h := make(map[string]float64, d.Len())
	d.Range(func(x bitstr.Bits, p float64) { h[bitstr.Format(x, bits)] = p })
	return h
}

func host() cost.Host {
	return cost.Host{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
}
