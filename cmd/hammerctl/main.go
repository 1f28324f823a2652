// Command hammerctl applies HAMMER to measured histograms.
//
// The default (batch) mode reads one complete histogram as JSON on stdin (or
// a file) and writes the reconstructed distribution as JSON to stdout. The
// input is either {"counts": {"0101": 123, ...}} or a bare {"0101": 123, ...}
// object; values may be integer counts or probabilities.
//
//	echo '{"111": 30, "101": 40, "011": 20, "001": 10}' | hammerctl
//	hammerctl -in results.json -radius 2 -weights exp-decay
//	hammerctl -in wide.json -engine blocked -topm 4096
//
// The stream subcommand instead ingests a live shot stream — one bitstring
// per line, optionally followed by a repeat count — and emits reconstructed
// snapshots as JSON lines while the run is still in flight, every -every
// shots and once at end of stream:
//
//	quantum-backend | hammerctl stream -every 1000
//	hammerctl stream -in shots.txt -radius 3 -top 5
//
// The batch subcommand reconstructs many independent histograms — one JSON
// object per input line — concurrently against a bounded worker budget,
// emitting one reconstruction per line in input order:
//
//	hammerctl batch -in histograms.jsonl -workers 8
//
// The serve subcommand exposes the same machinery as a long-running HTTP
// JSON service: stateless reconstruction (POST /v1/reconstruct, POST
// /v1/batch — both accepting per-request "config" overrides), live streaming
// sessions (POST /v1/stream, POST /v1/stream/{id}/shots, GET/DELETE
// /v1/stream/{id}), GET /healthz, and Prometheus metrics at GET /metrics.
// Repeated identical /v1/reconstruct requests are served from an LRU result
// cache (-cache-entries; the X-Hammer-Cache response header reports hit or
// miss). The wire format is documented in docs/api.md; metrics, cache
// tuning, and capacity planning in docs/operations.md.
//
//	hammerctl serve -addr :8787 -workers 8 -max-sessions 64 -session-ttl 15m \
//	    -cache-entries 1024
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	hammer "repro"
)

// parseFlags runs fs.Parse, mapping -h/-help (which has already printed the
// usage) to a clean exit instead of an error. Neither mode takes positional
// arguments, and flag parsing stops at the first non-flag, so leftover args
// are a user mistake (e.g. `hammerctl -radius 2 stream`, flags before the
// subcommand) that must not be silently dropped.
func parseFlags(fs *flag.FlagSet, args []string) (help bool, err error) {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return true, nil
		}
		// The flag package already printed the details and usage.
		return false, fmt.Errorf("invalid arguments")
	}
	if fs.NArg() > 0 {
		return false, fmt.Errorf("unexpected argument %q (flags go after the subcommand; input comes from -in or stdin)", fs.Arg(0))
	}
	return false, nil
}

func main() {
	args := os.Args[1:]
	var err error
	switch {
	case len(args) > 0 && args[0] == "stream":
		err = runStream(args[1:], os.Stdin, os.Stdout, os.Stderr)
	case len(args) > 0 && args[0] == "serve":
		err = runServe(args[1:], os.Stdout, os.Stderr)
	case len(args) > 0 && args[0] == "batch":
		err = runBatchFile(args[1:], os.Stdin, os.Stdout, os.Stderr)
	default:
		err = runOnce(args, os.Stdin, os.Stdout, os.Stderr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hammerctl:", err)
		os.Exit(1)
	}
}

// runOnce is the classic one-histogram-in, one-reconstruction-out mode.
func runOnce(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("hammerctl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "-", "input file ('-' for stdin)")
	cfg := configFlags(fs)
	top := fs.Int("top", 0, "also print the top-K outcomes to stderr")
	if help, err := parseFlags(fs, args); help || err != nil {
		return err
	}

	histogram, err := readHistogram(*in, stdin)
	if err != nil {
		return err
	}
	out, err := hammer.RunWithConfig(histogram, *cfg)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", " ")
	if err := enc.Encode(out); err != nil {
		return err
	}
	printTop(stderr, out, *top)
	return nil
}

// runStream ingests a line-delimited shot stream and emits periodic
// snapshots as JSON lines: {"shots": N, "support": M, "dist": {...}}.
func runStream(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("hammerctl stream", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "-", "input file ('-' for stdin)")
	every := fs.Int("every", 0, "emit a snapshot every N shots (0 = only at end of stream)")
	cfg := configFlags(fs)
	top := fs.Int("top", 0, "also print the top-K outcomes of each snapshot to stderr")
	if help, err := parseFlags(fs, args); help || err != nil {
		return err
	}
	if *every < 0 {
		return fmt.Errorf("negative -every %d", *every)
	}

	var r io.Reader = stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}

	enc := json.NewEncoder(stdout)
	var s *hammer.Stream
	emitted := 0 // shot count at the last emitted snapshot
	emit := func() error {
		snap, err := s.Snapshot()
		if err != nil {
			return err
		}
		emitted = s.Shots()
		if err := enc.Encode(streamSnapshot{Shots: s.Shots(), Support: s.Support(), Dist: snap}); err != nil {
			return err
		}
		printTop(stderr, snap, *top)
		return nil
	}

	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		shot, k, ok, err := parseShotLine(scanner.Text())
		if err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
		if !ok {
			continue
		}
		if s == nil {
			// The stream width is fixed by the first shot.
			var err error
			if s, err = hammer.NewStream(len(shot), *cfg); err != nil {
				return err
			}
		}
		if err := s.IngestN(shot, k); err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
		if *every > 0 && s.Shots()/(*every) > emitted/(*every) {
			if err := emit(); err != nil {
				return err
			}
		}
	}
	if err := scanner.Err(); err != nil {
		return err
	}
	if s == nil {
		return fmt.Errorf("empty shot stream")
	}
	if s.Shots() > emitted {
		return emit()
	}
	return nil
}

// streamSnapshot is one JSON line of stream output.
type streamSnapshot struct {
	Shots   int                `json:"shots"`
	Support int                `json:"support"`
	Dist    map[string]float64 `json:"dist"`
}

// parseShotLine parses one line of a shot stream: "BITSTRING" (one shot) or
// "BITSTRING COUNT" (a repeated outcome). Blank lines and #-comments are
// skipped (ok = false).
func parseShotLine(line string) (shot string, k int, ok bool, err error) {
	if i := strings.IndexByte(line, '#'); i >= 0 {
		line = line[:i]
	}
	fields := strings.Fields(line)
	switch len(fields) {
	case 0:
		return "", 0, false, nil
	case 1:
		return fields[0], 1, true, nil
	case 2:
		k, err := strconv.Atoi(fields[1])
		if err != nil {
			return "", 0, false, fmt.Errorf("bad shot count %q", fields[1])
		}
		return fields[0], k, true, nil
	default:
		return "", 0, false, fmt.Errorf("want 'BITSTRING' or 'BITSTRING COUNT', got %q", line)
	}
}

// configFlags registers the reconstruction options shared by both modes.
func configFlags(fs *flag.FlagSet) *hammer.Config {
	cfg := &hammer.Config{}
	fs.IntVar(&cfg.Radius, "radius", 0, "max Hamming distance (0 = paper default, < n/2)")
	fs.StringVar(&cfg.Weights, "weights", "inverse-chs", "weight scheme: inverse-chs, uniform, exp-decay")
	fs.BoolVar(&cfg.DisableFilter, "no-filter", false, "disable the lower-probability-neighbor filter")
	fs.IntVar(&cfg.Workers, "workers", 0, "parallel workers (0 = all CPUs)")
	fs.IntVar(&cfg.TopM, "topm", 0, "score only the M most probable outcomes (0 = all)")
	fs.StringVar(&cfg.Engine, "engine", "auto", "scoring engine: auto, exact, blocked")
	return cfg
}

func printTop(w io.Writer, dist map[string]float64, top int) {
	if top <= 0 {
		return
	}
	type kv struct {
		K string
		V float64
	}
	entries := make([]kv, 0, len(dist))
	for k, v := range dist {
		entries = append(entries, kv{k, v})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].V != entries[j].V {
			return entries[i].V > entries[j].V
		}
		return entries[i].K < entries[j].K
	})
	if top < len(entries) {
		entries = entries[:top]
	}
	for _, e := range entries {
		fmt.Fprintf(w, "%s %.6f\n", e.K, e.V)
	}
}

func readHistogram(path string, stdin io.Reader) (map[string]float64, error) {
	var r io.Reader = stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	// Accept either {"counts": {...}} or a bare map, exactly as the HTTP
	// API does.
	return decodeHistogram(data)
}
