// Command qasmrun executes an OpenQASM 2.0 circuit on a simulated noisy
// device and emits the measured histogram as JSON — optionally post-
// processed with HAMMER and scored against a known correct outcome.
//
//	qasmrun -in bell.qasm -device ibm-paris -shots 8192
//	qasmrun -in bv.qasm -hammer -correct 10110101
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"math/rand"

	"repro/internal/bitstr"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/hamming"
	"repro/internal/metrics"
	"repro/internal/noise"
	"repro/internal/qasm"
	"repro/internal/quantum"
	"repro/internal/transpile"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "qasmrun:", err)
		os.Exit(1)
	}
}

// run is the testable CLI body: flags in, JSON histogram on stdout, the
// optional metrics report on stderr, failures as errors.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("qasmrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "-", "QASM file ('-' for stdin)")
	device := fs.String("device", "ibm-paris", "device preset: ibm-paris, ibm-manhattan, ibm-toronto, sycamore, noiseless")
	shots := fs.Int("shots", 8192, "trials (0 = infinite-shot limit)")
	seed := fs.Int64("seed", 1, "noise/sampling seed")
	applyHammer := fs.Bool("hammer", false, "post-process with HAMMER")
	engine := fs.String("engine", "auto", "HAMMER scoring engine: auto, exact, blocked")
	correct := fs.String("correct", "", "known correct outcome (enables PST/IST/EHD report on stderr)")
	route := fs.Bool("route", true, "route onto a heavy-hex-like coupling before execution")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return fmt.Errorf("invalid arguments")
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (input comes from -in or stdin)", fs.Arg(0))
	}

	circuit, err := parseInput(*in, stdin)
	if err != nil {
		return err
	}
	dev, err := deviceFor(*device)
	if err != nil {
		return err
	}

	var out *dist.Dist
	switch {
	case dev == nil:
		out = quantum.Run(circuit).Probabilities().Sparse(1e-12)
	case *route:
		routed := transpile.Transpile(circuit, transpile.HeavyHexLike(circuit.NumQubits()))
		out = routed.RemapDist(noise.ExecuteDist(routed.Circuit, dev, *seed))
	default:
		out = noise.ExecuteDist(circuit, dev, *seed)
	}
	if *shots > 0 {
		out = out.Sample(rand.New(rand.NewSource(*seed+1)), *shots).Dist()
	}
	if *applyHammer {
		// The session path folds engine validation into the reconstruction:
		// unknown names come back as errors from the registry, the single
		// place that knows the accepted set.
		sess, err := core.NewSession(core.Options{Engine: *engine})
		if err != nil {
			return err
		}
		res, err := sess.Reconstruct(context.Background(), out)
		if err != nil {
			return err
		}
		out = res.Out
	}

	n := circuit.NumQubits()
	hist := make(map[string]float64, out.Len())
	out.Range(func(x bitstr.Bits, p float64) { hist[bitstr.Format(x, n)] = p })
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", " ")
	if err := enc.Encode(hist); err != nil {
		return err
	}

	if *correct != "" {
		key, err := bitstr.Parse(*correct)
		if err != nil {
			return err
		}
		if len(*correct) != n {
			return fmt.Errorf("correct outcome has %d bits, circuit has %d", len(*correct), n)
		}
		cs := []bitstr.Bits{key}
		fmt.Fprintf(stderr, "PST %.4f  IST %.4f  EHD %.4f\n",
			metrics.PST(out, cs), metrics.IST(out, cs), hamming.EHD(out, cs))
	}
	return nil
}

func parseInput(path string, stdin io.Reader) (*quantum.Circuit, error) {
	r := stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	return qasm.Parse(r)
}

func deviceFor(name string) (*noise.DeviceModel, error) {
	switch name {
	case "ibm-paris":
		return noise.IBMParisLike(), nil
	case "ibm-manhattan":
		return noise.IBMManhattanLike(), nil
	case "ibm-toronto":
		return noise.IBMTorontoLike(), nil
	case "sycamore":
		return noise.SycamoreLike(), nil
	case "noiseless":
		return nil, nil
	default:
		return nil, fmt.Errorf("unknown device %q", name)
	}
}
