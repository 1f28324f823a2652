// Package hammer is the public API of this HAMMER reproduction (Tannu, Das,
// Ayanzadeh, Qureshi — "HAMMER: Boosting Fidelity of Noisy Quantum Circuits
// by Exploiting Hamming Behavior of Erroneous Outcomes", ASPLOS 2022).
//
// HAMMER is a post-processing pass over the measured output histogram of a
// noisy quantum program. It exploits the empirical observation that
// erroneous outcomes cluster at short Hamming distance around correct ones:
// every outcome's probability is rescaled by a neighborhood score derived
// from the Cumulative Hamming Strength of its Hamming shells, which boosts
// outcomes backed by a rich low-probability neighborhood and hammers down
// isolated or spurious ones.
//
// The facade works on plain string-keyed histograms so callers need nothing
// from the internal packages:
//
//	counts := map[string]int{"1111": 812, "1110": 403, ...} // from any backend
//	fixed, err := hammer.RunCounts(counts)
//	// fixed["1111"] is now (typically) the top outcome.
//
// Simulation, noise modelling, benchmark circuits, and the paper's full
// experiment suite live under internal/ and are exercised by cmd/figures,
// the examples, and the root benchmarks.
package hammer

import (
	"context"
	"fmt"

	"repro/internal/bitstr"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/hamming"
	"repro/internal/metrics"
)

// Config tunes the reconstruction. The zero value reproduces Algorithm 1
// from the paper exactly.
type Config struct {
	// Radius is the largest Hamming distance admitted into neighborhood
	// scores; 0 selects the paper's default (< n/2).
	Radius int
	// Weights selects the per-distance weight scheme: "inverse-chs" (the
	// paper's design, default), "uniform", or "exp-decay".
	Weights string
	// DisableFilter drops the lower-probability-neighbors-only filter
	// (ablation).
	DisableFilter bool
	// Workers bounds parallelism of the pairwise scoring scan (0 = all
	// CPUs).
	Workers int
	// TopM, when positive, truncates the pairwise work to the M most
	// probable outcomes; the tail scores as isolated (L(x) = Pr(x)²).
	// This bounds runtime at O(M²) on histograms with very long tails.
	// Zero (the default) scores every outcome.
	TopM int
	// Engine selects the scoring engine: "auto" (default — the exact loop
	// for small supports, the blocked engine otherwise), "exact" (the
	// reference O(N²) loop), or "blocked" (one fused pass over the
	// rank-ordered index, scanning the bit-packed weight window or, at
	// small radii, the block multi-index — whichever visits fewer pairs).
	// "bucketed", the retired name of blocked's predecessor, is accepted as
	// an alias of "blocked". All engines produce the same reconstruction up
	// to float64 rounding.
	Engine string
}

// options maps the public configuration onto core options. Weight-scheme
// names are resolved here (they are a facade-level vocabulary); everything
// else — radius and TopM signs, engine names against the registry — is
// validated once by core.NewSession, the single validation point every facade
// path flows through.
func (c Config) options() (core.Options, error) {
	opts := core.Options{
		Radius:        c.Radius,
		DisableFilter: c.DisableFilter,
		Workers:       c.Workers,
		TopM:          c.TopM,
		Engine:        c.Engine,
	}
	scheme, err := core.ParseWeightScheme(c.Weights)
	if err != nil {
		return opts, fmt.Errorf("hammer: %w", err)
	}
	opts.Weights = scheme
	return opts, nil
}

// Run applies HAMMER to a probability histogram keyed by bitstrings (most
// significant qubit first). All keys must share one length; values must be
// non-negative with positive total. The result is the reconstructed,
// normalized distribution over the same outcomes.
func Run(histogram map[string]float64) (map[string]float64, error) {
	return RunWithConfig(histogram, Config{})
}

// RunCounts is Run for integer shot counts, the raw form quantum backends
// return. Every count must be positive: a backend never reports an outcome
// it did not observe, so zero or negative entries indicate a corrupted
// histogram and are rejected. (The float Run path still accepts zero-mass
// outcomes — "observed with vanishing likelihood" — which arise from
// analysis pipelines rather than raw counts.)
func RunCounts(counts map[string]int) (map[string]float64, error) {
	h := make(map[string]float64, len(counts))
	for k, v := range counts {
		if v <= 0 {
			return nil, fmt.Errorf("hammer: non-positive count %d for %q", v, k)
		}
		h[k] = float64(v)
	}
	return Run(h)
}

// RunWithConfig applies HAMMER with explicit options. It is a thin wrapper
// over a single-use Reconstructor; callers reconstructing repeatedly should
// hold a Reconstructor (or use RunBatch) to reuse the per-request state this
// form rebuilds every call.
func RunWithConfig(histogram map[string]float64, cfg Config) (map[string]float64, error) {
	r, err := NewReconstructor(cfg)
	if err != nil {
		return nil, err
	}
	return r.Reconstruct(context.Background(), histogram)
}

// PST returns the Probability of a Successful Trial (Eq. 3): the total
// probability mass on the correct outcome set.
func PST(histogram map[string]float64, correct []string) (float64, error) {
	d, n, err := toDist(histogram)
	if err != nil {
		return 0, err
	}
	cs, err := parseCorrect(correct, n)
	if err != nil {
		return 0, err
	}
	return metrics.PST(d, cs), nil
}

// IST returns the Inference Strength (Eq. 4): best correct probability over
// the most frequent incorrect probability. Values above 1 mean the correct
// answer can be read directly off the histogram.
func IST(histogram map[string]float64, correct []string) (float64, error) {
	d, n, err := toDist(histogram)
	if err != nil {
		return 0, err
	}
	cs, err := parseCorrect(correct, n)
	if err != nil {
		return 0, err
	}
	return metrics.IST(d, cs), nil
}

// EHD returns the Expected Hamming Distance (§3.3) of the histogram from
// the correct outcome set: 0 for a perfect output, approaching n/2 for
// uniform noise.
func EHD(histogram map[string]float64, correct []string) (float64, error) {
	d, n, err := toDist(histogram)
	if err != nil {
		return 0, err
	}
	cs, err := parseCorrect(correct, n)
	if err != nil {
		return 0, err
	}
	return hamming.EHD(d, cs), nil
}

// Spectrum returns the Hamming spectrum of the histogram: element k is the
// total probability of outcomes at minimum Hamming distance k from the
// correct set (length n+1).
func Spectrum(histogram map[string]float64, correct []string) ([]float64, error) {
	d, n, err := toDist(histogram)
	if err != nil {
		return nil, err
	}
	cs, err := parseCorrect(correct, n)
	if err != nil {
		return nil, err
	}
	return hamming.NewSpectrum(d, cs).Bins, nil
}

// toDist parses a histogram through the shared dist-layer converter (also
// used by the scheduler-backed serving paths), attaching the facade's error
// prefix.
func toDist(histogram map[string]float64) (*dist.Dist, int, error) {
	d, n, err := dist.FromHistogram(histogram)
	if err != nil {
		return nil, 0, fmt.Errorf("hammer: %w", err)
	}
	return d, n, nil
}

func parseCorrect(correct []string, n int) ([]bitstr.Bits, error) {
	if len(correct) == 0 {
		return nil, fmt.Errorf("hammer: empty correct set")
	}
	out := make([]bitstr.Bits, 0, len(correct))
	for _, s := range correct {
		if len(s) != n {
			return nil, fmt.Errorf("hammer: correct outcome %q has %d bits, histogram has %d",
				s, len(s), n)
		}
		x, err := bitstr.Parse(s)
		if err != nil {
			return nil, err
		}
		out = append(out, x)
	}
	return out, nil
}
