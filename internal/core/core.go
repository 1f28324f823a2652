package core

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"repro/internal/dist"
)

// WeightScheme selects how per-distance weights are derived from the global
// CHS. The paper uses InverseCHS; the others exist for the ablation studies
// motivated in §4.3.
type WeightScheme int

const (
	// InverseCHS sets W[d] = 1 / CHS_global[d], the paper's design: crowded
	// Hamming shells contribute less per neighbor.
	InverseCHS WeightScheme = iota
	// UniformWeight sets W[d] = 1 for every admitted distance (ablation:
	// no shell normalization).
	UniformWeight
	// ExpDecay sets W[d] = 2^-d (ablation: fixed geometric attenuation).
	ExpDecay
)

func (w WeightScheme) String() string {
	switch w {
	case InverseCHS:
		return "inverse-chs"
	case UniformWeight:
		return "uniform"
	case ExpDecay:
		return "exp-decay"
	default:
		return fmt.Sprintf("WeightScheme(%d)", int(w))
	}
}

// ParseWeightScheme resolves the string names the facade and CLIs accept
// ("inverse-chs" — or empty — "uniform", "exp-decay") so the vocabulary lives
// in one place.
func ParseWeightScheme(name string) (WeightScheme, error) {
	switch name {
	case "", "inverse-chs":
		return InverseCHS, nil
	case "uniform":
		return UniformWeight, nil
	case "exp-decay":
		return ExpDecay, nil
	default:
		return 0, fmt.Errorf("unknown weight scheme %q", name)
	}
}

// Options configure a reconstruction. The zero value reproduces Algorithm 1
// exactly.
type Options struct {
	// Radius is the maximum Hamming distance (inclusive) admitted into
	// neighborhood scores. Zero selects the paper's default, distances
	// d < n/2 (DefaultRadius). Negative values panic.
	Radius int

	// Weights selects the per-distance weight scheme (default InverseCHS).
	Weights WeightScheme

	// DisableFilter drops the "only lower-probability neighbors give
	// credit" filter of §4.4 (ablation).
	DisableFilter bool

	// Workers bounds the parallelism of the pairwise scoring scan. Zero
	// uses GOMAXPROCS. One gives the exact single-threaded reference
	// behavior (results are identical either way; scoring is read-only).
	Workers int

	// TopM, when positive, truncates the pairwise work to the M most
	// probable outcomes: CHS accumulation and neighborhood scoring run
	// over that subset only, while tail outcomes score as if isolated
	// (L(x) = Pr(x)², exactly Algorithm 1's behavior for an outcome with
	// no admitted neighbors). This bounds runtime at O(M²) for histograms
	// with very long tails; TopM >= N reproduces the exact algorithm.
	TopM int

	// Engine selects the pairwise scoring engine by name (see Lookup):
	// EngineAuto (or empty) picks from the cost model, EngineExact forces
	// the reference O(N²) loop, EngineBlocked forces the fused index engine
	// (EngineBucketed, its retired name, is an alias). Unknown and
	// streaming-only names flow back as errors from NewSession (the one-shot
	// Reconstruct wrapper panics on them).
	Engine string
}

// DefaultRadius returns the largest Hamming distance admitted by the paper's
// strict d < n/2 rule: n/2-1 for even n, (n-1)/2 for odd n.
func DefaultRadius(n int) int {
	if n <= 1 {
		return 0
	}
	if n%2 == 0 {
		return n/2 - 1
	}
	return n / 2
}

func (o Options) radius(n int) int {
	if o.Radius < 0 {
		panic(fmt.Sprintf("core: negative radius %d", o.Radius))
	}
	if o.Radius == 0 {
		return DefaultRadius(n)
	}
	if o.Radius > n {
		return n
	}
	return o.Radius
}

// EffectiveRadius resolves the radius these options admit on an n-bit
// problem: the configured radius clamped to n, or the paper's default when
// unset. It is the radius a Reconstruct with these options will report — and
// the one cost predictions must be computed at, since the admitted-pair
// fraction depends on it. Negative radii (rejected by validation) panic.
func (o Options) EffectiveRadius(n int) int { return o.radius(n) }

// Result carries the reconstructed distribution together with the
// intermediate quantities that the paper's Fig. 7 walkthrough plots and the
// experiment drivers report.
type Result struct {
	// Out is the reconstructed, normalized distribution.
	Out *dist.Dist
	// GlobalCHS[d] is the pairwise-accumulated Hamming strength at
	// distance d (Algorithm 1, step 1).
	GlobalCHS []float64
	// Weights[d] is the per-distance weight (step 2).
	Weights []float64
	// Radius is the maximum admitted Hamming distance actually used.
	Radius int
	// Engine names the scoring engine that ran ("exact" or "blocked").
	Engine string
}

// Reconstruct applies HAMMER with the given options and returns the full
// result. The input distribution is not modified; it is treated as already
// normalized (Counts.Dist output qualifies).
//
// It is the one-shot convenience form of a Session: a fresh session is built
// and discarded per call, so the result is independently owned. Invalid
// options and empty inputs panic, preserving the historical contract; the
// session and facade paths surface the same conditions as errors. Repeated
// reconstructions should hold a Session (or go through the scheduler) to
// reuse the scratch state this form throws away.
func Reconstruct(in *dist.Dist, opts Options) *Result {
	s, err := NewSession(opts)
	if err != nil {
		panic(err)
	}
	res, err := s.Reconstruct(context.Background(), in)
	if err != nil {
		panic(err)
	}
	return res
}

// Run is the convenience form of Reconstruct: default options, returning
// only the reconstructed distribution.
func Run(in *dist.Dist) *dist.Dist {
	return Reconstruct(in, Options{}).Out
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// weights derives the per-distance weight vector from the global CHS
// (Algorithm 1, step 2). All engines share it; weightsInto is the
// buffer-reusing form the batch engines call with scratch state.
func weights(chs []float64, maxD int, scheme WeightScheme) []float64 {
	return weightsInto(make([]float64, maxD+1), chs, maxD, scheme)
}

func weightsInto(w, chs []float64, maxD int, scheme WeightScheme) []float64 {
	for d := 0; d <= maxD; d++ {
		switch scheme {
		case InverseCHS:
			w[d] = 0
			if chs[d] > 0 {
				w[d] = 1 / chs[d]
			}
		case UniformWeight:
			w[d] = 1
		case ExpDecay:
			// Exactly 2^-d; 1/float64(1<<d) divided by zero at d = 64.
			w[d] = math.Ldexp(1, -d)
		default:
			panic(fmt.Sprintf("core: unknown weight scheme %d", scheme))
		}
	}
	return w
}
