// Package baselines implements the post-processing comparators the paper
// positions HAMMER against (§8): an Ensemble-of-Diverse-Mappings scheme in
// the spirit of EDM/VERITAS (refs [34, 42]) that merges outputs from several
// qubit mappings so correlated errors decorrelate, the readout-mitigation
// baseline (package readout), and the composition of either with HAMMER —
// which the paper argues is complementary ("HAMMER ... is compatible with
// all of these policies").
package baselines

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"

	"repro/internal/bitstr"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/noise"
	"repro/internal/quantum"
	"repro/internal/readout"
	"repro/internal/transpile"
)

// MergeMode selects how ensemble member distributions are combined.
type MergeMode int

const (
	// MergeMean averages member probabilities (EDM's basic combiner).
	MergeMean MergeMode = iota
	// MergeGeo multiplies member probabilities per outcome and
	// renormalizes: outcomes must be supported by *every* mapping, which
	// suppresses mapping-specific correlated errors harder.
	MergeGeo
)

func (m MergeMode) String() string {
	switch m {
	case MergeMean:
		return "mean"
	case MergeGeo:
		return "geometric"
	default:
		return fmt.Sprintf("MergeMode(%d)", int(m))
	}
}

// Merge combines ensemble member distributions over the same width.
func Merge(members []*dist.Dist, mode MergeMode) *dist.Dist {
	if len(members) == 0 {
		panic("baselines: merge of empty ensemble")
	}
	n := members[0].NumBits()
	for _, m := range members[1:] {
		if m.NumBits() != n {
			panic("baselines: ensemble width mismatch")
		}
	}
	out := dist.NewBuilder(n)
	switch mode {
	case MergeMean:
		w := 1 / float64(len(members))
		for _, m := range members {
			m.Range(func(x bitstr.Bits, p float64) { out.Add(x, w*p) })
		}
	case MergeGeo:
		// Geometric mean over the union support; outcomes missing from any
		// member get zero. The support is walked in ascending order, so the
		// total the merge normalizes by is summed in a fixed order.
		support := map[bitstr.Bits]bool{}
		for _, m := range members {
			m.Range(func(x bitstr.Bits, _ float64) { support[x] = true })
		}
		inv := 1 / float64(len(members))
		for _, x := range slices.Sorted(maps.Keys(support)) {
			logp := 0.0
			ok := true
			for _, m := range members {
				p := m.Prob(x)
				if p <= 0 {
					ok = false
					break
				}
				logp += math.Log(p)
			}
			if ok {
				out.Set(x, math.Exp(logp*inv))
			}
		}
		if out.Len() == 0 {
			// Degenerate: no common support; fall back to the mean merge.
			return Merge(members, MergeMean)
		}
	default:
		panic(fmt.Sprintf("baselines: unknown merge mode %d", mode))
	}
	return out.Dist().Normalize()
}

// DiverseMappings executes the logical circuit under `k` different qubit
// layouts (random relabelings routed onto the coupling map) on the same
// device and merges the remapped outputs. Each mapping sees different
// correlated-error masks (fresh calibration draw per layout), which is the
// EDM mechanism: dissimilar mistakes cancel, shared structure survives.
func DiverseMappings(c *quantum.Circuit, cm *transpile.CouplingMap,
	dev *noise.DeviceModel, seed int64, k int, mode MergeMode) *dist.Dist {
	if k < 1 {
		panic(fmt.Sprintf("baselines: ensemble size %d < 1", k))
	}
	n := c.NumQubits()
	members := make([]*dist.Dist, 0, k)
	for i := 0; i < k; i++ {
		rng := rand.New(rand.NewSource(seed + int64(i)*7907))
		perm := rng.Perm(n)
		relabeled := permuteCircuit(c, perm)
		routed := transpile.Transpile(relabeled, cm)
		noisy := noise.ExecuteDist(routed.Circuit, dev, seed+int64(i)*104729)
		remapped := routed.RemapDist(noisy)
		members = append(members, unpermuteDist(remapped, perm))
	}
	return Merge(members, mode)
}

// permuteCircuit relabels logical qubits: qubit q becomes perm[q].
func permuteCircuit(c *quantum.Circuit, perm []int) *quantum.Circuit {
	out := quantum.NewCircuit(c.NumQubits())
	for _, g := range c.Gates() {
		qs := make([]int, len(g.Qubits))
		for i, q := range g.Qubits {
			qs[i] = perm[q]
		}
		out.Append(quantum.Gate{Name: g.Name, Qubits: qs, Params: g.Params})
	}
	return out
}

// unpermuteDist undoes the relabeling on measured outcomes: bit perm[q] of
// the measured string is bit q of the logical outcome.
func unpermuteDist(d *dist.Dist, perm []int) *dist.Dist {
	n := d.NumBits()
	out := dist.NewBuilder(n)
	d.Range(func(x bitstr.Bits, p float64) {
		var y bitstr.Bits
		for q, pq := range perm {
			if bitstr.Bit(x, pq) == 1 {
				y |= 1 << uint(q)
			}
		}
		out.Add(y, p)
	})
	return out.Dist()
}

// Pipeline names a post-processing chain applied to a measured distribution.
type Pipeline struct {
	Name  string
	Apply func(*dist.Dist) *dist.Dist
}

// StandardPipelines returns the comparator set used by the baseline-
// comparison experiment: no post-processing, readout mitigation alone,
// HAMMER alone, and readout mitigation followed by HAMMER (the paper's
// "compatible with all of these policies" composition). The calibration
// must match the device the distribution came from.
func StandardPipelines(cal *readout.Calibration) []Pipeline {
	return []Pipeline{
		{Name: "baseline", Apply: func(d *dist.Dist) *dist.Dist { return d }},
		{Name: "readout-mitigation", Apply: func(d *dist.Dist) *dist.Dist {
			return readout.Mitigate(d, cal)
		}},
		{Name: "hammer", Apply: core.Run},
		{Name: "readout+hammer", Apply: func(d *dist.Dist) *dist.Dist {
			return core.Run(readout.Mitigate(d, cal))
		}},
	}
}
