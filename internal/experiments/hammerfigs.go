package experiments

import (
	"fmt"

	"repro/internal/bitstr"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/hamming"
	"repro/internal/metrics"
	"repro/internal/noise"
)

// Fig7Result is the BV-10 HAMMER walkthrough of Fig. 7: CHS vectors, the
// derived weights, per-bin scores, and the before/after probability gap
// between the correct key and the most frequent incorrect outcome.
type Fig7Result struct {
	Qubits       int
	Key          bitstr.Bits
	TopIncorrect bitstr.Bits
	Radius       int

	CHSCorrect []float64
	CHSTopInc  []float64
	CHSAverage []float64
	Weights    []float64

	PBeforeKey, PBeforeTop float64
	PAfterKey, PAfterTop   float64
	GapBefore, GapAfter    float64
}

// Fig7 runs the walkthrough.
func Fig7(cfg Config) *Fig7Result {
	n := 10
	if cfg.Quick {
		n = 8
	}
	key := bitstr.AllOnes(n)
	inst := &dataset.Instance{ID: "fig7", Kind: dataset.KindBV, Qubits: n,
		Secret: key, Seed: cfg.Seed}
	run := dataset.Execute(inst, noise.IBMParisLike(), cfg.Shots)
	in := run.Noisy
	rec := core.Reconstruct(in, core.Options{})

	res := &Fig7Result{Qubits: n, Key: key, Radius: rec.Radius,
		Weights: rec.Weights}
	for _, e := range in.TopK(in.Len()) {
		if e.X != key {
			res.TopIncorrect = e.X
			break
		}
	}
	res.CHSCorrect = hamming.CHS(in, key, rec.Radius)
	res.CHSTopInc = hamming.CHS(in, res.TopIncorrect, rec.Radius)
	res.CHSAverage = hamming.AverageCHS(in, rec.Radius)
	res.PBeforeKey, res.PBeforeTop = in.Prob(key), in.Prob(res.TopIncorrect)
	res.PAfterKey, res.PAfterTop = rec.Out.Prob(key), rec.Out.Prob(res.TopIncorrect)
	res.GapBefore = res.PBeforeKey / res.PBeforeTop
	res.GapAfter = res.PAfterKey / res.PAfterTop
	return res
}

// Table renders the walkthrough.
func (r *Fig7Result) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Fig 7: HAMMER walkthrough on BV-%d", r.Qubits),
		Header: []string{"bin", "CHS(correct)", "CHS(top-incorrect)",
			"CHS(average)", "weight"},
	}
	for k := 0; k <= r.Radius; k++ {
		t.AddRow(fmt.Sprintf("%d", k), f4(r.CHSCorrect[k]), f4(r.CHSTopInc[k]),
			f4(r.CHSAverage[k]), f4(r.Weights[k]))
	}
	t.AddNote("correct %s: p %.4f -> %.4f", bitstr.Format(r.Key, r.Qubits),
		r.PBeforeKey, r.PAfterKey)
	t.AddNote("top incorrect %s: p %.4f -> %.4f",
		bitstr.Format(r.TopIncorrect, r.Qubits), r.PBeforeTop, r.PAfterTop)
	t.AddNote("correct/top-incorrect gap: %.3f -> %.3f", r.GapBefore, r.GapAfter)
	return t
}

// Fig8Row is one BV circuit's outcome in the Fig. 8 campaign.
type Fig8Row struct {
	ID      string
	Device  string
	Qubits  int
	PSTBase float64
	PSTHam  float64
	ISTBase float64
	ISTHam  float64
}

// Fig8Result aggregates the BV campaign across devices.
type Fig8Result struct {
	Rows                   []Fig8Row
	GmeanPST, GmeanIST     float64
	MaxPSTGain, MaxISTGain float64
}

// Fig8 runs the paper's Fig. 8 evaluation: BV circuits of 5-15 qubits across
// three simulated IBM machines, reporting PST and IST improvement from
// HAMMER.
func Fig8(cfg Config) *Fig8Result {
	maxN := 15
	if cfg.Quick {
		maxN = 8
	}
	res := &Fig8Result{}
	var pstIms, istIms []metrics.Improvement
	for di, dev := range noise.Devices() {
		suite := dataset.BVSuite(cfg.Seed+int64(di), maxN)
		for _, inst := range suite.Instances {
			run := dataset.Execute(inst, dev, cfg.Shots)
			out := core.Run(run.Noisy)
			row := Fig8Row{
				ID: inst.ID, Device: dev.Name, Qubits: inst.Qubits,
				PSTBase: metrics.PST(run.Noisy, run.Correct),
				PSTHam:  metrics.PST(out, run.Correct),
				ISTBase: metrics.IST(run.Noisy, run.Correct),
				ISTHam:  metrics.IST(out, run.Correct),
			}
			res.Rows = append(res.Rows, row)
			if row.PSTBase > 0 {
				pstIms = append(pstIms, metrics.Improvement{Base: row.PSTBase, Treated: row.PSTHam})
			}
			if row.ISTBase > 0 {
				istIms = append(istIms, metrics.Improvement{Base: row.ISTBase, Treated: row.ISTHam})
			}
		}
	}
	res.GmeanPST = metrics.GeoMeanRatio(pstIms)
	res.GmeanIST = metrics.GeoMeanRatio(istIms)
	res.MaxPSTGain = metrics.MaxRatio(pstIms)
	res.MaxISTGain = metrics.MaxRatio(istIms)
	return res
}

// Table renders the campaign summary (per-size aggregation keeps it short).
func (r *Fig8Result) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Fig 8: HAMMER on %d BV circuits across 3 devices", len(r.Rows)),
		Header: []string{"qubits", "circuits", "mean PST base", "mean PST HAMMER",
			"mean IST base", "mean IST HAMMER"},
	}
	bySize := map[int][]Fig8Row{}
	var sizes []int
	for _, row := range r.Rows {
		if _, ok := bySize[row.Qubits]; !ok {
			sizes = append(sizes, row.Qubits)
		}
		bySize[row.Qubits] = append(bySize[row.Qubits], row)
	}
	for _, n := range sizes {
		rows := bySize[n]
		var pb, ph, ib, ih float64
		for _, row := range rows {
			pb += row.PSTBase
			ph += row.PSTHam
			ib += row.ISTBase
			ih += row.ISTHam
		}
		c := float64(len(rows))
		t.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%d", len(rows)),
			f3(pb/c), f3(ph/c), f3(ib/c), f3(ih/c))
	}
	t.AddNote("gmean PST improvement %s (paper: 1.38x), max %s (paper: up to 2x)",
		f2x(r.GmeanPST), f2x(r.MaxPSTGain))
	t.AddNote("gmean IST improvement %s (paper: 1.74x), max %s (paper: up to 5x)",
		f2x(r.GmeanIST), f2x(r.MaxISTGain))
	return t
}

// Table3Result wraps the §6.6 complexity model.
type Table3Result struct {
	Rows []core.Table3Row
}

// Table3 reproduces the operation-count table.
func Table3(cfg Config) *Table3Result {
	return &Table3Result{Rows: core.Table3(
		[]int{32768, 262144}, []float64{0.10, 1.00})}
}

// Table renders it.
func (r *Table3Result) Table() *Table {
	t := &Table{
		Title:  "Table 3: HAMMER operation counts (2N²+2N model, n-independent)",
		Header: []string{"trials", "unique", "outcomes N", "billion ops"},
	}
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprintf("%d", row.Trials),
			fmt.Sprintf("%.0f%%", row.UniqueFraction*100),
			fmt.Sprintf("%d", row.UniqueOutcomes), f4(row.BillionOps))
	}
	t.AddNote("memory for 500 qubits: %d bytes (paper: < 1 MB)", core.MemoryBytes(500))
	t.AddNote("paper's 32K/10%% cell (0.001 B) is inconsistent with its own 2N²+2N model (~0.02 B); see EXPERIMENTS.md")
	return t
}
