package transpile

import (
	"fmt"

	"repro/internal/bitstr"
	"repro/internal/dist"
	"repro/internal/quantum"
)

// Result is a routed circuit together with the bookkeeping needed to
// interpret its measurement outcomes.
type Result struct {
	// Circuit is the physical circuit: every two-qubit gate acts on
	// coupled qubits and RZZ is lowered to CX·RZ·CX.
	Circuit *quantum.Circuit
	// Layout maps logical qubit -> physical qubit at measurement time.
	Layout []int
	// SwapCount is the number of routing SWAPs inserted.
	SwapCount int
}

// Transpile routes a logical circuit onto the coupling map using the trivial
// initial layout (logical i on physical i) and greedy shortest-path SWAP
// insertion, then lowers RZZ to the CX+RZ basis and runs gate cancellation.
func Transpile(c *quantum.Circuit, cm *CouplingMap) *Result {
	n := c.NumQubits()
	if cm.N < n {
		panic(fmt.Sprintf("transpile: circuit needs %d qubits, device has %d", n, cm.N))
	}
	if cm.N != n {
		// Keep widths equal so measurement width matches; a larger device
		// would need ancilla handling that this reproduction doesn't use.
		panic(fmt.Sprintf("transpile: width mismatch %d vs %d (use a map of the circuit's size)", cm.N, n))
	}
	out := quantum.NewCircuit(n)
	pos := make([]int, n) // logical -> physical
	inv := make([]int, n) // physical -> logical
	for i := range pos {
		pos[i] = i
		inv[i] = i
	}
	swaps := 0
	route := func(a, b int) (int, int) { // logical operands -> physical, after routing
		pa, pb := pos[a], pos[b]
		if cm.Connected(pa, pb) {
			return pa, pb
		}
		path := cm.ShortestPath(pa, pb)
		if path == nil {
			panic(fmt.Sprintf("transpile: physical qubits %d and %d are disconnected", pa, pb))
		}
		// Swap logical a along the path until adjacent to b's position.
		for i := 0; i+2 < len(path); i++ {
			u, v := path[i], path[i+1]
			out.SWAP(u, v)
			swaps++
			lu, lv := inv[u], inv[v]
			inv[u], inv[v] = lv, lu
			pos[lu], pos[lv] = v, u
		}
		return pos[a], pos[b]
	}
	for _, g := range c.Gates() {
		switch {
		case !g.IsTwoQubit():
			out.Append(quantum.Gate{Name: g.Name, Qubits: []int{pos[g.Qubits[0]]}, Params: g.Params})
		case g.Name == quantum.GateRZZ:
			pa, pb := route(g.Qubits[0], g.Qubits[1])
			out.CX(pa, pb).RZ(pb, g.Params[0]).CX(pa, pb)
		default:
			pa, pb := route(g.Qubits[0], g.Qubits[1])
			out.Append(quantum.Gate{Name: g.Name, Qubits: []int{pa, pb}, Params: g.Params})
		}
	}
	return &Result{Circuit: Cancel(out), Layout: pos, SwapCount: swaps}
}

// RemapDist reorders the bits of a physical measurement distribution so bit
// i again refers to logical qubit i, using the final layout.
func (r *Result) RemapDist(d *dist.Dist) *dist.Dist {
	n := len(r.Layout)
	if d.NumBits() != n {
		panic(fmt.Sprintf("transpile: remap width %d vs layout %d", d.NumBits(), n))
	}
	out := dist.NewBuilder(n)
	d.Range(func(x bitstr.Bits, p float64) {
		var y bitstr.Bits
		for logical, physical := range r.Layout {
			if bitstr.Bit(x, physical) == 1 {
				y |= 1 << uint(logical)
			}
		}
		out.Add(y, p)
	})
	return out.Dist()
}

// Cancel removes adjacent self-inverse gate pairs (H·H, X·X, CX·CX on the
// same operands, etc.) repeatedly until a fixed point — the lightweight
// stand-in for the paper's "recursive compilation" CNOT minimization.
func Cancel(c *quantum.Circuit) *quantum.Circuit {
	gates := c.Gates()
	for {
		removed := false
		// lastOn[q] is the index in `kept` of the most recent gate touching q.
		kept := make([]quantum.Gate, 0, len(gates))
		lastOn := make([]int, c.NumQubits())
		for i := range lastOn {
			lastOn[i] = -1
		}
		for _, g := range gates {
			if j := cancelsWithPrev(kept, lastOn, g); j >= 0 {
				// Remove gate j; rebuild lastOn for affected qubits.
				kept = append(kept[:j], kept[j+1:]...)
				for q := range lastOn {
					lastOn[q] = -1
				}
				for idx, kg := range kept {
					for _, q := range kg.Qubits {
						lastOn[q] = idx
					}
				}
				removed = true
				continue
			}
			kept = append(kept, g)
			for _, q := range g.Qubits {
				lastOn[q] = len(kept) - 1
			}
		}
		gates = kept
		if !removed {
			break
		}
	}
	out := quantum.NewCircuit(c.NumQubits())
	for _, g := range gates {
		out.Append(g)
	}
	return out
}

// cancelsWithPrev reports the index of the kept gate that g annihilates
// with, or -1. The pair must be mutually inverse, act on the identical qubit
// list, and be the immediately preceding gate on all of g's qubits.
func cancelsWithPrev(kept []quantum.Gate, lastOn []int, g quantum.Gate) int {
	j := lastOn[g.Qubits[0]]
	if j < 0 {
		return -1
	}
	for _, q := range g.Qubits[1:] {
		if lastOn[q] != j {
			return -1
		}
	}
	prev := kept[j]
	if len(prev.Qubits) != len(g.Qubits) {
		return -1
	}
	for i := range prev.Qubits {
		if prev.Qubits[i] != g.Qubits[i] {
			return -1
		}
	}
	inv := g.Inverse()
	if inv.Name != prev.Name || len(inv.Params) != len(prev.Params) {
		return -1
	}
	for i := range inv.Params {
		if inv.Params[i] != prev.Params[i] {
			return -1
		}
	}
	return j
}
