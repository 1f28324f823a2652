package transpile

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitstr"
	"repro/internal/circuits"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/qaoa"
)

func BenchmarkTranspileBVOnChain(b *testing.B) {
	for _, n := range []int{8, 12, 15} {
		c := circuits.BV(n, bitstr.AllOnes(n))
		cm := Linear(n + 1)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Transpile(c, cm)
			}
		})
	}
}

func BenchmarkTranspileQAOAHeavyHex(b *testing.B) {
	g := graph.GridFor(12)
	c := qaoa.Build(g, qaoa.RampParams(2))
	cm := HeavyHexLike(12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Transpile(c, cm)
	}
}

// BenchmarkRemapDist remaps a full-support 16-bit distribution through a
// random layout. The remapped outcomes arrive in no particular order, so
// this guards the random-order build against a quadratic path.
func BenchmarkRemapDist(b *testing.B) {
	const n = 16
	d := dist.Synthetic(n, 1<<n, 1)
	r := &Result{Layout: rand.New(rand.NewSource(2)).Perm(n)}
	b.Run(fmt.Sprint(d.Len()), func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if r.RemapDist(d).Len() != d.Len() {
				b.Fatal("support changed")
			}
		}
	})
}
