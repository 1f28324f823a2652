package hamming

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitstr"
	"repro/internal/dist"
)

func randomDist(n, support int, seed int64) *dist.Dist {
	rng := rand.New(rand.NewSource(seed))
	b := dist.NewBuilder(n)
	for b.Len() < support {
		b.Set(bitstr.Bits(rng.Intn(1<<uint(n))), rng.Float64())
	}
	return b.Dist().Normalize()
}

func BenchmarkSpectrum(b *testing.B) {
	d := randomDist(16, 2000, 3)
	correct := []bitstr.Bits{0, bitstr.AllOnes(16)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewSpectrum(d, correct)
	}
}

func BenchmarkEHD(b *testing.B) {
	d := randomDist(16, 2000, 5)
	correct := []bitstr.Bits{0}
	for i := 0; i < b.N; i++ {
		EHD(d, correct)
	}
}

func BenchmarkAverageCHS(b *testing.B) {
	for _, support := range []int{200, 1000} {
		d := randomDist(14, support, 7)
		b.Run(fmt.Sprintf("N=%d", support), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				AverageCHS(d, 7)
			}
		})
	}
}
