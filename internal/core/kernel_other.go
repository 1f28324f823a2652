//go:build !amd64

package core

// useAVX512 is false off amd64: the AVX-512 bodies are amd64 assembly, and
// the Go loops run everywhere else.
var useAVX512 = false

func nextWithinAVX512(x uint64, words []uint64, maxD int) int {
	panic("core: nextWithinAVX512 is amd64 assembly")
}

func compactAsm(x uint64, words []uint64, maxD uint, hits []uint32) int {
	panic("core: compactAsm is amd64 assembly")
}
