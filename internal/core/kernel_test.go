package core

import (
	"bufio"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// eachKernel runs f with the bodies the package chose at init and, on an
// AVX-512 host, again with the Go loops, restoring the choice afterwards.
func eachKernel(f func(kernel string)) {
	chosen := useAVX512
	defer func() { useAVX512 = chosen }()
	f(ScanKernel())
	if chosen {
		useAVX512 = false
		f(ScanKernel())
	}
}

// TestKernelsMatchGoLoops checks each assembly body against the Go loop it
// replaces: nextWithin must return the same index, compact the same count
// and the same records. Words mix x itself, single-bit flips of x and
// random values of the width, so distances 0, 1 and about n/2 all occur,
// at every radius from 0 to the width and every stretch length up to
// walkBuf (which covers the assembly's masked tail). Each case draws how
// densely the words near x are mixed in, so hits come both in runs and
// after long stretches of misses.
func TestKernelsMatchGoLoops(t *testing.T) {
	if !useAVX512 {
		t.Skip("the CPU or the OS lacks AVX512F, AVX512VL or AVX512_VPOPCNTDQ: only the Go loops run here")
	}
	cases := 50000
	if testing.Short() {
		cases = 5000
	}
	rng := rand.New(rand.NewSource(30))
	words := make([]uint64, walkBuf)
	var want, got [walkBuf]uint32
	for c := range cases {
		n := 1 + rng.Intn(64)
		mask := ^uint64(0) >> (64 - n)
		x := rng.Uint64() & mask
		words := words[:rng.Intn(walkBuf+1)]
		sparse := 1 + rng.Intn(walkBuf) // about one word in sparse is near x
		for i := range words {
			switch rng.Intn(2 * sparse) {
			case 0:
				words[i] = x
			case 1:
				words[i] = x ^ 1<<rng.Intn(n)
			default:
				words[i] = rng.Uint64() & mask
			}
		}
		maxD := rng.Intn(n + 1)
		for start := 0; start <= len(words); start += 1 + rng.Intn(8) {
			if g, w := nextWithinAVX512(x, words[start:], maxD), nextWithin(x, words[start:], maxD); g != w {
				t.Fatalf("case %d: nextWithin(width %d, maxD %d, %d words from %d) = %d, want %d", c, n, maxD, len(words), start, g, w)
			}
		}
		for i := range got {
			want[i], got[i] = ^uint32(0), uint32(i)
		}
		wn := compact(x, words, uint(maxD), want[:])
		gn := compactAVX512(x, words, uint(maxD), got[:])
		if gn != wn || !slices.Equal(got[:gn], want[:wn]) {
			t.Fatalf("case %d: compact(width %d, maxD %d, %d words) = %d hits %v, want %d hits %v", c, n, maxD, len(words), gn, got[:gn], wn, want[:wn])
		}
	}
}

// TestCompactAVX512Bounds: the wrapper's reslices reject a stretch longer
// than walkBuf and a buffer shorter than it before the assembly can store
// past either.
func TestCompactAVX512Bounds(t *testing.T) {
	for _, tc := range []struct {
		name        string
		words, hits int
	}{
		{"long stretch", walkBuf + 1, walkBuf},
		{"short buffer", 8, walkBuf - 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: compactAVX512 did not panic", tc.name)
				}
			}()
			compactAVX512(0, make([]uint64, tc.words), 3, make([]uint32, tc.hits))
		}()
	}
}

// TestCPUProbeMatchesCPUInfo checks the CPUID probe against the kernel's
// own report: the assembly runs exactly when /proc/cpuinfo lists avx512f,
// avx512vl and avx512_vpopcntdq. The kernel clears those flags when it does
// not save the ZMM state, which the probe reads from XCR0.
func TestCPUProbeMatchesCPUInfo(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the AVX-512 bodies exist on amd64 only")
	}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	defer f.Close()
	var flags []string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if name, value, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "flags" {
			flags = strings.Fields(value)
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if flags == nil {
		t.Skip("/proc/cpuinfo has no flags line")
	}
	want := true
	for _, flag := range []string{"avx512f", "avx512vl", "avx512_vpopcntdq"} {
		want = want && slices.Contains(flags, flag)
	}
	if got := ScanKernel() == "avx512"; got != want {
		t.Errorf("ScanKernel() = %q, but /proc/cpuinfo lists avx512f, avx512vl and avx512_vpopcntdq: %v", ScanKernel(), want)
	}
}
