package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
	"time"

	"repro/internal/bitstr"
	"repro/internal/dist"
)

// TestStripedBitsPinned pins the float bits of multi-stripe reconstructions:
// one SHA-256 per case over every output entry (outcome, then the bits of
// its probability) and then every GlobalCHS entry. The 1e-12 agreement
// tests cannot see how stripe partials are grouped when they are added; a
// fold that adds the same leaves in another grouping fails here. The cases
// cover the window scan (5 stripes make a fold more than one level deep),
// the multi-index scan, the DisableFilter slabs and the batch workload's
// shape under auto. Exact is pinned at one worker only: its parallel CHS
// pass may group its sums differently from the sequential one. The
// multi-index case runs through both bodies of its candidate search where
// the host has the AVX-512 one.
func TestStripedBitsPinned(t *testing.T) {
	window := dist.Synthetic(20, 4000, 42)
	ablation := dist.Synthetic(16, 1500, 7)
	cases := []struct {
		name string
		in   *dist.Dist
		opts Options
		want string
	}{
		{"blocked-window-w1", window, Options{Engine: EngineBlocked, Workers: 1}, "39f8b13042c282e596b37fd580bed907ee0b461910fb2843d678db025edf9a21"},
		{"blocked-window-w2", window, Options{Engine: EngineBlocked, Workers: 2}, "5d8ebacdd5aa85f9a71fba64c182d57a27d3ff5e2223dd77c38fe0a86aafe23f"},
		{"blocked-window-w5", window, Options{Engine: EngineBlocked, Workers: 5}, "6649e852964576cd7721f64c2e785afd0ad3b6671a0872d8cb34fde1dd0a057d"},
		{"blocked-multiindex-r3-w4", window, Options{Engine: EngineBlocked, Radius: 3, Workers: 4}, "a6965c9af1b72ad133ea755576a1572b5ba1f4e1f4d03a78b79f3975bfbb685a"},
		{"blocked-nofilter-w3", ablation, Options{Engine: EngineBlocked, DisableFilter: true, Workers: 3}, "eb5ef73078573f9bee41d424c2a9173e7864e397f908043320442b923583463b"},
		{"blocked-nofilter-w8", ablation, Options{Engine: EngineBlocked, DisableFilter: true, Workers: 8}, "6ff0825a68b80db6dc7457140ea6c7a236ecaf9695a84659b0d91f26dcb31f8a"},
		{"auto-batch-w6", dist.Synthetic(12, 256, 3), Options{Workers: 6}, "ab3ef7fa227ccf07acdf140c93046ef35e860ea5f63ec4601dd6b36c5e81392c"},
		{"exact-w1", ablation, Options{Engine: EngineExact, Workers: 1}, "5750a9be1b28eeaacd721d5eb22066cb2521f1f997f84a7d85ba69af773822df"},
	}
	if usesMultiIndex(window, DefaultRadius(20)) || !usesMultiIndex(window, 3) {
		t.Fatal("test premise broken: the default radius must take the window scan and radius 3 the multi-index scan")
	}
	for _, tc := range cases {
		check := func(kernel string) {
			sess, err := NewSession(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sess.Reconstruct(context.Background(), tc.in)
			if err != nil {
				t.Fatal(err)
			}
			var buf []byte
			res.Out.Range(func(x bitstr.Bits, p float64) {
				buf = binary.LittleEndian.AppendUint64(buf, uint64(x))
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p))
			})
			for _, c := range res.GlobalCHS {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c))
			}
			sum := sha256.Sum256(buf)
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("%s (engine %s, %s kernel): bits SHA-256 %s, pinned %s", tc.name, res.Engine, kernel, got, tc.want)
			}
		}
		// The multi-index case runs nextWithin, so it pins both of its
		// bodies on an AVX-512 host.
		if tc.opts.Radius == 3 {
			eachKernel(check)
		} else {
			check(ScanKernel())
		}
	}
}

// TestStripedEngineMidflightCancellation cancels real multi-stripe engine
// runs mid-scan and verifies the session survives: the run either completes
// correctly or reports ctx.Err(), and the very next Reconstruct on the same
// session is correct either way.
func TestStripedEngineMidflightCancellation(t *testing.T) {
	in := goldenDist(16, 99)
	for _, engine := range indexEngines {
		sess, err := NewSession(Options{Engine: engine, Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		want, err := sess.Reconstruct(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		ref := want.Out.Clone()
		for iter := 0; iter < 10; iter++ {
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(time.Duration(iter*37) * time.Microsecond)
				cancel()
			}()
			res, err := sess.Reconstruct(ctx, in)
			if err == nil {
				if tvd := dist.TVD(res.Out, ref); tvd > 1e-12 {
					t.Fatalf("%s iter %d: completed run diverged, TVD %g", engine, iter, tvd)
				}
			} else if err != context.Canceled {
				t.Fatalf("%s iter %d: err = %v, want context.Canceled or nil", engine, iter, err)
			}
			cancel()
			// Session must remain fully reusable after a canceled run.
			res, err = sess.Reconstruct(context.Background(), in)
			if err != nil {
				t.Fatalf("%s iter %d: post-cancel reconstruct failed: %v", engine, iter, err)
			}
			if tvd := dist.TVD(res.Out, ref); tvd > 1e-12 {
				t.Fatalf("%s iter %d: post-cancel run diverged, TVD %g", engine, iter, tvd)
			}
		}
	}
}
