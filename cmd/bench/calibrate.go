package main

import (
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Host speed: doc.go explains why the benchmark scales its times by it.

const (
	// calNominal is a calibration pass's time on an idle two-core 2.1 GHz
	// Xeon host.
	calNominal = 5500 * time.Microsecond
	// calChunks is how many kernel chunks a calibration pass shares between
	// two goroutines; like the server's workers they take the next chunk when
	// free.
	calChunks = 64
	calPasses = 3
)

var calSink atomic.Uint64

// calibrate stops process pid (when non-zero), times calPasses kernel
// passes, resumes the process, and returns the median pass time in
// nanoseconds.
func calibrate(pid int) (float64, error) {
	if pid != 0 {
		if err := stopProcess(pid); err != nil {
			return 0, err
		}
	}
	// A finished collection leaves no garbage-collector work to overlap the
	// passes.
	runtime.GC()
	passes := make([]float64, calPasses)
	for p := range passes {
		start := time.Now()
		var next atomic.Int64
		var wg sync.WaitGroup
		for g := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for next.Add(1) <= calChunks {
					calSink.Add(calChunk(g))
				}
			}()
		}
		wg.Wait()
		passes[p] = float64(time.Since(start))
	}
	if pid != 0 {
		if err := syscall.Kill(pid, syscall.SIGCONT); err != nil {
			return 0, fmt.Errorf("resume hammerctl: %w", err)
		}
	}
	return median(passes), nil
}

// stopProcess sends SIGSTOP and waits until every thread of pid has stopped.
func stopProcess(pid int) error {
	if err := syscall.Kill(pid, syscall.SIGSTOP); err != nil {
		return fmt.Errorf("stop hammerctl: %w", err)
	}
	deadline := time.Now().Add(time.Second)
	for {
		stopped, err := allStopped(pid)
		if err != nil || stopped {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("hammerctl did not stop within 1s")
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// allStopped reports whether every thread of pid is in state T (stopped).
func allStopped(pid int) (bool, error) {
	tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
	if err != nil {
		return false, err
	}
	for _, t := range tasks {
		raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/task/%s/stat", pid, t.Name()))
		if err != nil {
			return false, err
		}
		// The state follows the parenthesised command name.
		i := strings.LastIndexByte(string(raw), ')')
		if i < 0 || i+2 >= len(raw) {
			return false, fmt.Errorf("malformed /proc stat %q", raw)
		}
		if raw[i+2] != 'T' {
			return false, nil
		}
	}
	return true, nil
}

// calChunk is a small piece of the work the server spends its time on: a
// pairwise Hamming scan over a 384-outcome histogram that accumulates into a
// table, and copying a response-sized buffer, on goroutine g's own buffers.
// It allocates nothing, so the benchmark's own garbage collector stays out
// of the calibration.
func calChunk(g int) uint64 {
	const n = 384
	var xs [n]uint32
	var table [1024]uint64
	x := uint64(1)
	for i := range xs {
		x = x*6364136223846793005 + 1442695040888963407
		xs[i] = uint32(x >> 44)
	}
	for i := range xs {
		for j := i + 1; j < n; j++ {
			if d := bits.OnesCount32(xs[i] ^ xs[j]); d <= 6 {
				table[xs[i]%1024] += uint64(xs[j]) >> d
			}
		}
	}
	b := &calBufs[g]
	for range 2 {
		copy(b[1][:], b[0][:])
		copy(b[0][:], b[1][:])
	}
	acc := uint64(b[0][len(b[0])-1])
	for _, v := range table {
		acc ^= v
	}
	return acc
}

// calBufs are each calibration goroutine's copy buffers, about the size of
// a 20-bit, 4000-outcome response.
var calBufs [clients][2][192 << 10]byte
