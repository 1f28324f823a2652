package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildServer compiles the repository's cmd/hammerctl into dir.
func buildServer(root, dir string) (string, error) {
	bin := filepath.Join(dir, "hammerctl")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/hammerctl")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/hammerctl: %v\n%s", err, out)
	}
	return bin, nil
}

// server is one running `hammerctl serve` process.
type server struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	setup  time.Duration
	exited chan error
	once   sync.Once
	stderr *lockedBuffer
}

// startServer runs `hammerctl serve` on a loopback port the kernel picks,
// with two workers and GOMAXPROCS=2, plus the extra flags. setup is the time
// from exec to the first 200 from /healthz; on the stream workload it
// includes journal recovery, which the server finishes before it listens.
func startServer(bin string, extra ...string) (*server, error) {
	args := append([]string{"serve", "-addr", "127.0.0.1:0", "-workers", "2"}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	// The server must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	addr := make(chan string, 1)
	cmd.Stdout = &addrWatcher{addr: addr}
	s := &server{cmd: cmd, exited: make(chan error, 1), stderr: &lockedBuffer{}}
	cmd.Stderr = s.stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start hammerctl: %w", err)
	}
	go func() { s.exited <- cmd.Wait() }()
	select {
	case a := <-addr:
		s.base = "http://" + a
	case err := <-s.exited:
		return nil, fmt.Errorf("hammerctl exited before listening: %v: %s", err, s.stderr)
	case <-time.After(60 * time.Second):
		s.stop()
		return nil, errors.New("hammerctl did not report its address within 60s")
	}
	probe := &http.Client{Timeout: 5 * time.Second}
	for {
		resp, err := probe.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(start) > 60*time.Second {
			s.stop()
			return nil, fmt.Errorf("hammerctl /healthz not ready within 60s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	s.setup = time.Since(start)
	probe.CloseIdleConnections()
	return s, nil
}

// stop kills the server and waits for it to exit. Later calls do nothing.
func (s *server) stop() {
	s.once.Do(func() {
		_ = s.cmd.Process.Kill() // an already exited process is fine
		<-s.exited
	})
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// cpu returns the server's on-CPU time so far: the first field of
// /proc/<pid>/task/<tid>/schedstat (nanoseconds), summed over its threads.
// The Go runtime keeps its threads for the life of the process, so no CPU
// time leaves the sum between two readings.
func (s *server) cpu() (time.Duration, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", s.pid()))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("no schedstat for hammerctl threads: %v", err)
	}
	var total time.Duration
	for _, path := range tasks {
		raw, err := os.ReadFile(path)
		if err != nil {
			return 0, err
		}
		field, _, _ := strings.Cut(string(raw), " ")
		ns, err := strconv.ParseInt(field, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", path, err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// peakRSS returns the server's peak resident set size (VmHWM) in MiB.
func (s *server) peakRSS() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.pid()))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// scrape fetches and parses GET /metrics.
func (s *server) scrape(client *http.Client) (prom, error) {
	resp, err := client.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseProm(body)
}

// addrWatcher is the server's stdout: it passes on the address from the
// "hammerctl: serving on ADDR (...)" line and discards the rest.
type addrWatcher struct {
	line []byte
	addr chan<- string
	sent bool
}

func (w *addrWatcher) Write(p []byte) (int, error) {
	if w.sent {
		return len(p), nil
	}
	w.line = append(w.line, p...)
	for {
		i := bytes.IndexByte(w.line, '\n')
		if i < 0 {
			return len(p), nil
		}
		line := string(w.line[:i])
		w.line = w.line[i+1:]
		if _, rest, ok := strings.Cut(line, "serving on "); ok {
			a, _, _ := strings.Cut(rest, " ")
			w.addr <- a
			w.sent = true
			return len(p), nil
		}
	}
}

// lockedBuffer collects the server's standard error for failure messages.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.buf.Len() > 64<<10 {
		return len(p), nil
	}
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
