package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	hammer "repro"
	"repro/internal/bitstr"
	"repro/internal/serve"
	"repro/internal/wal"
)

const (
	// clients is the closed-loop client count, and the HTTP connection cap.
	clients = 2
	// segments is how many timed segments a closed-loop round is split into;
	// the host's speed is calibrated before the first and after each.
	segments = 6
)

// runner holds what every round of one benchmark run shares.
type runner struct {
	bin   string  // the hammerctl binary
	work  string  // scratch directory for journals
	scale float64 // per-round work relative to the full size
	refs  *oracle
	// journal is the stream workload's seeded journal, copied fresh into
	// every server it starts.
	journal string
}

// roundResult is one round's raw measurements, and the factor f that takes
// its times to nominal host speed (calibrate.go). Latencies are in
// milliseconds; the scrape is the /metrics delta over the timed window.
type roundResult struct {
	// start is the server's start-up time, with the factor of the
	// calibration just before it.
	start   setupSample
	elapsed time.Duration // the timed window
	f       float64
	// lat holds the latencies the end-to-end latency metrics report: every
	// request's, on stream those of the ingests that ask for a snapshot.
	// ingestLat holds those of stream's plain ingests.
	lat, ingestLat []float64
	attempted, ok  int
	cpu            time.Duration // the server's, over the timed window
	// slowdown holds every calibration's kernel time over calNominal.
	slowdown []float64
	rssMiB   float64
	scrape   prom
	engines  map[string]int
	problems []string
}

func (rr *roundResult) problemf(format string, args ...any) {
	rr.problems = append(rr.problems, fmt.Sprintf(format, args...))
}

// calibrate times the host kernel with process pid stopped, records the
// slowdown and returns the kernel's time in nanoseconds.
func (rr *roundResult) calibrate(pid int) (float64, error) {
	cal, err := calibrate(pid)
	rr.slowdown = append(rr.slowdown, cal/float64(calNominal))
	return cal, err
}

func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		},
	}
}

// do sends one request and reads the whole response into buf.
func do(client *http.Client, method, url string, body []byte, buf *bytes.Buffer) (int, http.Header, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, resp.Header, err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// start calibrates the host, then starts a server for the workload: on
// stream with a fresh copy of the seeded journal, which cleanup removes.
func (r *runner) start(in *inputs, rr *roundResult) (srv *server, cleanup func(), err error) {
	cleanup = func() {}
	var extra []string
	if in.stream != nil {
		dir, err := r.freshJournal()
		if err != nil {
			return nil, nil, err
		}
		cleanup = func() { os.RemoveAll(dir) }
		extra = []string{"-data", dir, "-wal-sync", "never"}
	}
	cal, err := rr.calibrate(0)
	if err == nil {
		srv, err = startServer(r.bin, extra...)
	}
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	rr.start = setupSample{srv.setup, float64(calNominal) / cal}
	return srv, cleanup, nil
}

// round runs one round of the workload against a fresh server: start, warm
// up untimed, measure, then check outputs outside the timed window.
func (r *runner) round(in *inputs) (*roundResult, error) {
	rr := &roundResult{engines: map[string]int{}}
	srv, cleanup, err := r.start(in, rr)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	defer srv.stop()
	client := newClient()
	defer client.CloseIdleConnections()
	var saved map[int][]byte
	if in.stream != nil {
		err = r.streamRound(srv, client, in, rr)
	} else {
		saved, err = r.closedRound(srv, client, in, rr)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w (server stderr: %s)", in.w.name, err, srv.stderr)
	}
	if rr.rssMiB, err = srv.peakRSS(); err != nil {
		return nil, err
	}
	srv.stop()
	for i, body := range saved {
		engines, err := r.refs.check(in, i, body)
		if err != nil {
			rr.problemf("%s request %d: %v", in.w.name, i, err)
		}
		if in.w.path == "/v1/batch" {
			for _, e := range engines {
				rr.engines[e]++
			}
		}
	}
	return rr, nil
}

// measureSegments runs a round's n ops as segments of send(lo, hi), which
// sends ops lo..hi-1 and records their latencies. The host is calibrated
// with the server stopped before the first segment and after each, and the
// round's factor is the median over those calibrations, which is steadier
// than scaling each segment by its own two. The /metrics scrape and the
// server's CPU time cover the segments only.
func measureSegments(srv *server, client *http.Client, rr *roundResult, n int, send func(lo, hi int)) error {
	before, err := srv.scrape(client)
	if err != nil {
		return err
	}
	var cals []float64
	for s := range segments + 1 {
		cal, err := rr.calibrate(srv.pid())
		if err != nil {
			return err
		}
		cals = append(cals, cal)
		if s == segments {
			break
		}
		cpu0, err := srv.cpu()
		if err != nil {
			return err
		}
		start := time.Now()
		send(n*s/segments, n*(s+1)/segments)
		rr.elapsed += time.Since(start)
		cpu1, err := srv.cpu()
		if err != nil {
			return err
		}
		rr.cpu += cpu1 - cpu0
	}
	rr.f = float64(calNominal) / median(cals)
	after, err := srv.scrape(client)
	if err != nil {
		return err
	}
	rr.scrape = delta(before, after)
	rr.attempted = n
	return nil
}

// clientLog is one client's record of a round. lat and ingestLat hold the
// current segment's latencies.
type clientLog struct {
	lat, ingestLat []float64
	ok             int
	wrongTier      int
	unequal        int
	engines        map[string]int
	saved          map[int][]byte
	firstErr       string
}

func (l *clientLog) fail(format string, args ...any) {
	if l.firstErr == "" {
		l.firstErr = fmt.Sprintf(format, args...)
	}
}

// runClients runs fn for each client's log on its own goroutine, then moves
// the segment's latencies into rr.
func runClients(logs []clientLog, rr *roundResult, fn func(c int, l *clientLog)) {
	var wg sync.WaitGroup
	for c := range logs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(c, &logs[c])
		}()
	}
	wg.Wait()
	for c := range logs {
		l := &logs[c]
		rr.lat = append(rr.lat, l.lat...)
		rr.ingestLat = append(rr.ingestLat, l.ingestLat...)
		l.lat, l.ingestLat = l.lat[:0], l.ingestLat[:0]
	}
}

// newLogs returns one empty log per client.
func newLogs() []clientLog {
	logs := make([]clientLog, clients)
	for c := range logs {
		logs[c].engines, logs[c].saved = map[string]int{}, map[int][]byte{}
	}
	return logs
}

// closedRound drives the workload's requests from two clients, each sending
// the next request once its previous response has been read. It returns the
// response bodies kept for the reference check.
func (r *runner) closedRound(srv *server, client *http.Client, in *inputs, rr *roundResult) (map[int][]byte, error) {
	url := srv.base + in.w.path
	// Untimed warm-up. On repeat it fills the cache, and its miss bodies
	// are what every later hit must equal byte for byte.
	warm, err := warmUp(client, url, in.warm)
	if err != nil {
		return nil, err
	}
	var missBodies [][]byte
	if in.w.cache == "hit" {
		missBodies = warm
	}
	n := scaled(in.w.requests, r.scale)
	logs := newLogs()
	err = measureSegments(srv, client, rr, n, func(lo, hi int) {
		var next atomic.Int64
		next.Store(int64(lo))
		runClients(logs, rr, func(_ int, l *clientLog) {
			buf := new(bytes.Buffer)
			for {
				i := int(next.Add(1) - 1)
				if i >= hi {
					return
				}
				t := time.Now()
				status, hdr, err := do(client, http.MethodPost, url, in.bodies[i%len(in.bodies)], buf)
				d := time.Since(t)
				if err != nil || status != http.StatusOK {
					l.fail("request %d: status %d, %v: %.200s", i, status, err, buf)
					continue
				}
				l.ok++
				l.lat = append(l.lat, ms(d))
				if in.w.cache != "" && hdr.Get("X-Hammer-Cache") != in.w.cache {
					l.wrongTier++
				}
				if e := hdr.Get("X-Hammer-Engine"); e != "" {
					l.engines[e]++
				}
				if missBodies != nil && !bytes.Equal(buf.Bytes(), missBodies[i%len(missBodies)]) {
					l.unequal++
				}
				if missBodies == nil && i%checkEvery == 0 {
					l.saved[i] = bytes.Clone(buf.Bytes())
				}
			}
		})
	})
	if err != nil {
		return nil, err
	}
	saved := map[int][]byte{}
	var wrongTier, unequal int
	for _, l := range logs {
		rr.ok += l.ok
		wrongTier += l.wrongTier
		unequal += l.unequal
		for e, k := range l.engines {
			rr.engines[e] += k
		}
		for i, b := range l.saved {
			saved[i] = b
		}
		if l.firstErr != "" {
			rr.problemf("%s failed: %s", in.w.name, l.firstErr)
		}
	}
	if wrongTier > 0 {
		rr.problemf("%s: %d of %d responses were not X-Hammer-Cache: %s", in.w.name, wrongTier, n, in.w.cache)
	}
	if unequal > 0 {
		rr.problemf("%s: %d cache hits differ from the miss that filled them", in.w.name, unequal)
	}
	return saved, nil
}

// warmUp sends the bodies from two clients and returns the responses in
// body order.
func warmUp(client *http.Client, url string, bodies [][]byte) ([][]byte, error) {
	out := make([][]byte, len(bodies))
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for i := c; i < len(bodies); i += clients {
				status, _, err := do(client, http.MethodPost, url, bodies[i], &buf)
				if err != nil || status != http.StatusOK {
					errs[c] = fmt.Errorf("warm-up request %d: status %d, %v: %.200s", i, status, err, buf.String())
					return
				}
				out[i] = bytes.Clone(buf.Bytes())
			}
		}()
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// streamRound gives each active session its own client, which sends the
// session's next ingest once the previous one is acknowledged; every
// snapshotEvery-th ingest asks for a snapshot. Op j is ingest j/2 of active
// session j%2. Plain ingests and those with a snapshot are timed apart.
func (r *runner) streamRound(srv *server, client *http.Client, in *inputs, rr *roundResult) error {
	s := in.stream
	buf := new(bytes.Buffer)
	// Untimed warm-up: the first snapshot after recovery builds each active
	// session's engine state.
	for _, idx := range s.active {
		status, _, err := do(client, http.MethodGet, srv.base+"/v1/stream/"+sessionID(idx), nil, buf)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("warm-up snapshot of %s: status %d, %v: %s", sessionID(idx), status, err, buf)
		}
	}
	per := len(s.ingests[0])
	// acked[a][k] records whether session a acknowledged ingest k; only
	// session a's client writes it.
	var acked [streamActive][]bool
	for a := range acked {
		acked[a] = make([]bool, per)
	}
	logs := newLogs()
	err := measureSegments(srv, client, rr, streamActive*per, func(lo, hi int) {
		runClients(logs, rr, func(a int, l *clientLog) {
			var b bytes.Buffer
			url := srv.base + "/v1/stream/" + sessionID(s.active[a]) + "/shots"
			for j := lo + (a-lo%streamActive+streamActive)%streamActive; j < hi; j += streamActive {
				k := j / streamActive
				snapshot := k%snapshotEvery == snapshotEvery-1
				u := url
				if snapshot {
					u += "?snapshot=1"
				}
				t := time.Now()
				status, _, err := do(client, http.MethodPost, u, s.ingests[a][k], &b)
				d := time.Since(t)
				if err != nil || status != http.StatusOK {
					l.fail("ingest %d into %s: status %d, %v: %.200s", k, sessionID(s.active[a]), status, err, b.String())
					continue
				}
				l.ok++
				acked[a][k] = true
				if !snapshot {
					l.ingestLat = append(l.ingestLat, ms(d))
					continue
				}
				l.lat = append(l.lat, ms(d))
				if (k/snapshotEvery)%checkEvery == 0 {
					var snap struct {
						Snapshot struct {
							Engine string `json:"engine"`
						} `json:"snapshot"`
					}
					if err := json.Unmarshal(b.Bytes(), &snap); err != nil {
						l.fail("snapshot response: %v", err)
					}
					l.engines[snap.Snapshot.Engine]++
				}
			}
		})
	})
	if err != nil {
		return err
	}
	for _, l := range logs {
		rr.ok += l.ok
		for e, k := range l.engines {
			rr.engines[e] += k
		}
		if l.firstErr != "" {
			rr.problemf("stream failed: %s", l.firstErr)
		}
	}
	// Each active session's final state must be exactly the seed plus every
	// acknowledged ingest.
	for a, idx := range s.active {
		expected := histogramOf(streamWidth, s.seeds[idx])
		for k, ok := range acked[a] {
			if ok {
				for x, n := range s.counts[a][k] {
					expected[x] += n
				}
			}
		}
		status, _, err := do(client, http.MethodGet, srv.base+"/v1/stream/"+sessionID(idx), nil, buf)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("final snapshot of %s: status %d, %v: %s", sessionID(idx), status, err, buf)
		}
		if err := r.refs.checkStream(expected, buf.Bytes()); err != nil {
			rr.problemf("stream session %s: %v", sessionID(idx), err)
		}
	}
	return nil
}

// seedJournal writes the stream workload's sessions into a fresh journal
// under r.work, through the same manager and store the server recovers
// them with.
func (r *runner) seedJournal(s *streamInputs) error {
	dir := filepath.Join(r.work, "journal-seed")
	store, err := wal.Open(dir, wal.Options{Sync: wal.SyncNever})
	if err != nil {
		return err
	}
	defer store.Close()
	opts, err := hammer.StreamOptions(hammer.Config{})
	if err != nil {
		return err
	}
	mgr := serve.NewManager(serve.Config{Journal: store, TTL: -1, MaxSessions: streamSessions})
	for i, seed := range s.seeds {
		if _, err := mgr.Create(sessionID(i), streamWidth, opts); err != nil {
			return err
		}
		pairs := make([]wal.Pair, len(seed))
		for j, p := range seed {
			pairs[j] = wal.Pair{X: bitstr.Bits(p.x), K: p.k}
		}
		err := mgr.DoSession(sessionID(i), func(sess *serve.Session) error {
			for _, p := range pairs {
				if err := sess.Stream().IngestN(p.X, p.K); err != nil {
					return err
				}
			}
			return sess.Record(pairs)
		})
		if err != nil {
			return err
		}
	}
	r.journal = dir
	return store.Close()
}

// freshJournal copies the seeded journal into a new directory.
func (r *runner) freshJournal() (string, error) {
	dst, err := os.MkdirTemp(r.work, "journal-")
	if err != nil {
		return "", err
	}
	err = filepath.WalkDir(r.journal, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(r.journal, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		return copyFile(path, target)
	})
	if err != nil {
		os.RemoveAll(dst)
		return "", fmt.Errorf("copy journal: %w", err)
	}
	return dst, nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// setupProbe starts a server the way a round does and stops it once it is
// ready, returning its start-up.
func (r *runner) setupProbe(in *inputs) (setupSample, error) {
	rr := &roundResult{}
	srv, cleanup, err := r.start(in, rr)
	if err != nil {
		return setupSample{}, err
	}
	defer cleanup()
	srv.stop()
	return rr.start, nil
}
