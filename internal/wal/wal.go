package wal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/dist"
	"repro/internal/obs"
)

// Record framing constants shared by the writer and replay.
const (
	// headerBytes is the fixed frame prefix: 4-byte little-endian payload
	// length, 4-byte CRC-32C of the payload.
	headerBytes = 8
	// maxPayload caps one record payload. The HTTP layer caps bodies at 32
	// MiB, so a single ingest batch can reach ~a million pairs; 64 MiB
	// leaves headroom while keeping replay from allocating for a garbage
	// length field.
	maxPayload = 64 << 20
	// maxPairsPerRecord splits outsized batches across records so a record
	// never approaches maxPayload (a pair encodes to at most 20 bytes).
	maxPairsPerRecord = 1 << 20
)

// Record types (the payload's first byte).
const (
	recCreate   byte = 0x01
	recBatch    byte = 0x02
	recSnapshot byte = 0x03
)

// castagnoli is the CRC-32C table every record checksum uses.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SessionMeta is the create record: everything needed to rebuild an empty
// stream equivalent to the one the client created. Weights and Engine are
// stored by their canonical string names (core.WeightScheme.String,
// registry engine names) so logs survive enum renumbering; Workers is
// deliberately absent — parallelism is server configuration, not session
// state.
type SessionMeta struct {
	// Width is the outcome width in bits (1..64).
	Width int `json:"width"`
	// Radius is the admitted Hamming radius (0 = the paper's default).
	Radius int `json:"radius,omitempty"`
	// Weights is the weight scheme's canonical name ("" = inverse-chs).
	Weights string `json:"weights,omitempty"`
	// DisableFilter records the ablation flag.
	DisableFilter bool `json:"disable_filter,omitempty"`
	// TopM records the truncation bound (0 = none).
	TopM int `json:"topm,omitempty"`
	// Engine is the pinned engine name ("" = auto).
	Engine string `json:"engine,omitempty"`
	// Client is the owning client's id ("" = anonymous). It rides the log so
	// per-client session quotas survive restarts and peer handoffs; it never
	// affects reconstruction.
	Client string `json:"client,omitempty"`
}

// maxClientLen bounds the client id carried in a create record; the serving
// layer caps ids well below this, so a longer one is a forged log.
const maxClientLen = 128

func (m SessionMeta) validate() error {
	if m.Width < 1 || m.Width > 64 {
		return fmt.Errorf("wal: width %d out of range [1,64]", m.Width)
	}
	if m.Radius < 0 {
		return fmt.Errorf("wal: negative radius %d", m.Radius)
	}
	if m.TopM < 0 {
		return fmt.Errorf("wal: negative TopM %d", m.TopM)
	}
	if len(m.Client) > maxClientLen {
		return fmt.Errorf("wal: client id longer than %d bytes", maxClientLen)
	}
	return nil
}

// widthMask returns the set of legal outcome bits for an n-bit session.
func widthMask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(n)) - 1
}

// Pair is one (outcome, shot count) entry of a batch or snapshot record.
type Pair struct {
	// X is the outcome, in the low Width bits.
	X uint64
	// K is the shot count (always positive).
	K int
}

// SyncPolicy selects when appends reach stable storage.
type SyncPolicy int

// The two supported policies; see the package documentation for the crash
// classes each survives.
const (
	// SyncAlways fsyncs after every append (the default): acknowledged
	// ingests survive power loss.
	SyncAlways SyncPolicy = iota
	// SyncNever leaves appends in the OS page cache: they survive a process
	// crash or SIGKILL but not a host crash.
	SyncNever
)

// String returns the policy's flag spelling.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// ParseSyncPolicy resolves the -wal-sync flag vocabulary ("always" — or
// empty — and "never").
func ParseSyncPolicy(name string) (SyncPolicy, error) {
	switch name {
	case "", "always":
		return SyncAlways, nil
	case "never":
		return SyncNever, nil
	default:
		return 0, fmt.Errorf("wal: unknown sync policy %q (want always or never)", name)
	}
}

// Defaults for Options' zero values.
const (
	// DefaultCompactFactor compacts once the pairs appended since the last
	// snapshot reach 4x the session's support.
	DefaultCompactFactor = 4
	// DefaultMinCompactPairs floors the compaction threshold at 256 pairs.
	DefaultMinCompactPairs = 256
)

// Options configures a Store. The zero value is the production default:
// fsync every append, compact at 4x support.
type Options struct {
	// Sync is the append durability policy.
	Sync SyncPolicy
	// CompactFactor triggers compaction once the pairs appended since the
	// last snapshot exceed CompactFactor x the session's support (0 =
	// DefaultCompactFactor). Steady-state log size is then O(support).
	CompactFactor int
	// MinCompactPairs floors the compaction threshold so tiny supports do
	// not rewrite the log on every batch (0 = DefaultMinCompactPairs).
	MinCompactPairs int
}

// Metrics is the store's optional instrumentation (hammer_wal_* in the
// serving layer). All fields are nil-safe obs counters.
type Metrics struct {
	// Appends counts batch records written.
	Appends *obs.Counter
	// AppendedBytes counts bytes appended (frames included).
	AppendedBytes *obs.Counter
	// Compactions counts log rewrites into create+snapshot form.
	Compactions *obs.Counter
	// Pruned counts session logs tombstoned by eviction or explicit delete.
	Pruned *obs.Counter
	// Imported counts session logs adopted whole from a peer handoff.
	Imported *obs.Counter
	// RecoveredSessions counts logs successfully replayed at startup.
	RecoveredSessions *obs.Counter
	// TornTails counts logs whose trailing bytes were truncated at recovery
	// (a crash mid-append).
	TornTails *obs.Counter
	// CorruptLogs counts logs with no valid create record, quarantined as
	// <id>.wal.corrupt at recovery.
	CorruptLogs *obs.Counter
}

// Store owns the write-ahead logs under one data directory. Safe for
// concurrent use across sessions.
type Store struct {
	dir     string
	opts    Options
	metrics *Metrics

	mu   sync.Mutex
	logs map[string]*Log
}

// Open creates (or reuses) root/sessions and returns a Store over it.
func Open(root string, opts Options) (*Store, error) {
	if opts.CompactFactor <= 0 {
		opts.CompactFactor = DefaultCompactFactor
	}
	if opts.MinCompactPairs <= 0 {
		opts.MinCompactPairs = DefaultMinCompactPairs
	}
	dir := filepath.Join(root, "sessions")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	return &Store{dir: dir, opts: opts, logs: make(map[string]*Log)}, nil
}

// Instrument attaches the optional counters (nil fields are safe). Call
// before the store starts serving; it is not synchronized against
// concurrent operations.
func (s *Store) Instrument(m *Metrics) { s.metrics = m }

// Dir returns the directory session logs live in.
func (s *Store) Dir() string { return s.dir }

// Sync returns the store's append durability policy.
func (s *Store) Sync() SyncPolicy { return s.opts.Sync }

// m returns the store's metrics, never nil: a disabled store yields zero
// counters, which obs treats as no-ops.
func (s *Store) m() *Metrics {
	if s.metrics == nil {
		return &Metrics{}
	}
	return s.metrics
}

// logPath returns the log file for a session id. Ids are restricted to
// [A-Za-z0-9._-] by the serving layer, so id+".wal" is always a plain file
// name inside the store directory.
func (s *Store) logPath(id string) string {
	return filepath.Join(s.dir, id+".wal")
}

// Create opens a fresh log for the session and writes its create record. A
// log that already exists on disk is an error — recovery either adopted or
// quarantined every existing file, so a collision means the serving layer
// leaked a tombstone.
func (s *Store) Create(id string, meta SessionMeta) (*Log, error) {
	if err := meta.validate(); err != nil {
		return nil, err
	}
	path := s.logPath(id)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{store: s, id: id, path: path, meta: meta, f: f}
	body, err := json.Marshal(meta)
	if err != nil {
		// Unreachable: SessionMeta is plain data.
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("wal: %w", err)
	}
	if err := l.writeRecordLocked(recCreate, body); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	if s.opts.Sync == SyncAlways {
		if err := f.Sync(); err != nil {
			f.Close()
			os.Remove(path)
			return nil, fmt.Errorf("wal: %w", err)
		}
		if err := syncDir(s.dir); err != nil {
			f.Close()
			os.Remove(path)
			return nil, err
		}
	}
	s.mu.Lock()
	s.logs[id] = l
	s.mu.Unlock()
	return l, nil
}

// Remove tombstones a session's log: the open handle is closed and the file
// deleted, so a later recovery cannot resurrect the session. A session with
// no log (never durable, or already pruned) is a no-op; only an actual
// deletion counts toward the Pruned metric.
func (s *Store) Remove(id string) error {
	s.mu.Lock()
	l := s.logs[id]
	delete(s.logs, id)
	s.mu.Unlock()
	if l != nil {
		l.Close()
	}
	err := os.Remove(s.logPath(id))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if s.opts.Sync == SyncAlways {
		if err := syncDir(s.dir); err != nil {
			return err
		}
	}
	s.m().Pruned.Inc()
	return nil
}

// Recovered is one session replayed from disk: its metadata, the surviving
// histogram, and the reopened log ready for further appends.
type Recovered struct {
	// ID is the session id (the log's file name).
	ID string
	// Meta is the replayed create record.
	Meta SessionMeta
	// Shots is the total surviving shot count.
	Shots int
	// Counts is the surviving histogram, sorted by outcome.
	Counts []Pair
	// Torn reports whether a torn tail was truncated off this log.
	Torn bool
	// Log is the reopened log; subsequent appends continue it.
	Log *Log
}

// Recover replays every session log under the store directory: torn tails
// are truncated in place (a crash mid-append loses only the interrupted
// record), files with no valid create record are quarantined as
// <id>.wal.corrupt, and every surviving log is reopened for append. Call
// once, before the store starts serving new sessions.
func (s *Store) Recover() ([]Recovered, error) {
	paths, err := filepath.Glob(filepath.Join(s.dir, "*.wal"))
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	sort.Strings(paths)
	var out []Recovered
	for _, path := range paths {
		id := strings.TrimSuffix(filepath.Base(path), ".wal")
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		rep := ReplayBytes(b)
		if !rep.HasMeta {
			// Nothing recoverable — not even the session's shape. Move the
			// file aside so the next restart does not re-scan it, and keep
			// serving.
			if err := os.Rename(path, path+".corrupt"); err != nil {
				return nil, fmt.Errorf("wal: quarantine %s: %w", path, err)
			}
			s.m().CorruptLogs.Inc()
			continue
		}
		if rep.Torn {
			if err := os.Truncate(path, rep.Good); err != nil {
				return nil, fmt.Errorf("wal: truncate torn tail of %s: %w", path, err)
			}
			s.m().TornTails.Inc()
		}
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		l := &Log{
			store:          s,
			id:             id,
			path:           path,
			meta:           rep.Meta,
			f:              f,
			off:            rep.Good,
			pairsSinceSnap: rep.PairsSinceSnapshot,
		}
		s.mu.Lock()
		s.logs[id] = l
		s.mu.Unlock()
		out = append(out, Recovered{
			ID:     id,
			Meta:   rep.Meta,
			Shots:  rep.Shots,
			Counts: sortedPairs(rep.Counts),
			Torn:   rep.Torn,
			Log:    l,
		})
		s.m().RecoveredSessions.Inc()
	}
	return out, nil
}

// Close closes every open log. The store is unusable afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for id, l := range s.logs {
		if err := l.Close(); err != nil && first == nil {
			first = err
		}
		delete(s.logs, id)
	}
	return first
}

func sortedPairs(counts map[uint64]int) []Pair {
	out := make([]Pair, 0, len(counts))
	for x, k := range counts {
		out = append(out, Pair{X: x, K: k})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].X < out[j].X })
	return out
}

// Log is one session's append-only shot log. Appends serialize internally;
// the serving layer additionally holds the session lock across ingest +
// append, which keeps record order equal to ingest order.
type Log struct {
	store *Store
	id    string
	path  string
	meta  SessionMeta

	mu             sync.Mutex
	f              *os.File
	off            int64
	pairsSinceSnap int
	closed         bool
	failed         error // first I/O failure; latched so later appends fail fast
	buf            []byte
}

// ID returns the session id the log belongs to.
func (l *Log) ID() string { return l.id }

// Meta returns the log's create record.
func (l *Log) Meta() SessionMeta { return l.meta }

// Close releases the file handle. Appends after Close fail.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

func (l *Log) usableLocked() error {
	if l.closed {
		return fmt.Errorf("wal: log %q is closed", l.id)
	}
	if l.failed != nil {
		return fmt.Errorf("wal: log %q failed earlier: %w", l.id, l.failed)
	}
	return nil
}

// Append journals one ingest batch. Every pair is validated against the
// session width (the log must never contain a record replay would reject);
// outsized batches are split across records. Under SyncAlways the append has
// reached stable storage when Append returns.
func (l *Log) Append(pairs []Pair) error {
	if len(pairs) == 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return err
	}
	mask := widthMask(l.meta.Width)
	for _, p := range pairs {
		if p.K <= 0 || p.K > dist.MaxShots {
			return fmt.Errorf("wal: shot count %d for outcome %b outside [1,%d]", p.K, p.X, dist.MaxShots)
		}
		if p.X&^mask != 0 {
			return fmt.Errorf("wal: outcome %b exceeds %d bits", p.X, l.meta.Width)
		}
	}
	for len(pairs) > 0 {
		chunk := pairs
		if len(chunk) > maxPairsPerRecord {
			chunk = chunk[:maxPairsPerRecord]
		}
		pairs = pairs[len(chunk):]
		if err := l.writeRecordLocked(recBatch, encodePairs(nil, chunk)); err != nil {
			return err
		}
		l.pairsSinceSnap += len(chunk)
	}
	if l.store.opts.Sync == SyncAlways {
		if err := l.f.Sync(); err != nil {
			l.failed = err
			return fmt.Errorf("wal: %w", err)
		}
	}
	return nil
}

// ShouldCompact reports whether the pairs appended since the last snapshot
// warrant folding the log, given the session's current support size. The
// caller supplies the support because only it holds the stream.
func (l *Log) ShouldCompact(support int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	threshold := l.store.opts.CompactFactor * support
	if threshold < l.store.opts.MinCompactPairs {
		threshold = l.store.opts.MinCompactPairs
	}
	return l.pairsSinceSnap >= threshold
}

// Compact atomically rewrites the log as create + snapshot of the given
// histogram: the replacement is written to a temp file, fsynced, and renamed
// over the live log, so a crash at any point leaves either the old log or
// the new one — never a mix. Subsequent appends continue on the compacted
// file.
func (l *Log) Compact(hist []Pair) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return err
	}
	sorted, err := sortedSnapshot(l.meta.Width, hist)
	if err != nil {
		return err
	}
	frames, err := sessionFrames(l.meta, sorted)
	if err != nil {
		return err
	}
	tmp := l.path + ".compact"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Write(frames); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	if err := os.Rename(tmp, l.path); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	if err := syncDir(filepath.Dir(l.path)); err != nil {
		f.Close()
		return err
	}
	old := l.f
	l.f = f
	l.off = int64(len(frames))
	l.pairsSinceSnap = 0
	if old != nil {
		old.Close()
	}
	l.store.m().Compactions.Inc()
	return nil
}

// sessionFrames renders the canonical compacted log image — the create
// record followed by the histogram as one snapshot record (chunked into
// snapshot+batch records past maxPairsPerRecord, since a snapshot record
// resets the replayed histogram and batch records accumulate onto it).
// Compact writes these frames over the live log; EncodeSession hands them to
// a peer. sorted must already be validated and sorted by outcome.
func sessionFrames(meta SessionMeta, sorted []Pair) ([]byte, error) {
	metaBody, err := json.Marshal(meta)
	if err != nil {
		// Unreachable: SessionMeta is plain data.
		return nil, fmt.Errorf("wal: %w", err)
	}
	frames := appendFrame(nil, recCreate, metaBody)
	first := true
	for len(sorted) > 0 {
		chunk := sorted
		if len(chunk) > maxPairsPerRecord {
			chunk = chunk[:maxPairsPerRecord]
		}
		sorted = sorted[len(chunk):]
		typ := recBatch
		if first {
			typ, first = recSnapshot, false
		}
		frames = appendFrame(frames, typ, encodePairs(nil, chunk))
	}
	return frames, nil
}

// EncodeSession renders a session's current state as a freshly compacted
// write-ahead log — exactly the create+snapshot byte image Compact writes —
// ready to ship to a peer replica, whose Store.Import (or startup Recover)
// replays it into an identical session. It is a pure function of
// (meta, hist): no Store is needed, so in-memory (non-journaled) sessions
// hand off through the same wire format as durable ones.
func EncodeSession(meta SessionMeta, hist []Pair) ([]byte, error) {
	if err := meta.validate(); err != nil {
		return nil, err
	}
	sorted, err := sortedSnapshot(meta.Width, hist)
	if err != nil {
		return nil, err
	}
	return sessionFrames(meta, sorted)
}

// sortedSnapshot returns a copy of hist in ascending outcome order after
// checking that replay accepts it as a snapshot: positive counts, outcomes
// within the width, and a total of at most dist.MaxShots.
func sortedSnapshot(width int, hist []Pair) ([]Pair, error) {
	mask := widthMask(width)
	sorted := make([]Pair, len(hist))
	copy(sorted, hist)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].X < sorted[j].X })
	total := 0
	for _, p := range sorted {
		if p.K <= 0 || p.K > dist.MaxShots-total {
			return nil, fmt.Errorf("wal: snapshot count %d for outcome %b is non-positive or takes the total past %d",
				p.K, p.X, dist.MaxShots)
		}
		total += p.K
		if p.X&^mask != 0 {
			return nil, fmt.Errorf("wal: snapshot outcome %b exceeds %d bits", p.X, width)
		}
	}
	return sorted, nil
}

// Import adopts a shipped log whole: raw must replay cleanly end to end —  a
// valid create record and not one trailing byte past the last valid record —
// or the import is rejected without touching disk, so a byte-flipped or
// truncated handoff can never produce a half-imported session. On success
// the bytes are written verbatim as the session's log (with Create's
// durability guarantees) and the log is open for further appends.
func (s *Store) Import(id string, raw []byte) (*Log, error) {
	rep := ReplayBytes(raw)
	if !rep.HasMeta {
		return nil, fmt.Errorf("wal: import %q: no valid create record", id)
	}
	if rep.Torn {
		return nil, fmt.Errorf("wal: import %q: invalid bytes past offset %d", id, rep.Good)
	}
	path := s.logPath(id)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Write(raw); err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("wal: %w", err)
	}
	if s.opts.Sync == SyncAlways {
		if err := f.Sync(); err != nil {
			f.Close()
			os.Remove(path)
			return nil, fmt.Errorf("wal: %w", err)
		}
		if err := syncDir(s.dir); err != nil {
			f.Close()
			os.Remove(path)
			return nil, err
		}
	}
	l := &Log{
		store:          s,
		id:             id,
		path:           path,
		meta:           rep.Meta,
		f:              f,
		off:            rep.Good,
		pairsSinceSnap: rep.PairsSinceSnapshot,
	}
	s.mu.Lock()
	s.logs[id] = l
	s.mu.Unlock()
	s.m().Imported.Inc()
	return l, nil
}

// writeRecordLocked frames and writes one record; the caller holds l.mu.
func (l *Log) writeRecordLocked(typ byte, body []byte) error {
	l.buf = l.buf[:0]
	l.buf = appendFrame(l.buf, typ, body)
	n, err := l.f.Write(l.buf)
	l.off += int64(n)
	if err != nil {
		// A partial frame may now trail the log; replay treats it as a torn
		// tail. Latch the failure so later appends cannot write past it and
		// strand good records behind a corrupt gap.
		l.failed = err
		return fmt.Errorf("wal: %w", err)
	}
	l.store.m().Appends.Inc()
	l.store.m().AppendedBytes.Add(uint64(n))
	return nil
}

// appendFrame appends one framed record (header + typed payload) to dst.
func appendFrame(dst []byte, typ byte, body []byte) []byte {
	payloadLen := 1 + len(body)
	var hdr [headerBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(payloadLen))
	crc := crc32.Update(crc32.Checksum([]byte{typ}, castagnoli), castagnoli, body)
	binary.LittleEndian.PutUint32(hdr[4:8], crc)
	dst = append(dst, hdr[:]...)
	dst = append(dst, typ)
	dst = append(dst, body...)
	return dst
}

// encodePairs appends the (uvarint count, (uvarint outcome, uvarint k)*)
// body to dst.
func encodePairs(dst []byte, pairs []Pair) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(pairs)))
	for _, p := range pairs {
		dst = binary.AppendUvarint(dst, p.X)
		dst = binary.AppendUvarint(dst, uint64(p.K))
	}
	return dst
}

// syncDir fsyncs a directory so a just-created, renamed, or removed entry
// survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}
