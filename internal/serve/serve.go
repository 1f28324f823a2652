// Package serve holds the live per-client state of the HTTP serving layer: a
// Manager of named streaming sessions, each one mutex-guarded stream.Stream
// accumulating shots between requests. Where internal/sched serves stateless
// requests from a pooled budget, this package serves stateful ones — a client
// creates a session, ingests shot batches over many requests, and snapshots
// at will — so the resources a session pins (the incremental engine's
// slot-indexed masses and rows) must be bounded explicitly: the Manager
// caps the number of live sessions and evicts sessions idle past a TTL.
//
// Concurrency contract: the Manager is safe for concurrent use. A
// stream.Stream is not, so every access runs through Manager.Do, which
// serializes on the session's own mutex; distinct sessions proceed in
// parallel. Eviction is lazy — every Manager operation first sweeps expired
// sessions — plus whatever periodic Sweep calls the owner schedules, so an
// idle server eventually releases session memory. CPU-bound snapshot work is
// not the Manager's concern: the HTTP layer runs it inside the scheduler's
// shared worker budget (sched.Scheduler.Do).
//
// Observability: Instrument optionally attaches counters for session
// creations and TTL evictions (explicit deletes are neither); the
// live-session count is read on demand via Len, which the HTTP layer
// exposes as a render-time gauge.
//
// Durability: with Config.Journal set, every session is backed by a
// write-ahead shot log (internal/wal) — Create opens the log, the HTTP layer
// appends each acknowledged ingest via Session.Record (which also folds the
// log into a snapshot once it outgrows the session's support), and Recover
// rebuilds the manager's sessions from the journal on startup. Delete and TTL
// eviction remove the session's log, so an evicted session cannot be
// resurrected by a later replay. Journal failures surface as ErrJournal: the
// ingest was applied in memory but is not durable, and the HTTP layer reports
// it as a server error.
package serve

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/wal"
)

// Defaults for Config's zero values.
const (
	DefaultMaxSessions = 64
	DefaultTTL         = 15 * time.Minute
)

// Sentinel errors the HTTP layer maps onto status codes.
var (
	// ErrNotFound: the session does not exist — never created, deleted, or
	// evicted after sitting idle past the TTL.
	ErrNotFound = errors.New("serve: no such session")
	// ErrExists: a client-supplied session id collides with a live session.
	ErrExists = errors.New("serve: session id already exists")
	// ErrFull: the live-session cap is reached; delete a session (or let one
	// idle out) before creating another.
	ErrFull = errors.New("serve: session limit reached")
	// ErrClientFull: the per-client live-session quota is reached. The server
	// as a whole has room (that would be ErrFull); this client specifically
	// must delete a session or wait for one to idle out.
	ErrClientFull = errors.New("serve: per-client session limit reached")
	// ErrBadHandoff: a shipped session log failed whole-file validation — a
	// torn, truncated, or byte-flipped payload. Nothing was imported: handoff
	// adoption is all-or-nothing by construction.
	ErrBadHandoff = errors.New("serve: invalid handoff payload")
	// ErrJournal: the session's write-ahead log failed. State already applied
	// in memory stands, but it is not durable — the HTTP layer maps this to a
	// server error so the client knows the acknowledgement is weaker than the
	// configured durability.
	ErrJournal = errors.New("serve: session journal failure")
)

// Config configures a Manager. The zero value serves.
type Config struct {
	// MaxSessions caps live sessions (0 = DefaultMaxSessions). The cap is
	// what bounds server memory: each incremental session pins O(support ·
	// radius) engine state for its lifetime.
	MaxSessions int

	// MaxClientSessions caps live sessions per owning client (0 = no
	// per-client cap). It subdivides MaxSessions so one client cannot pin
	// every slot; anonymous sessions (empty owner) are exempt, and handoff
	// adoption bypasses it — a draining peer's sessions were admitted under
	// their own server's quota already.
	MaxClientSessions int

	// TTL is how long a session may sit idle — no ingest, snapshot, or
	// lookup — before eviction (0 = DefaultTTL, negative = never evict).
	TTL time.Duration

	// Now overrides the clock, for tests. Nil means time.Now.
	Now func() time.Time

	// Journal, when non-nil, write-ahead-logs every session: Create opens a
	// per-session log, Session.Record appends ingests, Delete and TTL
	// eviction prune the log, and Recover rebuilds sessions from it. Nil
	// means in-memory sessions only (the pre-durability behavior).
	Journal *wal.Store
}

// Metrics is the manager's optional instrumentation. The live-session count
// is deliberately not here: it is a point-in-time value the owner exposes as
// a render-time gauge over Len.
type Metrics struct {
	// Created counts sessions successfully created.
	Created *obs.Counter
	// Evicted counts sessions removed by TTL idle eviction (explicit
	// deletes are not evictions).
	Evicted *obs.Counter
	// Adopted counts sessions imported whole from a peer handoff (these are
	// not Created: creation was counted on the replica that made them).
	Adopted *obs.Counter
	// HandedOff counts sessions shipped to a peer and tombstoned here.
	HandedOff *obs.Counter
}

// Session is one named streaming session: a stream.Stream behind its own
// mutex, plus the idle bookkeeping eviction needs. Access the stream only
// through Manager.Do.
type Session struct {
	id    string
	owner string // owning client id; "" = anonymous
	// width and opts are the stream's creation parameters, kept so the
	// session can be re-encoded as a create+snapshot log for handoff without
	// reaching into the stream's internals.
	width int
	opts  core.Options

	mu  sync.Mutex
	st  *stream.Stream
	log *wal.Log // nil when the manager has no journal

	// lastUsed and busy are guarded by the Manager's lock (not mu):
	// lastUsed is stamped on lookup and again when the request completes,
	// so the idle clock measures time between requests, not request
	// duration; busy counts in-flight Do calls, and the sweeper never
	// evicts a busy session — a request stalled past the TTL waiting for a
	// scheduler slot must not have the session deleted out from under it.
	lastUsed time.Time
	busy     int
}

// ID returns the session's name.
func (s *Session) ID() string { return s.id }

// Stream returns the session's stream. Only valid inside Manager.DoSession,
// which holds the session's mutex; the stream must not be retained past the
// callback's return.
func (s *Session) Stream() *stream.Stream { return s.st }

// Record journals one acknowledged ingest batch: the pairs are appended to
// the session's write-ahead log, and once the pairs logged since the last
// fold outgrow the session's support the log is compacted down to a snapshot
// of the stream's accumulated histogram. Call it inside Manager.DoSession,
// after the stream mutation succeeded — log order must equal ingest order,
// and both run under the session mutex. A no-op without a journal; failures
// wrap ErrJournal.
func (s *Session) Record(pairs []wal.Pair) error {
	if s.log == nil {
		return nil
	}
	if err := s.log.Append(pairs); err != nil {
		return fmt.Errorf("%w: %v", ErrJournal, err)
	}
	if !s.log.ShouldCompact(s.st.Support()) {
		return nil
	}
	if err := s.log.Compact(s.history()); err != nil {
		return fmt.Errorf("%w: %v", ErrJournal, err)
	}
	return nil
}

// history returns the stream's accumulated histogram as journal pairs: the
// snapshot form a compaction and a handoff both write. The caller holds the
// session mutex.
func (s *Session) history() []wal.Pair {
	hist := make([]wal.Pair, 0, s.st.Support())
	s.st.Counts().Range(func(x uint64, k int) {
		hist = append(hist, wal.Pair{X: x, K: k})
	})
	return hist
}

// Manager owns the live sessions. Safe for concurrent use.
type Manager struct {
	max       int
	maxClient int
	ttl       time.Duration
	now       func() time.Time
	journal   *wal.Store
	metrics   *Metrics

	mu       sync.Mutex
	sessions map[string]*Session
}

// NewManager returns an empty manager with cfg's limits.
func NewManager(cfg Config) *Manager {
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = DefaultMaxSessions
	}
	if cfg.TTL == 0 {
		cfg.TTL = DefaultTTL
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Manager{
		max:       cfg.MaxSessions,
		maxClient: cfg.MaxClientSessions,
		ttl:       cfg.TTL,
		now:       cfg.Now,
		journal:   cfg.Journal,
		sessions:  make(map[string]*Session),
	}
}

// Instrument attaches the optional lifecycle counters (nil fields are safe;
// a nil *Metrics disables instrumentation). Call it after NewManager and
// before the manager starts serving; it is not synchronized against
// concurrent operations.
func (m *Manager) Instrument(metrics *Metrics) { m.metrics = metrics }

// MaxSessions returns the live-session cap.
func (m *Manager) MaxSessions() int { return m.max }

// MaxClientSessions returns the per-client live-session cap (0 = no cap).
func (m *Manager) MaxClientSessions() int { return m.maxClient }

// TTL returns the idle-eviction horizon (negative = never evict).
func (m *Manager) TTL() time.Duration { return m.ttl }

// Len returns the number of live sessions after sweeping expired ones.
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sweepLocked()
	return len(m.sessions)
}

// maxIDLen bounds client-supplied session ids.
const maxIDLen = 64

// validID restricts client-supplied session ids to a charset that survives
// URL routing unescaped (letters, digits, '.', '_', '-'): an id containing
// '/' would create a session no /v1/stream/{id} request could ever address
// — alive, unreachable, and undeletable until the TTL.
func validID(id string) error {
	if len(id) > maxIDLen {
		return fmt.Errorf("serve: session id longer than %d bytes", maxIDLen)
	}
	for _, c := range []byte(id) {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("serve: session id %q: byte %q not in [A-Za-z0-9._-]", id, c)
		}
	}
	return nil
}

// Create builds a new anonymous session over width-bit outcomes with the
// given (already facade-mapped) options. It is CreateOwned with an empty
// owner, so the per-client quota never applies.
func (m *Manager) Create(id string, width int, opts core.Options) (*Session, error) {
	return m.CreateOwned(id, "", width, opts)
}

// CreateOwned builds a new session owned by a client. An empty id draws a
// random one; a client-supplied id must be 1-64 bytes of [A-Za-z0-9._-], and
// one that collides with a live session is ErrExists. At the session cap it
// is ErrFull — expired sessions are swept first, so a full manager means max
// genuinely live sessions. A non-empty owner already holding
// MaxClientSessions live sessions is ErrClientFull. Invalid width or options
// surface as stream.New's errors.
func (m *Manager) CreateOwned(id, owner string, width int, opts core.Options) (*Session, error) {
	if err := validID(id); err != nil {
		return nil, err
	}
	st, err := stream.New(width, opts)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sweepLocked()
	if id == "" {
		id = m.freshIDLocked()
	} else if _, dup := m.sessions[id]; dup {
		return nil, fmt.Errorf("%w: %q", ErrExists, id)
	}
	if len(m.sessions) >= m.max {
		return nil, fmt.Errorf("%w (%d live)", ErrFull, len(m.sessions))
	}
	if m.maxClient > 0 && owner != "" {
		live := 0
		for _, s := range m.sessions {
			if s.owner == owner {
				live++
			}
		}
		if live >= m.maxClient {
			return nil, fmt.Errorf("%w (%d live for %q)", ErrClientFull, live, owner)
		}
	}
	s := &Session{id: id, owner: owner, width: width, opts: opts, st: st, lastUsed: m.now()}
	if m.journal != nil {
		// The log is opened under the manager lock so the id reservation and
		// its on-disk file appear together. A leftover file for this id (not
		// recovered, so not a live session) is a journal fault, not a client
		// collision.
		log, err := m.journal.Create(id, metaFromOptions(width, opts, owner))
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrJournal, err)
		}
		s.log = log
	}
	m.sessions[id] = s
	if m.metrics != nil {
		m.metrics.Created.Inc()
	}
	return s, nil
}

// Do looks the session up, marks it used, and runs fn with exclusive access
// to its stream. fn must not retain the stream past its return. Concurrent
// Do calls on one session serialize; distinct sessions run in parallel. An
// unknown (or already evicted) id is ErrNotFound. While fn runs (or waits
// for the session lock) the session is immune to TTL eviction, and the idle
// clock restarts when fn returns — only time between requests counts as
// idle. An explicit Delete still wins: it removes the session from the map
// immediately, and the in-flight fn merely finishes on the detached stream.
func (m *Manager) Do(id string, fn func(*stream.Stream) error) error {
	return m.DoSession(id, func(s *Session) error { return fn(s.st) })
}

// DoSession is Do for callers that also need the session itself — in
// practice the HTTP layer, which journals acknowledged ingests via
// Session.Record between the stream mutation and the callback's return. The
// locking and eviction-immunity contract is exactly Do's.
func (m *Manager) DoSession(id string, fn func(*Session) error) error {
	m.mu.Lock()
	m.sweepLocked()
	s, ok := m.sessions[id]
	if ok {
		s.lastUsed = m.now()
		s.busy++
	}
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	defer func() {
		m.mu.Lock()
		s.busy--
		s.lastUsed = m.now()
		m.mu.Unlock()
	}()
	s.mu.Lock()
	defer s.mu.Unlock()
	return fn(s)
}

// Delete removes a session and prunes its journal log, so a later restart
// cannot resurrect it. Unknown ids are ErrNotFound. A request already inside
// Do on the session finishes normally; later requests get ErrNotFound. A
// failed prune is ErrJournal — the in-memory delete stands, but the operator
// should know a stale log remains on disk.
func (m *Manager) Delete(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sweepLocked()
	if _, ok := m.sessions[id]; !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	delete(m.sessions, id)
	if m.journal != nil {
		if err := m.journal.Remove(id); err != nil {
			return fmt.Errorf("%w: %v", ErrJournal, err)
		}
	}
	return nil
}

// IDs returns the live session ids in sorted order (after a sweep).
func (m *Manager) IDs() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sweepLocked()
	ids := make([]string, 0, len(m.sessions))
	for id := range m.sessions {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Sweep evicts every session idle past the TTL and reports how many went.
// Every other Manager operation sweeps implicitly; owners with idle periods
// call it from a ticker so an unvisited server still releases memory.
func (m *Manager) Sweep() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sweepLocked()
}

func (m *Manager) sweepLocked() int {
	if m.ttl < 0 {
		return 0
	}
	deadline := m.now().Add(-m.ttl)
	evicted := 0
	for id, s := range m.sessions {
		if s.busy == 0 && s.lastUsed.Before(deadline) {
			delete(m.sessions, id)
			if m.journal != nil {
				// Tombstone the evicted session's log: without this, a
				// restart would replay the log and resurrect a session the
				// TTL already declared dead. Best-effort — the wal store
				// counts successful prunes, and a failure here must not
				// block the sweep.
				m.journal.Remove(id)
			}
			evicted++
		}
	}
	if evicted > 0 && m.metrics != nil {
		m.metrics.Evicted.Add(uint64(evicted))
	}
	return evicted
}

// Recover rebuilds sessions from the manager's journal: every log the wal
// store replays becomes a live session holding the replayed shots, with its
// idle clock starting now. Call it once, after NewManager and before the
// manager starts serving — it is not synchronized against concurrent
// operations. Recovery intentionally ignores MaxSessions: the sessions were
// admitted under the cap when created, and durable state outranks the cap on
// the way back up (Create still enforces it for new sessions). Returns the
// number of sessions recovered; a no-op without a journal.
//
// Torn logs and corrupt files were already handled by the wal layer
// (truncated and quarantined respectively); the only errors left here are a
// meta that no longer maps onto core options — written by a different
// version, or tampered with — which fail recovery loudly rather than
// silently dropping durable state.
func (m *Manager) Recover() (int, error) {
	if m.journal == nil {
		return 0, nil
	}
	recovered, err := m.journal.Recover()
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrJournal, err)
	}
	now := m.now()
	for _, rec := range recovered {
		opts, err := optionsFromMeta(rec.Meta)
		if err != nil {
			return 0, fmt.Errorf("%w: session %q: %v", ErrJournal, rec.ID, err)
		}
		st, err := stream.New(rec.Meta.Width, opts)
		if err != nil {
			return 0, fmt.Errorf("%w: session %q: %v", ErrJournal, rec.ID, err)
		}
		for _, p := range rec.Counts {
			if err := st.IngestN(p.X, p.K); err != nil {
				return 0, fmt.Errorf("%w: session %q: %v", ErrJournal, rec.ID, err)
			}
		}
		m.sessions[rec.ID] = &Session{
			id:       rec.ID,
			owner:    rec.Meta.Client,
			width:    rec.Meta.Width,
			opts:     opts,
			st:       st,
			log:      rec.Log,
			lastUsed: now,
		}
	}
	return len(recovered), nil
}

// metaFromOptions maps a session's creation parameters onto the journal's
// create record. Weights and Engine travel as canonical strings so the log
// survives enum renumbering; the owner rides along so quotas survive restart
// and handoff; Workers is parallelism, not session state, and is
// deliberately dropped.
func metaFromOptions(width int, opts core.Options, owner string) wal.SessionMeta {
	return wal.SessionMeta{
		Width:         width,
		Radius:        opts.Radius,
		Weights:       opts.Weights.String(),
		DisableFilter: opts.DisableFilter,
		TopM:          opts.TopM,
		Engine:        opts.Engine,
		Client:        owner,
	}
}

// optionsFromMeta is the inverse mapping, applied on recovery. Workers is
// pinned to 1, matching the facade's StreamOptions pin for live sessions
// (snapshot results are identical at any worker count; sessions keep the
// single-threaded reference behavior).
func optionsFromMeta(meta wal.SessionMeta) (core.Options, error) {
	weights, err := core.ParseWeightScheme(meta.Weights)
	if err != nil {
		return core.Options{}, err
	}
	return core.Options{
		Radius:        meta.Radius,
		Weights:       weights,
		DisableFilter: meta.DisableFilter,
		TopM:          meta.TopM,
		Engine:        meta.Engine,
		Workers:       1,
	}, nil
}

// freshIDLocked draws a random 8-byte hex id not currently in use.
func (m *Manager) freshIDLocked() string {
	for {
		var b [8]byte
		if _, err := rand.Read(b[:]); err != nil {
			// crypto/rand never fails on supported platforms; loudly if so.
			panic(fmt.Sprintf("serve: id generation: %v", err))
		}
		id := hex.EncodeToString(b[:])
		if _, dup := m.sessions[id]; !dup {
			return id
		}
	}
}
