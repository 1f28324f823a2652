package serve

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/stream"
	"repro/internal/wal"
)

// Handoff exports a session as a compacted write-ahead log, ships it via the
// caller's function, and — only after the ship succeeds — tombstones the
// local copy, so the session lives on exactly one replica at every point an
// observer could see. The session's mutex is held across export, ship, and
// delete: an ingest racing the handoff either lands before the export (and is
// included in the shipped bytes) or serializes behind it and gets
// ErrNotFound, never a silent write to a stream the peer already copied.
//
// A failed ship leaves the session untouched and live. Unknown ids are
// ErrNotFound.
func (m *Manager) Handoff(id string, ship func(raw []byte) error) error {
	return m.DoSession(id, func(s *Session) error {
		raw, err := wal.EncodeSession(metaFromOptions(s.width, s.opts, s.owner), s.history())
		if err != nil {
			return err
		}
		if err := ship(raw); err != nil {
			return err
		}
		// The peer owns the session now; Delete tombstones it here (and
		// prunes the journal log, so a restart cannot resurrect a
		// duplicate). Holding s.mu while taking the manager lock is safe: no
		// path holds m.mu while waiting on a session mutex.
		if err := m.Delete(id); err != nil && !errors.Is(err, ErrNotFound) {
			return err
		}
		if m.metrics != nil {
			m.metrics.HandedOff.Inc()
		}
		return nil
	})
}

// Adopt imports a session a peer handed off: raw must be a complete, valid
// write-ahead log (what Handoff ships — create record first, snapshot-form
// history after). Validation is whole-file and precedes every state change,
// so a torn, truncated, or byte-flipped payload is rejected with ErrBadHandoff
// and nothing — no session, no journal file — is imported; adoption is
// all-or-nothing. The owner rides in the log's create record, and the
// per-client quota deliberately does not apply: the sessions were admitted
// under the draining server's quota already. ErrExists and ErrFull apply as
// in CreateOwned.
func (m *Manager) Adopt(id string, raw []byte) (*Session, error) {
	if id == "" {
		return nil, fmt.Errorf("%w: empty session id", ErrBadHandoff)
	}
	if err := validID(id); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadHandoff, err)
	}
	rep := wal.ReplayBytes(raw)
	if !rep.HasMeta {
		return nil, fmt.Errorf("%w: no valid create record", ErrBadHandoff)
	}
	if rep.Torn {
		return nil, fmt.Errorf("%w: invalid bytes past offset %d", ErrBadHandoff, rep.Good)
	}
	opts, err := optionsFromMeta(rep.Meta)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadHandoff, err)
	}
	st, err := stream.New(rep.Meta.Width, opts)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadHandoff, err)
	}
	// Ingest in sorted outcome order: map iteration order must not leak into
	// the adopted stream's internal state.
	xs := make([]uint64, 0, len(rep.Counts))
	for x := range rep.Counts {
		xs = append(xs, x)
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	for _, x := range xs {
		if err := st.IngestN(x, rep.Counts[x]); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadHandoff, err)
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sweepLocked()
	if _, dup := m.sessions[id]; dup {
		return nil, fmt.Errorf("%w: %q", ErrExists, id)
	}
	if len(m.sessions) >= m.max {
		return nil, fmt.Errorf("%w (%d live)", ErrFull, len(m.sessions))
	}
	s := &Session{
		id:       id,
		owner:    rep.Meta.Client,
		width:    rep.Meta.Width,
		opts:     opts,
		st:       st,
		lastUsed: m.now(),
	}
	if m.journal != nil {
		log, err := m.journal.Import(id, raw)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrJournal, err)
		}
		s.log = log
	}
	m.sessions[id] = s
	if m.metrics != nil {
		m.metrics.Adopted.Inc()
	}
	return s, nil
}
