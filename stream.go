package hammer

import (
	"fmt"

	"repro/internal/bitstr"
	"repro/internal/core"
	"repro/internal/stream"
)

// Stream is the streaming counterpart of RunCounts: shots are ingested one
// at a time or in batches as a backend produces them, and Snapshot serves the
// HAMMER reconstruction of everything accumulated so far at any point — long
// before the run finishes. Snapshots agree with RunCounts on the same
// accumulated histogram; between snapshots the stream keeps the engine's
// CHS and neighborhood state and revalidates only the Hamming neighborhoods
// the new shots touched, so a snapshot after a small batch is much cheaper
// than a full reconstruction.
//
//	s, _ := hammer.NewStream(8, hammer.Config{})
//	for shot := range backend {          // e.g. "10110101" per trial
//		s.Ingest(shot)
//		if s.Shots()%1000 == 0 {
//			snap, _ := s.Snapshot() // reconstruction of the run so far
//			...
//		}
//	}
//
// A Stream is not safe for concurrent use; callers serialize ingestion and
// snapshots.
type Stream struct {
	n     int
	inner *stream.Stream
}

// StreamOptions maps a Config onto the single-threaded core options a served
// streaming session runs with: the same facade mapping as SessionOptions, but
// deferring engine validation to the stream layer, which additionally admits
// the streaming-only "incremental" engine (a batch-path error). Full
// validation happens where the stream is built (stream.New); in-module
// servers use this to turn per-session wire Configs into stream options.
func StreamOptions(cfg Config) (core.Options, error) {
	opts, err := cfg.options()
	if err != nil {
		return core.Options{}, err
	}
	opts.Workers = 1
	return opts, nil
}

// NewStream returns an empty shot stream over numBits-bit outcomes. The
// configuration gets the same validation as RunWithConfig. Configurations the
// incremental engine state cannot serve (TopM truncation or a pinned batch
// engine) remain valid: their snapshots run the batch pipeline over the
// accumulated counts instead.
func NewStream(numBits int, cfg Config) (*Stream, error) {
	opts, err := cfg.options()
	if err != nil {
		return nil, err
	}
	if numBits < 1 || numBits > bitstr.MaxBits {
		return nil, fmt.Errorf("hammer: stream width %d out of range [1,%d]", numBits, bitstr.MaxBits)
	}
	inner, err := stream.New(numBits, opts)
	if err != nil {
		return nil, fmt.Errorf("hammer: %w", err)
	}
	return &Stream{n: numBits, inner: inner}, nil
}

// NumBits returns the outcome width in bits.
func (s *Stream) NumBits() int { return s.n }

// Shots returns the number of shots ingested so far.
func (s *Stream) Shots() int { return s.inner.Shots() }

// Support returns the number of distinct outcomes observed so far.
func (s *Stream) Support() int { return s.inner.Support() }

// Ingest records one measurement shot, a bitstring of exactly NumBits
// characters (most significant qubit first).
func (s *Stream) Ingest(shot string) error { return s.IngestN(shot, 1) }

// IngestN records k shots of one outcome. k must be positive.
func (s *Stream) IngestN(shot string, k int) error {
	x, err := s.parse(shot)
	if err != nil {
		return err
	}
	if err := s.inner.IngestN(x, k); err != nil {
		return fmt.Errorf("hammer: %w", err)
	}
	return nil
}

// IngestCounts merges a whole count histogram — one batch of shots in the
// raw form quantum backends return — into the stream. All keys must be
// NumBits wide; counts must be positive.
func (s *Stream) IngestCounts(counts map[string]int) error {
	// Validate the whole batch before ingesting any of it, so a bad key
	// cannot leave the stream half-updated.
	type shot struct {
		x bitstr.Bits
		k int
	}
	batch := make([]shot, 0, len(counts))
	total := 0
	for key, k := range counts {
		x, err := s.parse(key)
		if err != nil {
			return err
		}
		if total, err = s.inner.CheckShots(total, k); err != nil {
			return fmt.Errorf("hammer: count for %q: %w", key, err)
		}
		batch = append(batch, shot{x, k})
	}
	for _, sh := range batch {
		if err := s.inner.IngestN(sh.x, sh.k); err != nil {
			return fmt.Errorf("hammer: %w", err)
		}
	}
	return nil
}

// Counts returns the accumulated histogram in the string-keyed form the
// batch facade consumes: running the batch pipeline over it with the
// stream's own Config reproduces s.Snapshot() (for the zero Config that is
// RunCounts(s.Counts())).
func (s *Stream) Counts() map[string]int {
	out := make(map[string]int, s.inner.Support())
	s.inner.Counts().Range(func(x bitstr.Bits, k int) {
		out[bitstr.Format(x, s.n)] = k
	})
	return out
}

// Snapshot returns the HAMMER reconstruction of every shot ingested so far,
// as a normalized distribution over the observed outcomes. It errors when no
// shots have been ingested yet.
func (s *Stream) Snapshot() (map[string]float64, error) {
	res, err := s.inner.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("hammer: %w", err)
	}
	out := make(map[string]float64, res.Out.Len())
	res.Out.Range(func(x bitstr.Bits, p float64) {
		out[bitstr.Format(x, s.n)] = p
	})
	return out, nil
}

func (s *Stream) parse(shot string) (bitstr.Bits, error) {
	if len(shot) != s.n {
		return 0, fmt.Errorf("hammer: shot %q has %d bits, stream has %d", shot, len(shot), s.n)
	}
	x, err := bitstr.Parse(shot)
	if err != nil {
		return 0, fmt.Errorf("hammer: %w", err)
	}
	return x, nil
}
