package core

import (
	"fmt"

	"repro/internal/cost"
)

// Registration describes one named scoring engine. Batch engines (a non-nil
// Engine) serve Reconstruct/Session requests; the streaming engine (a nil
// Engine) keeps its state inside an Incremental accumulator and is valid
// only through the stream layer.
type Registration struct {
	// Name is the identifier Options.Engine selects the engine by.
	Name string
	// Engine is the batch scoring implementation; nil for the streaming
	// engine.
	Engine Engine
}

// Lookup returns the registration for an engine name: exact, blocked or
// incremental. The empty string and EngineAuto are not engines —
// auto-selection is a policy over the batch engines, resolved per problem
// size.
func Lookup(name string) (Registration, bool) {
	switch name {
	case EngineExact:
		return Registration{Name: name, Engine: exactEngine{}}, true
	case EngineBlocked:
		return Registration{Name: name, Engine: blockedEngine{}}, true
	case EngineIncremental:
		return Registration{Name: name}, true
	}
	return Registration{}, false
}

// EngineNames lists the accepted Options.Engine values: EngineAuto first,
// then every batch engine in sorted order. The streaming engine is excluded
// — it is not a valid batch selection.
func EngineNames() []string {
	return []string{EngineAuto, EngineBlocked, EngineExact}
}

// ValidateEngine reports whether name is an accepted Options.Engine value
// (the empty string selects auto). Facades, the scheduler, and CLIs share it
// so the accepted set lives in one place — Lookup.
func ValidateEngine(name string) error {
	_, err := lookupBatch(name)
	return err
}

// lookupBatch resolves a batch-capable registration, mapping unknown and
// streaming-only names to errors. Auto names resolve to an empty
// registration: the caller picks per problem size. The retired name
// EngineBucketed resolves to the blocked registration here, the one place
// names resolve, so every path that accepted it still does.
func lookupBatch(name string) (Registration, error) {
	switch name {
	case "", EngineAuto:
		return Registration{}, nil
	case EngineBucketed:
		name = EngineBlocked
	}
	r, ok := Lookup(name)
	if !ok {
		return Registration{}, fmt.Errorf("unknown engine %q (want one of %v)", name, EngineNames())
	}
	if r.Engine == nil {
		return Registration{}, fmt.Errorf("engine %q is streaming-only (serve it through a Stream)", name)
	}
	return r, nil
}

// resolve picks the engine for a workload: batch engines by name, auto (or
// empty) by the active cost model's cheaper prediction of exact and blocked
// (chooseAuto takes blocked when the model covers neither). Unknown
// and streaming-only names come back as errors — the single choke point the
// session, scheduler, and facades all flow through.
func resolve(name string, w cost.Workload) (Engine, error) {
	r, err := lookupBatch(name)
	if err != nil {
		return nil, err
	}
	if r.Engine == nil {
		r, _ = Lookup(chooseAuto(w)) // always exact or blocked
	}
	return r.Engine, nil
}
