package core

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/cost"
)

// Registration describes one named scoring engine in the registry. Batch
// engines (a non-nil Engine) serve Reconstruct/Session requests; streaming
// entries (Streaming with a nil Engine) name engines whose state lives inside
// an Incremental accumulator and are valid only through the stream layer.
type Registration struct {
	// Name is the identifier Options.Engine selects the engine by. It must
	// be non-empty and must not shadow EngineAuto.
	Name string
	// Engine is the batch scoring implementation; nil for streaming-only
	// registrations.
	Engine Engine
	// Streaming marks engines served by incremental stream state.
	Streaming bool
}

var (
	regMu    sync.RWMutex
	registry = make(map[string]Registration)
)

// Register adds an engine to the registry. The built-in engines self-register
// from their init functions; external packages may add their own before first
// use. It panics on an empty, reserved, or duplicate name — registration
// happens at init time, where a bad wiring should fail loudly.
func Register(r Registration) {
	if r.Name == "" || r.Name == EngineAuto {
		panic(fmt.Sprintf("core: cannot register engine with reserved name %q", r.Name))
	}
	if r.Engine == nil && !r.Streaming {
		panic(fmt.Sprintf("core: registration %q has neither a batch engine nor the streaming marker", r.Name))
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[r.Name]; dup {
		panic(fmt.Sprintf("core: duplicate engine registration %q", r.Name))
	}
	registry[r.Name] = r
}

// Lookup returns the registration for an engine name. The empty string and
// EngineAuto are not registry entries — auto-selection is a policy over the
// registered engines, resolved per problem size.
func Lookup(name string) (Registration, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	r, ok := registry[name]
	return r, ok
}

// EngineNames lists the accepted Options.Engine values: EngineAuto first,
// then every registered batch-capable engine in sorted order. Streaming-only
// registrations are excluded — they are not valid batch selections.
func EngineNames() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry)+1)
	for name, r := range registry {
		if r.Engine != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return append([]string{EngineAuto}, names...)
}

// ValidateEngine reports whether name is an accepted Options.Engine value
// (the empty string selects auto). Facades, the scheduler, and CLIs share it
// so the accepted set lives in one place — the registry.
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

// resolve picks the engine for a workload: registered engines by name, auto
// (or empty) by the active cost model's cheaper prediction of exact and
// blocked (chooseAuto takes blocked when the model covers neither). Unknown
// and streaming-only names come back as errors — the single choke point the
// session, scheduler, and facades all flow through.
func resolve(name string, w cost.Workload) (Engine, error) {
	r, err := lookupBatch(name)
	if err != nil {
		return nil, err
	}
	if r.Engine != nil {
		return r.Engine, nil
	}
	auto := chooseAuto(w)
	r, ok := Lookup(auto)
	if !ok || r.Engine == nil {
		return nil, fmt.Errorf("auto-selected engine %q is not registered", auto)
	}
	return r.Engine, nil
}
