package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cost"
)

// TestCommittedSchemas decodes every committed BENCH_<suite>.json into its
// suite's report type, refusing unknown fields, and writes it back through
// the writer: the bytes must match exactly, so a dropped, renamed or
// reordered field fails here. Each committed report must also meet the
// bounds it carries, which pins every bound's direction.
func TestCommittedSchemas(t *testing.T) {
	reports := map[string]any{
		"core":   new(cost.CoreReport),
		"shard":  new(shardReport),
		"wal":    new(walReport),
		"cache":  new(cacheReport),
		"stream": new(cost.StreamReport),
		"batch":  new(batchReport),
	}
	for _, s := range suites {
		rep, ok := reports[s.name]
		if !ok {
			t.Errorf("suite %s has no report type here", s.name)
			continue
		}
		want, err := os.ReadFile(filepath.Join("..", "..", "BENCH_"+s.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(bytes.NewReader(want))
		dec.DisallowUnknownFields()
		if err := dec.Decode(rep); err != nil {
			t.Errorf("%s: decode committed report: %v", s.name, err)
			continue
		}
		out := filepath.Join(t.TempDir(), "BENCH_"+s.name+".json")
		if err := cost.WriteJSON(out, rep); err != nil {
			t.Fatal(err)
		}
		if got, _ := os.ReadFile(out); !bytes.Equal(got, want) {
			t.Errorf("%s: rewritten report differs from the committed file:\n%s", s.name, got)
		}
		for _, b := range bounds(rep) {
			if !b.holds() {
				t.Errorf("%s: committed %s %v breaks its limit %v (ceiling %v)", s.name, b.what, b.got, b.limit, b.ceiling)
			}
		}
	}
}

func TestRunLoop(t *testing.T) {
	t.Chdir(t.TempDir())
	table := []suite{
		{"broken", func() (any, error) {
			return &shardReport{PairBalance: 1.2, MaxPairBalance: 1.05, MaxMergeOverheadFrac: 0.1}, nil
		}},
		{"fails", func() (any, error) { return nil, errors.New("self-check: replay folded 3 shots") }},
	}
	exists := func(path string) bool {
		_, err := os.Stat(path)
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			t.Fatal(err)
		}
		return err == nil
	}

	err := run(table, "broken", "")
	if err == nil || !strings.Contains(err.Error(), "pair balance 1.2 breaks its ceiling 1.05") {
		t.Errorf("broken bound: err = %v", err)
	}
	if !exists("BENCH_broken.json") {
		t.Error("a report that breaks a bound must still be written")
	}

	err = run(table, "fails", "")
	if err == nil || !strings.Contains(err.Error(), "replay folded 3 shots") {
		t.Errorf("failing suite: err = %v", err)
	}
	if exists("BENCH_fails.json") {
		t.Error("a suite that returns an error must write nothing")
	}

	if err := run(table, "nope", ""); err == nil {
		t.Error("an unknown suite must be an error")
	}
	if err := run(table, "all", "F.json"); err == nil || exists("F.json") {
		t.Errorf("-suite all -out F: err = %v, F.json written = %v", err, exists("F.json"))
	}
}

func TestTimerKeepsFirstError(t *testing.T) {
	var tm timer
	calls := 0
	res := tm.measure(func(b *testing.B) error {
		calls++
		return errors.New("replay folded 3 shots, want 4")
	})
	tm.measure(func(b *testing.B) error {
		calls++
		return nil
	})
	if tm.err == nil || tm.err.Error() != "replay folded 3 shots, want 4" {
		t.Errorf("err = %v, want the measured function's own error", tm.err)
	}
	if calls != 1 || res.N != 0 {
		t.Errorf("measured function ran %d times (result N=%d); want 1 and nothing after the error", calls, res.N)
	}
}
