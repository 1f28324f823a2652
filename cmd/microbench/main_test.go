package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
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

// TestTimerMediansKeepFirstError: medians measures through the same timer,
// so a failing first run ends every later one and the error is the
// function's own.
func TestTimerMediansKeepFirstError(t *testing.T) {
	var tm timer
	calls := 0
	rs := tm.medians(func(b *testing.B) error {
		calls++
		return errors.New("replay folded 3 shots, want 4")
	}, func(b *testing.B) error {
		calls++
		return nil
	})
	if tm.err == nil || tm.err.Error() != "replay folded 3 shots, want 4" || calls != 1 || rs[0].N != 0 || rs[1].N != 0 {
		t.Errorf("err %v, %d calls, results N=%d,%d; want the function's error, 1 call and nothing measured",
			tm.err, calls, rs[0].N, rs[1].N)
	}
}

// TestReadmeClaims ties every number in README's Benchmarks claim list, and
// the cache example, to the committed report field it comes from. Each row
// renders one field (in a few words of the claim's own context) as README
// prints it, and README, whitespace collapsed, must contain that text: a
// report regenerated without its claim, or a claim edited by hand, fails
// here. Floors that live only in CI or in code, not in a report, are not
// rows.
func TestReadmeClaims(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	readme := strings.Join(strings.Fields(string(raw)), " ")
	reports := map[string]any{}
	field := func(suite, path string) float64 {
		t.Helper()
		v, ok := reports[suite]
		if !ok {
			data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_"+suite+".json"))
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(data, &v); err != nil {
				t.Fatalf("BENCH_%s.json: %v", suite, err)
			}
			reports[suite] = v
		}
		for _, k := range strings.Split(path, ".") {
			switch node := v.(type) {
			case map[string]any:
				v = node[k]
			case []any:
				i, err := strconv.Atoi(k)
				if err != nil || i >= len(node) {
					t.Fatalf("BENCH_%s.json: no %s", suite, path)
				}
				v = node[i]
			}
		}
		f, ok := v.(float64)
		if !ok {
			t.Fatalf("BENCH_%s.json: %s is %v, not a number", suite, path, v)
		}
		return f
	}
	// thousands renders an integer with comma separators, as README does.
	thousands := func(v float64) string {
		s := strconv.FormatInt(int64(v), 10)
		for i := len(s) - 3; i > 0; i -= 3 {
			s = s[:i] + "," + s[i:]
		}
		return s
	}
	const ms, pct, mega = 1e-6, 100, 1e-6
	for _, c := range []struct {
		suite, field string
		scale        float64 // applied before format
		format       string
	}{
		{"core", "bits", 1, "At %.0f bits"},
		{"core", "gates.0.speedup_blocked_vs_exact", 1, "blocked is %.1f× faster"},
		{"core", "gates.1.speedup_blocked_vs_exact", 1, "and %.1f× at radius 3"},
		{"core", "gates.0.min_speedup_blocked_vs_exact", 1, "CI floors %.1f×"},
		{"core", "gates.1.min_speedup_blocked_vs_exact", 1, "and %.1f×)"},
		{"stream", "bits", 1, "on a %.0f-bit"},
		{"stream", "support", 1, "/ %.0f-outcome stream"},
		{"stream", "batch_shots", 1, "After %.0f new shots"},
		{"stream", "incremental_ns_per_op", ms, "snapshot costs %.2f ms"},
		{"stream", "batch_ns_per_op", ms, "against %.2f ms for the batch pipeline"},
		{"stream", "speedup", 1, "pipeline, %.1f×"},
		// The streaming paragraph's rounded figure.
		{"stream", "speedup", 1, "stream is about %.0f× cheaper"},
		{"cache", "cache_hit_ns_per_op", ms, "a hit costs %.2f ms"},
		{"cache", "full_reconstruct_ns_per_op", ms, "against %.1f ms,"},
		{"cache", "speedup_hit_vs_full", 1, "%.1f× (`speedup_hit_vs_full`"},
		// The cache example above the claim list.
		{"cache", "cache_hit_ns_per_op", ms, "histogram a hit costs %.2f ms"},
		{"cache", "full_reconstruct_ns_per_op", ms, "against %.1f ms ("},
		{"cache", "speedup_hit_vs_full", 1, "ms (%.1f×)"},
		{"shard", "stripes", 1, "Split %.0f ways"},
		{"shard", "pair_balance", 1, "pair balance %.4f"},
		{"shard", "max_pair_balance", 1, "(ceiling %.2f)"},
		{"shard", "merge_overhead_fraction", pct, "merge takes %.1f%% of scan plus merge"},
		{"shard", "max_merge_overhead_fraction", pct, "(ceiling %.0f%%)"},
		{"shard", "combined_vs_single_tvd", 1, "within %.1e total variation"},
		{"wal", "shots", 1, "A %s-shot"},
		{"wal", "support", 1, "/ %.0f-outcome log"},
		{"wal", "replay_shots_per_sec", mega, "replays at %.1f M shots/s"},
		{"wal", "min_replay_shots_per_sec", mega, "(floor %.0f M)"},
		{"wal", "compaction_ratio", 1, "compacts %.1f×"},
		{"wal", "log_bytes", 1, "%s →"},
		{"wal", "compacted_bytes", 1, "→ %s bytes"},
		{"wal", "min_compaction_ratio", 1, "(floor %.0f×;"},
		{"batch", "cpus", 1, "(`\"cpus\": %.0f`)"},
		{"batch", "speedup", 1, "its `speedup` is %.2f"},
		{"batch", "speedup_vs_1worker", 1, "`speedup_vs_1worker` %.2f"},
	} {
		v := field(c.suite, c.field) * c.scale
		text := fmt.Sprintf(c.format, v)
		if strings.Contains(c.format, "%s") {
			text = fmt.Sprintf(c.format, thousands(v))
		}
		if !strings.Contains(readme, text) {
			t.Errorf("README does not say %q (BENCH_%s.json %s = %v)", text, c.suite, c.field, field(c.suite, c.field))
		}
	}
}
