package cache

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

func testKey(t *testing.T, tag string) string {
	t.Helper()
	k := Key(map[string]float64{tag: 1}, core.Options{})
	if !ValidKey(k) {
		t.Fatalf("Key output %q is not a valid backend key", k)
	}
	return k
}

func TestDirRoundTrip(t *testing.T) {
	d, err := NewDir(filepath.Join(t.TempDir(), "l2"))
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(t, "a")
	if _, ok := d.Get(k); ok {
		t.Fatal("hit on empty store")
	}
	d.Put(k, []byte("hello"))
	got, ok := d.Get(k)
	if !ok || !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("Get = %q, %t", got, ok)
	}
	// Overwrite replaces atomically.
	d.Put(k, []byte("world"))
	if got, _ := d.Get(k); !bytes.Equal(got, []byte("world")) {
		t.Fatalf("after overwrite Get = %q", got)
	}
	if d.Len() != 1 {
		t.Fatalf("Len = %d, want 1", d.Len())
	}
	if d.Hits() != 2 || d.Misses() != 1 || d.Puts() != 2 || d.Errors() != 0 {
		t.Fatalf("stats hits=%d misses=%d puts=%d errs=%d", d.Hits(), d.Misses(), d.Puts(), d.Errors())
	}
}

// TestDirPersistsAcrossReopen is the point of the second level: a new Dir
// over the same root serves entries a previous process stored.
func TestDirPersistsAcrossReopen(t *testing.T) {
	root := filepath.Join(t.TempDir(), "l2")
	d1, err := NewDir(root)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(t, "persist")
	d1.Put(k, []byte("survives"))

	d2, err := NewDir(root)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := d2.Get(k)
	if !ok || string(got) != "survives" {
		t.Fatalf("reopened Get = %q, %t", got, ok)
	}
	if d2.Len() != 1 {
		t.Fatalf("reopened Len = %d", d2.Len())
	}
}

func TestDirRejectsMalformedKeys(t *testing.T) {
	d, err := NewDir(filepath.Join(t.TempDir(), "l2"))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{
		"",
		"short",
		"../../../../etc/passwd",
		strings.Repeat("g", 64),              // right length, not hex
		strings.ToUpper(testKey(t, "upper")), // uppercase hex is not canonical
		testKey(t, "long") + "aa",            // wrong length
		"..%2f" + strings.Repeat("a", 59),    // traversal-shaped
	} {
		d.Put(k, []byte("x"))
		if _, ok := d.Get(k); ok {
			t.Fatalf("stored under malformed key %q", k)
		}
	}
	if d.Len() != 0 {
		t.Fatalf("Len = %d after malformed puts", d.Len())
	}
	if d.Errors() == 0 {
		t.Fatal("malformed puts were not counted as errors")
	}
	// Nothing escaped the root.
	entries, err := os.ReadDir(filepath.Dir(d.root))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("unexpected files next to the store root: %v", entries)
	}
}

func TestDirNilSafety(t *testing.T) {
	var d *Dir
	d.Put(testKeyStatic, []byte("x"))
	if _, ok := d.Get(testKeyStatic); ok {
		t.Fatal("nil Dir hit")
	}
	if d.Len() != 0 || d.Hits() != 0 || d.Misses() != 0 || d.Puts() != 0 || d.Errors() != 0 {
		t.Fatal("nil Dir accessors not zero")
	}
	d2, err := NewDir("")
	if err != nil || d2 != nil {
		t.Fatalf("NewDir(\"\") = %v, %v; want nil, nil", d2, err)
	}
}

// 64 hex chars, structurally valid.
var testKeyStatic = strings.Repeat("ab", 32)

// TestBackendContract exercises both implementations through the interface:
// the serving layer tiers them without knowing which is which.
func TestBackendContract(t *testing.T) {
	dir, err := NewDir(filepath.Join(t.TempDir(), "l2"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		b    Backend
	}{
		{"lru", New[[]byte](4)},
		{"dir", dir},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := testKey(t, "contract-"+tc.name)
			if _, ok := tc.b.Get(k); ok {
				t.Fatal("hit before put")
			}
			tc.b.Put(k, []byte("v"))
			if got, ok := tc.b.Get(k); !ok || string(got) != "v" {
				t.Fatalf("Get = %q, %t", got, ok)
			}
			if tc.b.Len() != 1 {
				t.Fatalf("Len = %d", tc.b.Len())
			}
		})
	}
}
