package rt_test

import (
	"bytes"
	"os"
	"strconv"
	"strings"
	"testing"

	"facile/internal/rt"
	"facile/internal/snapshot"
)

// TestWarmStreamPinned pins the warm-cache byte format: a stream written
// by Save at a fac-ooo run's end (the checked-in fuzz seed) must decode and
// re-encode to exactly the same bytes. Stores and peers exchange these
// streams, so any change to the framing or the node codec must show here
// and come with a WarmFormatVersion bump.
func TestWarmStreamPinned(t *testing.T) {
	stream := readCorpusBytes(t, "testdata/fuzz/FuzzLoadWarmCache/fac-ooo-run")
	wc, err := rt.LoadWarmCache(snapshot.NewReader(stream))
	if err != nil {
		t.Fatalf("pinned stream no longer decodes: %v", err)
	}
	w := snapshot.NewWriter()
	wc.Save(w)
	if !bytes.Equal(w.Payload(), stream) {
		t.Fatalf("re-encoded stream differs from the pinned one: %d bytes, pinned %d", len(w.Payload()), len(stream))
	}
	if rt.WarmFormatVersion != 1 {
		t.Fatalf("WarmFormatVersion = %d, the pinned stream is version 1", rt.WarmFormatVersion)
	}
}

// readCorpusBytes decodes a one-value "go test fuzz v1" corpus file
// holding a []byte literal.
func readCorpusBytes(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitN(strings.TrimSpace(string(raw)), "\n", 2)
	if len(lines) != 2 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: not a fuzz corpus file", path)
	}
	lit := strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")")
	s, err := strconv.Unquote(lit)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}
