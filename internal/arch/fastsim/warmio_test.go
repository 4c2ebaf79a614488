package fastsim

import (
	"bytes"
	"testing"

	"facile/internal/arch/uarch"
	"facile/internal/snapshot"
)

// TestWarmCacheSaveLoadRoundTrip persists a detached cache through the
// snapshot codec and adopts the reloaded copy into a fresh simulator: the
// warm run must produce identical results and fast-forward more than the
// cold run, exactly as an in-memory adoption would.
func TestWarmCacheSaveLoadRoundTrip(t *testing.T) {
	p := asmOrDie(t, sumLoop)

	s1 := New(uarch.Default(), p, Options{Memoize: true})
	res1 := s1.Run(0)
	st1 := s1.Stats()
	wc := s1.DetachCache()
	if wc == nil || wc.Entries() == 0 {
		t.Fatal("no detached cache to persist")
	}
	entries, bs := wc.Entries(), wc.Bytes()

	w := snapshot.NewWriter()
	wc.Save(w)
	// Save is a read-only walk: the original stays parked and adoptable.
	if wc.Entries() != entries || wc.Bytes() != bs {
		t.Fatalf("Save mutated the cache: %d/%d, was %d/%d",
			wc.Entries(), wc.Bytes(), entries, bs)
	}

	loaded, err := LoadWarmCache(snapshot.NewReader(w.Payload()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Entries() != entries || loaded.Bytes() != bs {
		t.Fatalf("loaded cache sized %d entries/%d bytes, saved %d/%d",
			loaded.Entries(), loaded.Bytes(), entries, bs)
	}

	s2 := New(uarch.Default(), p, Options{Memoize: true})
	if !s2.AdoptCache(loaded) {
		t.Fatal("AdoptCache refused a reloaded warm cache")
	}
	res2 := s2.Run(0)
	st2 := s2.Stats()
	if res1.Cycles != res2.Cycles || res1.Insts != res2.Insts {
		t.Errorf("reloaded-warm run diverged: cold %d insts/%d cycles, warm %d/%d",
			res1.Insts, res1.Cycles, res2.Insts, res2.Cycles)
	}
	if !bytes.Equal(res1.Output, res2.Output) {
		t.Errorf("reloaded-warm output %q != cold %q", res2.Output, res1.Output)
	}
	if st2.FastForwardedPc <= st1.FastForwardedPc {
		t.Errorf("reloaded-warm fast-forward %.3f%% not above cold %.3f%%",
			st2.FastForwardedPc, st1.FastForwardedPc)
	}
}

// TestWarmCacheSaveDeterministic: equal caches serialize to equal bytes
// (the walk is key-sorted), the property content-addressed storage and
// cross-node export rely on.
func TestWarmCacheSaveDeterministic(t *testing.T) {
	p := asmOrDie(t, sumLoop)
	s := New(uarch.Default(), p, Options{Memoize: true})
	s.Run(0)
	wc := s.DetachCache()

	w1 := snapshot.NewWriter()
	wc.Save(w1)
	w2 := snapshot.NewWriter()
	wc.Save(w2)
	if !bytes.Equal(w1.Payload(), w2.Payload()) {
		t.Fatal("two Saves of the same cache produced different bytes")
	}
}

// TestLoadWarmCacheRejectsCorruption drives the structural validators:
// version skew, truncation, and cooked accounting must all fail the load
// rather than hand back a partially decoded cache.
func TestLoadWarmCacheRejectsCorruption(t *testing.T) {
	p := asmOrDie(t, sumLoop)
	s := New(uarch.Default(), p, Options{Memoize: true})
	s.Run(0)
	wc := s.DetachCache()
	w := snapshot.NewWriter()
	wc.Save(w)
	good := w.Payload()

	t.Run("version-skew", func(t *testing.T) {
		skew := snapshot.NewWriter()
		skew.U64(WarmFormatVersion + 1)
		blob := append(skew.Payload(), good[1:]...)
		if _, err := LoadWarmCache(snapshot.NewReader(blob)); err == nil {
			t.Fatal("future format version loaded")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		if _, err := LoadWarmCache(snapshot.NewReader(good[:len(good)/2])); err == nil {
			t.Fatal("truncated stream loaded")
		}
	})
	t.Run("accounting-mismatch", func(t *testing.T) {
		// Rewrite the header's total-bytes field (third varint) to a lie.
		r := snapshot.NewReader(good)
		r.U64() // version
		gen, total := r.U64(), r.U64()
		pre := snapshot.NewWriter()
		pre.U64(WarmFormatVersion)
		pre.U64(gen)
		pre.U64(total)
		hdr := snapshot.NewWriter()
		hdr.U64(WarmFormatVersion)
		hdr.U64(gen)
		hdr.U64(total + 1)
		blob := append(hdr.Payload(), good[len(pre.Payload()):]...)
		if _, err := LoadWarmCache(snapshot.NewReader(blob)); err == nil {
			t.Fatal("cooked byte accounting loaded")
		}
	})
}
