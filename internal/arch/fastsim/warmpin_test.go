package fastsim

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"facile/internal/arch/uarch"
	"facile/internal/snapshot"
)

// pinnedWarmDigest is the SHA-256 of the warm stream Save writes for the
// cache a memoizing run of sumLoop leaves behind.
const pinnedWarmDigest = "c8a3d2dd4ec64c5bdab14df56b4c5c787b12a3de6aa9eb5ef26dd385b92e2e28"

// TestWarmStreamPinned pins the warm-cache byte format: the stream for a
// fixed, deterministic run must hash to the recorded digest. Stores and
// peers exchange these streams, so any change to the framing or the
// action codec must show here and come with a WarmFormatVersion bump.
func TestWarmStreamPinned(t *testing.T) {
	s := New(uarch.Default(), asmOrDie(t, sumLoop), Options{Memoize: true})
	s.Run(0)
	wc := s.DetachCache()
	if wc == nil {
		t.Fatal("no detached cache")
	}
	w := snapshot.NewWriter()
	wc.Save(w)
	sum := sha256.Sum256(w.Payload())
	if got := hex.EncodeToString(sum[:]); got != pinnedWarmDigest {
		t.Fatalf("warm stream digest %s, pinned %s (%d bytes)", got, pinnedWarmDigest, len(w.Payload()))
	}
	if WarmFormatVersion != 1 {
		t.Fatalf("WarmFormatVersion = %d, the pinned digest is version 1", WarmFormatVersion)
	}
}
