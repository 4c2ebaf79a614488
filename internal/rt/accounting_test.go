package rt

import (
	"fmt"
	"testing"

	"facile/internal/memocache"
)

func sumEntryBytes(c *acache) uint64 {
	var n uint64
	for _, e := range c.M {
		n += e.Bytes
	}
	return n
}

func TestInvalidationRefundsEntryBytes(t *testing.T) {
	c := memocache.NewCache[node](0, nil)
	var ents []*centry
	for i := 0; i < 6; i++ {
		e := &centry{Key: fmt.Sprintf("key%d", i)}
		c.Put(e)
		c.Charge(e, uint64(64*(i+1)))
		ents = append(ents, e)
	}
	for _, i := range []int{0, 2, 5} {
		c.Invalidate(ents[i])
	}
	if want := sumEntryBytes(c); c.G.Bytes != want {
		t.Fatalf("after invalidations: occupancy %d, surviving entries hold %d", c.G.Bytes, want)
	}
	if len(c.M) != 3 {
		t.Fatalf("expected 3 surviving entries, have %d", len(c.M))
	}
	// Invalidating a dead entry again must not refund twice.
	before := c.G.Bytes
	c.Invalidate(ents[0])
	if c.G.Bytes != before {
		t.Fatalf("double invalidation changed occupancy: %d -> %d", before, c.G.Bytes)
	}
	if c.G.Invalidations != 4 {
		t.Fatalf("invalidations = %d, want 4", c.G.Invalidations)
	}
	// Overwriting a key refunds the replaced entry's bytes.
	repl := &centry{Key: "key1"}
	c.Put(repl)
	if want := sumEntryBytes(c); c.G.Bytes != want {
		t.Fatalf("after overwrite: occupancy %d, entries hold %d", c.G.Bytes, want)
	}
	// A stale invalidation after a clear must not underflow the fresh gauge.
	c.Clear()
	c.Invalidate(ents[3])
	if c.G.Bytes != 0 {
		t.Fatalf("post-clear stale invalidation left occupancy %d", c.G.Bytes)
	}
}
