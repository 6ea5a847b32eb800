//go:build !race

package mbuf

import "testing"

// TestGetFreeAllocatesOnlyTheMbuf pins the pool round trip: with a warm
// pool, Get allocates the Mbuf and nothing else, and Free hands the
// slab back under the same handle it came out with.  (The race
// detector makes sync.Pool drop items at random, so this runs without
// it.)
func TestGetFreeAllocatesOnlyTheMbuf(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { Get(1400).Free() }); n != 1 {
		t.Fatalf("Get(1400).Free() allocates %v times, want 1", n)
	}
}
