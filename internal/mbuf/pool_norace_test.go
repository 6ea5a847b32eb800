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

// TestInPlaceClaimsAllocateNothing pins PrependN, AppendN and the
// first two AddSPI calls on a pooled packet at zero allocations: the
// bytes come from the slab and the SPIs from the header's inline
// storage.
func TestInPlaceClaimsAllocateNothing(t *testing.T) {
	m := Get(100)
	defer m.Free()
	if n := testing.AllocsPerRun(100, func() {
		m.PrependN(40)
		m.AppendN(29)
		m.Hdr().AddSPI(1)
		m.Hdr().AddSPI(2)
		m.Adj(40)
		m.Adj(-29)
		m.Hdr().AuxSPI = nil
	}); n != 0 {
		t.Fatalf("in-place claims allocate %v times, want 0", n)
	}
}

// TestCursorAllocatesNothing pins a Cursor walk over a chain, the
// receive path's way through a GRO train, at zero allocations.
func TestCursorAllocatesNothing(t *testing.T) {
	c := chainOf([]byte("ab"), []byte("cd"), []byte("ef"))
	total := 0
	if n := testing.AllocsPerRun(100, func() {
		cur := c.Cursor()
		for b := cur.Next(); b != nil; b = cur.Next() {
			total += len(b)
		}
	}); n != 0 {
		t.Fatalf("a Cursor walk allocates %v times, want 0", n)
	}
}
