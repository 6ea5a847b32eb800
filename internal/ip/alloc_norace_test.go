//go:build !race

package ip

import (
	"testing"

	"bsd6/internal/mbuf"
)

// TestNeighborResolveReachableAllocatesNothing pins the resolver's fast
// path at zero allocations in both families.  Built without the race
// detector, whose instrumentation allocates.
func TestNeighborResolveReachableAllocatesNothing(t *testing.T) {
	for _, fam := range neighborFamilies {
		r := fam.rig(t)
		r.learn(true)
		pkt := mbuf.Get(1)
		if allocs := testing.AllocsPerRun(100, func() { r.resolveFast(pkt) }); allocs != 0 {
			t.Errorf("%s: %v allocations per resolve, want 0", fam.name, allocs)
		}
		pkt.Free()
	}
}
