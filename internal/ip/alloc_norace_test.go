//go:build !race

package ip

import "testing"

// TestNeighborResolveReachableAllocatesNothing pins the resolver's fast
// path at zero allocations in both families.  Built without the race
// detector, whose instrumentation allocates.
func TestNeighborResolveReachableAllocatesNothing(t *testing.T) {
	for _, fam := range neighborFamilies {
		r := fam.rig(t)
		r.learn(true)
		if allocs := testing.AllocsPerRun(100, r.resolveFast); allocs != 0 {
			t.Errorf("%s: %v allocations per resolve, want 0", fam.name, allocs)
		}
	}
}
