//go:build !race

package route_test

import "testing"

// TestForwardHopAllocatesNothing pins the forwarding fast path at zero
// heap allocations per hop: no copy of the hub's port list or delivery
// list, no heap-parsed header, no radix walk for the gateway.  It is
// built without the race detector, whose instrumentation allocates.
func TestForwardHopAllocatesNothing(t *testing.T) {
	bed := newHopBed(t)
	if allocs := testing.AllocsPerRun(200, func() { bed.hop(t) }); allocs != 0 {
		t.Fatalf("%v allocations per forwarded hop, want 0", allocs)
	}
}
