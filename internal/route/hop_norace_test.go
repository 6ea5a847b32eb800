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

// TestForwardWindowAllocatesNothing pins BenchmarkForwardWindow's hop
// at zero allocations: with the window full, the input queue's two
// slices have grown to the depth the window needs, and the netisr
// only swaps them.
func TestForwardWindowAllocatesNothing(t *testing.T) {
	bed := newHopBed(t)
	bed.open(t)
	defer bed.close()
	for i := 0; i < 1000; i++ { // grow the queue's slices first
		bed.turn(t)
	}
	if allocs := testing.AllocsPerRun(1000, func() { bed.turn(t) }); allocs != 0 {
		t.Fatalf("%v allocations per forwarded hop with %d in flight, want 0", allocs, forwardWindow)
	}
}
