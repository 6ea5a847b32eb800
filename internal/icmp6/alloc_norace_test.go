//go:build !race

package icmp6

import (
	"testing"

	"bsd6/internal/netif"
)

// TestEchoAllocatesOnlyItsMbufs pins an ICMPv6 echo round trip at its
// two messages' Mbufs: the request and the reply are each written by
// ip.BuildICMP straight into a pooled slab, over a warm neighbor
// entry.  TestEchoAllocatesOnlyItsMbufs in internal/ipv4 pins ICMPv4
// at the same count.  Built without the race detector, whose
// instrumentation allocates.
func TestEchoAllocatesOnlyItsMbufs(t *testing.T) {
	hub := netif.NewHub()
	a, b := newNode("a"), newNode("b")
	a.join(hub, macA, 1500)
	b.join(hub, macB, 1500)
	bll := b.linkLocal(0)
	p := &pinger{}
	p.hook(a.m)
	if err := a.m.SendEcho(bll, 1, 1, nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "warm-up echo reply", func() bool { return p.count() >= 1 })
	a.m.OnEcho = nil
	payload := make([]byte, 56)
	replies := a.m.Stats.InEchoReps.Get()
	const runs = 50
	allocs := testing.AllocsPerRun(runs, func() {
		if err := a.m.SendEcho(bll, 1, 2, payload); err != nil {
			t.Fatal(err)
		}
	})
	if got := a.m.Stats.InEchoReps.Get() - replies; got != runs+1 || b.m.Stats.InEchos.Get() != runs+2 {
		t.Fatalf("%d replies over %d echos", got, runs+1)
	}
	if allocs != 2 {
		t.Fatalf("%v allocations per echo round trip, want 2 (its Mbufs)", allocs)
	}
}
