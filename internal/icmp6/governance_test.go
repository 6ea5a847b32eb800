package icmp6

import (
	"fmt"
	"testing"
	"time"

	"bsd6/internal/inet"
	"bsd6/internal/netif"
	"bsd6/internal/route"
	"bsd6/internal/stat"
)

// TestNeighborCacheCapSkipsRouters floods a host's neighbor cache past
// route.DefaultNDCacheMax and asserts the governance contract: the count never exceeds
// the cap, every induced eviction carries the nd-cache-evicted reason,
// and the Router-Discovery-learned router is never the victim — losing
// the default router to a cache spray would sever all off-link
// traffic.
func TestNeighborCacheCapSkipsRouters(t *testing.T) {
	hub := netif.NewHub()
	a, r := newNode("a"), newNode("r")
	drops := stat.NewRecorder(64)
	a.rt.Drops = drops
	aIf := a.join(hub, macA, 1500)
	rIf := r.join(hub, macR, 1500)

	if err := r.m.EnableRouter(rIf.Name, RouterConfig{Interval: 30 * time.Second}); err != nil {
		t.Fatal(err)
	}
	// The solicit is answered synchronously with an RA; a learns the
	// router as a pinned neighbor and installs the default route.
	a.m.SendRouterSolicit(aIf.Name)
	rLL := r.linkLocal(0)
	waitFor(t, "router learned as neighbor", func() bool {
		_, ok := a.m.NeighborState(rLL)
		return ok
	})
	if n := a.rt.NeighborCount(inet.AFInet6); n != 1 {
		t.Fatalf("neighbor count after RA = %d, want 1", n)
	}

	// Cache spray: distinct on-link sources announce themselves via
	// the NS learning path, past the cap. The cap must hold
	// throughout and the router must survive every eviction round.
	const limit, sprayed = route.DefaultNDCacheMax, route.DefaultNDCacheMax + 8
	sprayAddr := func(i int) inet.IP6 { return ip6(t, fmt.Sprintf("fe80::bad:%x", i)) }
	sprayMAC := func(i int) inet.LinkAddr { return inet.LinkAddr{2, 0, 0, 0, byte(i >> 8), byte(i)} }
	for i := 1; i <= sprayed; i++ {
		a.m.learnNeighbor(aIf, sprayAddr(i), sprayMAC(i), false)
		if n := a.rt.NeighborCount(inet.AFInet6); n > limit {
			t.Fatalf("spray %d: neighbor count %d exceeds cap %d", i, n, limit)
		}
		if _, ok := a.m.NeighborState(rLL); !ok {
			t.Fatalf("spray %d evicted the pinned router", i)
		}
	}
	// One pinned router and the sprayed hosts share the cap: the
	// oldest sprayed hosts were evicted, one each.
	const evicted = 1 + sprayed - limit
	if got := a.rt.NbrEvictions.Get(); got != evicted {
		t.Fatalf("NbrEvictions = %d, want %d", got, evicted)
	}
	if got := drops.Reasons.Snapshot()[stat.RNbrCacheEvicted.String()]; got != evicted {
		t.Fatalf("%s drops = %d, want %d", stat.RNbrCacheEvicted, got, evicted)
	}

	// Unreachable-first policy: mark the most recently used survivor
	// RTF_REJECT; the next admission must pick it over the LRU victim.
	lru, mru := sprayAddr(evicted+1), sprayAddr(sprayed)
	rtMRU, ok := a.rt.Get(inet.AFInet6, mru[:], 128)
	if !ok {
		t.Fatalf("survivor %s missing", mru)
	}
	a.rt.Mutate(func() { rtMRU.Flags |= route.FlagReject })
	a.m.learnNeighbor(aIf, sprayAddr(sprayed+1), sprayMAC(sprayed+1), false)
	if _, still := a.rt.Get(inet.AFInet6, mru[:], 128); still {
		t.Fatal("RTF_REJECT entry survived eviction round")
	}
	if _, still := a.rt.Get(inet.AFInet6, lru[:], 128); !still {
		t.Fatal("reachable LRU entry evicted despite an unreachable candidate")
	}
}
