package topo

import (
	"fmt"
	"testing"
	"time"

	"bsd6/internal/testnet"
	"bsd6/internal/vclock"
)

func buildStart(t *testing.T, spec Spec) *Network {
	t.Helper()
	if spec.Clock == nil {
		spec.Clock = vclock.NewVirtual(time.Unix(0, 0))
	}
	nw, err := Build(spec)
	if err != nil {
		t.Fatalf("Build(%v/%d): %v", spec.Kind, spec.N, err)
	}
	t.Cleanup(nw.Close)
	nw.Start()
	// The test goroutine blocks in sockets (tcpEcho), so it is an actor
	// the driver must count; it parks only in socket calls and
	// testnet.WaitClock/Until, which let simulated time move.
	nw.Clock.Runnable(1)
	return nw
}

// ping sends one echo from node a to node b's first global address
// and waits for the reply.
func ping(t *testing.T, nw *Network, a, b int) {
	t.Helper()
	dst, ok := nw.Nodes[b].Addr()
	if !ok {
		t.Fatalf("node %d has no address", b)
	}
	src := nw.Nodes[a]
	before := src.S.Snapshot().ICMP6["InEchoReps"]
	if err := src.S.Ping6(dst, uint16(a+1), uint16(b+1), []byte("topo")); err != nil {
		t.Fatalf("ping n%d -> n%d: %v", a, b, err)
	}
	testnet.WaitClock(t, nw.Clock, fmt.Sprintf("echo reply n%d->n%d", a, b), func() bool {
		return src.S.Snapshot().ICMP6["InEchoReps"] > before
	})
}

func TestLineMultiHop(t *testing.T) {
	nw := buildStart(t, Spec{Kind: Line, N: 5, Seed: 1})
	if got := nw.Hops(0, 4); got != 4 {
		t.Fatalf("Hops(0,4) = %d, want 4", got)
	}
	ping(t, nw, 0, 4) // three routers in between
	// The interior nodes forwarded: echo out + echo reply back.
	for i := 1; i <= 3; i++ {
		snap := nw.Nodes[i].S.Snapshot()
		if snap.IP6["Forwarded"] == 0 {
			t.Errorf("n%d forwarded nothing", i)
		}
	}
	// Repeat pings ride the held-route shards.
	ping(t, nw, 0, 4)
	ping(t, nw, 0, 4)
	var hits uint64
	for i := 1; i <= 3; i++ {
		hits += nw.Nodes[i].S.Snapshot().IP6["FwdCacheHits"]
	}
	if hits == 0 {
		t.Errorf("no forwarding cache hits after repeat pings")
	}
}

func TestGeneratorShapes(t *testing.T) {
	cases := []struct {
		spec    Spec
		links   int
		routers int
	}{
		{Spec{Kind: Line, N: 6}, 5, 4},
		{Spec{Kind: Ring, N: 6}, 6, 6},
		{Spec{Kind: Star, N: 6}, 5, 1},
		{Spec{Kind: Tree, N: 7, Fanout: 2}, 6, 3},
	}
	for _, c := range cases {
		nw, err := Build(c.spec)
		if err != nil {
			t.Fatalf("Build(%v): %v", c.spec.Kind, err)
		}
		routers := 0
		for _, n := range nw.Nodes {
			if n.Router {
				routers++
			}
		}
		if len(nw.Links) != c.links || routers != c.routers {
			t.Errorf("%v/%d: links=%d routers=%d, want %d/%d",
				c.spec.Kind, c.spec.N, len(nw.Links), routers, c.links, c.routers)
		}
		nw.Close()
	}
}

func TestWaxmanConnectedDeterministic(t *testing.T) {
	a, err := Build(Spec{Kind: Waxman, N: 40, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Build(Spec{Kind: Waxman, N: 40, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if len(a.Links) != len(b.Links) {
		t.Fatalf("same seed, different link counts: %d vs %d", len(a.Links), len(b.Links))
	}
	for i := range a.Links {
		if a.Links[i].A != b.Links[i].A || a.Links[i].B != b.Links[i].B {
			t.Fatalf("same seed, different edge %d", i)
		}
	}
	for i := 1; i < len(a.Nodes); i++ {
		if !a.Reachable(0, i) {
			t.Fatalf("waxman graph disconnected: n0 !-> n%d", i)
		}
	}
}

func TestSeverHealReachability(t *testing.T) {
	nw := buildStart(t, Spec{Kind: Ring, N: 5, Seed: 3})
	nw.SeverLink(0) // ring survives one cut
	if !nw.Reachable(0, 1) {
		t.Fatal("ring with one cut should stay connected")
	}
	nw.SeverLink(2)
	if nw.Reachable(0, 1) == nw.Reachable(0, 4) {
		// two cuts split the ring; exactly one side keeps n0
		t.Log("partition layout:", nw.Reachable(0, 1), nw.Reachable(0, 4))
	}
	if nw.SeveredLinks() != 2 {
		t.Fatalf("SeveredLinks = %d, want 2", nw.SeveredLinks())
	}
	nw.HealAll()
	if nw.SeveredLinks() != 0 || !nw.Reachable(0, 3) {
		t.Fatal("HealAll did not restore the ring")
	}
	ping(t, nw, 0, 3)
}
