package topo

// The partition/heal churn soak: a generated 100-node internet
// survives thousands of random link flaps under live traffic, with
// the admin crawler auditing the whole fleet between storms.  The
// contract is the acceptance criterion end to end — no node leaks
// mbufs (poison-on-free armed throughout), every discard carries a
// typed reason, multi-hop TCP flows complete once links heal, and the
// crawl always reaches all N nodes because the management plane does
// not ride the data plane.
//
// Scale: the full 100-node / 10k-event storm runs by default (CI's
// topo-soak job); -short runs a smaller storm with the same
// assertions.  Set TOPO_REPORT=<path> to write the final fleet report
// JSON — the artifact CI uploads next to the bench snapshot.

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"testing"
	"time"

	"bsd6/internal/admin"
	"bsd6/internal/mbuf"
	"bsd6/internal/testnet"
)

func soakScale(t *testing.T) (nodes, events, rounds int) {
	if testing.Short() {
		return 30, 1000, 5
	}
	return 100, 10000, 10
}

// farPair picks the most distant currently-connected node pair, so
// the soak's TCP flows are genuinely multi-hop.
func farPair(nw *Network) (a, b, hops int) {
	for i := 0; i < len(nw.Nodes); i += 7 {
		for j := 1; j < len(nw.Nodes); j += 11 {
			if h := nw.Hops(i, j); h > hops {
				a, b, hops = i, j, h
			}
		}
	}
	return a, b, hops
}

func TestChurnSoakFleet(t *testing.T) {
	mbuf.SetPoison(true)
	t.Cleanup(func() { mbuf.SetPoison(false) })
	base := mbuf.Outstanding()

	nodes, events, rounds := soakScale(t)
	nw := buildStart(t, Spec{Kind: Waxman, N: nodes, Seed: 42})
	an := nw.Admin()
	crawler := &admin.Crawler{Net: an}
	rng := rand.New(rand.NewSource(99))

	var report *admin.FleetReport
	perRound := events / rounds
	for round := 0; round < rounds; round++ {
		// The storm: flip random links while pings fly into whatever
		// is reachable (or not — those drops must come back typed).
		for e := 0; e < perRound; e++ {
			nw.ChurnStep(rng)
			if e%50 == 0 {
				src := nw.Nodes[rng.Intn(nodes)]
				if dst, ok := nw.Nodes[rng.Intn(nodes)].Addr(); ok {
					src.S.Ping6(dst, uint16(round), uint16(e), []byte("storm")) //nolint:errcheck
				}
			}
		}
		nw.HealAll()
		testnet.WaitFor(t, "fleet quiescent after heal", func() bool { return nw.Pending() == 0 })

		// Healed data plane carries a real multi-hop stream.
		if round%2 == 0 {
			a, b, hops := farPair(nw)
			if hops < 2 {
				t.Fatalf("round %d: farthest pair only %d hops", round, hops)
			}
			dst, _ := nw.Nodes[b].Addr()
			tcpEcho(t, nw.Nodes[a].S, nw.Nodes[b].S, dst, uint16(9000+round),
				bytes.Repeat([]byte{byte('a' + round)}, 4096))
		}

		// The crawl reaches every node regardless of what the storm
		// did to the data plane, and every discard is typed.
		r, err := crawler.Crawl(nw.Nodes[0].Name)
		if err != nil {
			t.Fatalf("round %d: crawl: %v", round, err)
		}
		if r.Crawled != nodes || len(r.Unreachable) != 0 {
			t.Fatalf("round %d: crawled %d/%d nodes, unreachable %v",
				round, r.Crawled, nodes, r.Unreachable)
		}
		for reason := range r.TotalDrops {
			if reason == "" {
				t.Fatalf("round %d: untyped drop reason in fleet report", round)
			}
		}
		report = r
	}

	// Leak audit: with every link healed and all traffic quiesced, the
	// pool gauge must return to its pre-soak level — churn left no
	// orphaned mbufs in any of the N nodes' queues.  Simulated time
	// runs while this goroutine sleeps between polls, so reassembly and
	// ND expirations all fire.
	nw.HealAll()
	if !testnet.Until(nw.Clock, 5*time.Minute, func() bool {
		return nw.Pending() == 0 && mbuf.Outstanding() == base
	}) {
		t.Fatalf("pool gauge stuck at %d (baseline %d) after %d churn events — leaked mbufs",
			mbuf.Outstanding(), base, events)
	}

	t.Logf("soak: %d nodes, %d links, %d churn events, %d transit packets (%d cached), drops: %v",
		nodes, len(nw.Links), events, report.TotalForwarded, report.TotalFwdCacheHits, report.TotalDrops)

	if path := os.Getenv("TOPO_REPORT"); path != "" {
		final, err := crawler.Crawl(nw.Nodes[0].Name)
		if err != nil {
			t.Fatalf("final crawl: %v", err)
		}
		blob, _ := json.MarshalIndent(final, "", "  ")
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatalf("writing TOPO_REPORT: %v", err)
		}
		t.Logf("fleet report written to %s", path)
	}
}
