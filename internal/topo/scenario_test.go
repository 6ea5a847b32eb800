package topo

// Multi-hop scenario suites: the behaviors the paper could not show
// on a two-host wire, run on generated topologies — PMTU discovery
// across a chain of routers with shrinking MTUs, an RA-driven
// autoconf cascade down a tree, and a tunnel island bridged across a
// routed core.

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"bsd6/internal/core"
	"bsd6/internal/inet"
	"bsd6/internal/testnet"
	"bsd6/internal/tunnel"
)

// tcpEcho runs one stream connection from a to b's addr:port, pushes
// body over it, and fails unless the byte-reversed echo comes back
// intact — a full three-way handshake, data transfer and close across
// however many routers sit between the two nodes.
func tcpEcho(t *testing.T, a, b *core.Stack, dst inet.IP6, port uint16, body []byte) {
	t.Helper()
	l, err := b.NewSocket(inet.AFInet6, core.SockStream)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Bind(core.Sockaddr6{Family: inet.AFInet6, Port: port}); err != nil {
		t.Fatal(err)
	}
	if err := l.Listen(1); err != nil {
		t.Fatal(err)
	}
	back := make([]byte, len(body))
	for i, c := range body {
		back[len(body)-1-i] = c
	}
	serve := testnet.Spawn(b.Clock(), func() error {
		s, err := l.Accept(5 * time.Minute)
		if err != nil {
			return fmt.Errorf("accept: %w", err)
		}
		defer s.Close()
		var rcvd []byte
		for len(rcvd) < len(body) {
			chunk, err := s.Recv(1<<16, 5*time.Minute)
			if err != nil {
				return fmt.Errorf("recv at %d: %w", len(rcvd), err)
			}
			rcvd = append(rcvd, chunk...)
		}
		if !bytes.Equal(rcvd, body) {
			return fmt.Errorf("forward stream corrupted (%d bytes)", len(rcvd))
		}
		if _, err := s.Send(back, 5*time.Minute); err != nil {
			return fmt.Errorf("send back: %w", err)
		}
		return nil
	})
	c, err := a.NewSocket(inet.AFInet6, core.SockStream)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Connect(core.Addr6(dst, port), 5*time.Minute); err != nil {
		t.Fatalf("connect: %v", err)
	}
	rest := body
	for len(rest) > 0 {
		n, err := c.Send(rest, 5*time.Minute)
		if err != nil {
			t.Fatalf("send: %v", err)
		}
		rest = rest[n:]
	}
	var got []byte
	for len(got) < len(back) {
		chunk, err := c.Recv(1<<16, 5*time.Minute)
		if err != nil {
			t.Fatalf("recv echo at %d: %v", len(got), err)
		}
		got = append(got, chunk...)
	}
	if !bytes.Equal(got, back) {
		t.Fatal("echoed stream corrupted")
	}
	if err := serve(); err != nil {
		t.Fatal(err)
	}
}

// TestPMTUChainConvergence sends an oversized echo down a line of five
// routers whose link MTUs shrink hop by hop.  Each router reports
// Packet Too Big instead of fragmenting (§2.2); the source's host
// route walks down 1460 → 1420 → … until it learns the 1300-byte path
// minimum and the fragmented echo finally crosses end to end.
func TestPMTUChainConvergence(t *testing.T) {
	const minMTU = 1300
	nw := buildStart(t, Spec{Kind: Line, N: 7, Seed: 1,
		LinkMTUFn: func(l int) int { return 1500 - 40*l }, // 1500,1460,…,1300
	})
	src, dstNode := nw.Nodes[0], nw.Nodes[6]
	dst, _ := dstNode.Addr()
	payload := make([]byte, 1400) // 1448 on the wire: over every MTU past link 1

	replies := func() uint64 { return src.S.Snapshot().ICMP6["InEchoReps"] }
	pmtus := func() uint64 { return src.S.Snapshot().ICMP6["PmtuUpdates"] }
	base, lastPmtu := replies(), pmtus()
	for attempt := 0; attempt < 12 && replies() == base; attempt++ {
		if err := src.S.Ping6(dst, 7, uint16(attempt), payload); err != nil {
			t.Fatal(err)
		}
		// Progress is either the reply or a narrower PMTU to retry at.
		if !testnet.Until(nw.Clock, 2*time.Second, func() bool {
			return replies() > base || pmtus() > lastPmtu
		}) {
			t.Fatalf("attempt %d: no reply and no PMTU progress", attempt)
		}
		lastPmtu = pmtus()
	}
	if replies() == base {
		t.Fatal("echo never crossed the shrinking-MTU chain")
	}

	// The source's host route converged on the path minimum.
	rt, ok := src.S.RT.Lookup(inet.AFInet6, dst[:])
	if !ok {
		t.Fatal("no route to dst after pinging it")
	}
	var mtu int
	var host bool
	src.S.RT.View(func() { mtu, host = rt.MTU, rt.Host() })
	if !host || mtu != minMTU {
		t.Fatalf("source host route MTU = %d (host=%v), want %d", mtu, host, minMTU)
	}
	if pmtus() < 3 {
		t.Errorf("PmtuUpdates = %d: the chain should narrow at least 3 times", pmtus())
	}
	// IPv6 routers never fragment in transit; only the source does.
	for i := 1; i <= 5; i++ {
		if f := nw.Nodes[i].S.Snapshot().IP6["OutFrags"]; f != 0 {
			t.Errorf("router n%d fragmented %d packets in transit", i, f)
		}
	}
	if f := src.S.Snapshot().IP6["OutFrags"]; f < 2 {
		t.Errorf("source OutFrags = %d: converged echo should be fragmented", f)
	}
}

// TestAutoconfCascadeTree boots a tree whose leaves are unnumbered
// hosts: interior routers advertise their link prefixes, SolicitLeaves
// kicks the RA cascade, and every leaf must form a global address and
// a default route good enough to reach a leaf on the far side of the
// tree — §4.2's plug-and-play, three router hops deep.
func TestAutoconfCascadeTree(t *testing.T) {
	nw := buildStart(t, Spec{Kind: Tree, N: 7, Fanout: 2, Seed: 2, Autoconf: true})
	nw.SolicitLeaves()

	leaves := []int{3, 4, 5, 6}
	for _, id := range leaves {
		id := id
		testnet.WaitClock(t, nw.Clock, fmt.Sprintf("n%d autoconf address", id), func() bool {
			_, ok := nw.Nodes[id].AutoAddr()
			return ok
		})
	}
	// Leaf-to-leaf across the whole tree: n3 under n1, n6 under n2.
	dst, _ := nw.Nodes[6].AutoAddr()
	src := nw.Nodes[3]
	before := src.S.Snapshot().ICMP6["InEchoReps"]
	if err := src.S.Ping6(dst, 3, 6, []byte("autoconf")); err != nil {
		t.Fatal(err)
	}
	testnet.WaitFor(t, "leaf-to-leaf echo reply", func() bool {
		return src.S.Snapshot().ICMP6["InEchoReps"] > before
	})
	// The path used the RA-installed default route on both ends and
	// transited the root.
	if f := nw.Nodes[0].S.Snapshot().IP6["Forwarded"]; f == 0 {
		t.Error("root forwarded nothing: cascade did not cross the tree")
	}
}

// TestTunnelIslandAcrossCore bridges two island edge nodes with a 6in6
// configured tunnel whose outer path crosses a routed line core: inner
// fd00::/64 traffic must encapsulate at one end, transit three routers
// as outer packets, and decapsulate at the other — then carry a TCP
// stream both ways.
func TestTunnelIslandAcrossCore(t *testing.T) {
	nw := buildStart(t, Spec{Kind: Line, N: 5, Seed: 3})
	a, b := nw.Nodes[0], nw.Nodes[4]
	outerA, _ := a.Addr()
	outerB, _ := b.Addr()

	tunA, err := a.S.AddTunnel(tunnel.Config{Name: "tun0", Mode: tunnel.Mode6in6,
		Local6: outerA, Remote6: outerB})
	if err != nil {
		t.Fatal(err)
	}
	tunB, err := b.S.AddTunnel(tunnel.Config{Name: "tun0", Mode: tunnel.Mode6in6,
		Local6: outerB, Remote6: outerA})
	if err != nil {
		t.Fatal(err)
	}
	island := func(host byte) inet.IP6 { return inet.IP6{0xfd, 15: host} }
	if err := a.S.ConfigureV6(tunA.Ifp, island(1), 64); err != nil {
		t.Fatal(err)
	}
	if err := b.S.ConfigureV6(tunB.Ifp, island(2), 64); err != nil {
		t.Fatal(err)
	}

	before := a.S.Snapshot().ICMP6["InEchoReps"]
	if err := a.S.Ping6(island(2), 9, 1, []byte("island")); err != nil {
		t.Fatal(err)
	}
	testnet.WaitFor(t, "tunneled echo reply", func() bool {
		return a.S.Snapshot().ICMP6["InEchoReps"] > before
	})
	if s := tunA.Stats(); s.Encapped == 0 {
		t.Fatalf("tunA stats %+v: nothing encapsulated", s)
	}
	if s := tunB.Stats(); s.Decapped == 0 {
		t.Fatalf("tunB stats %+v: nothing decapsulated", s)
	}
	// The core only ever saw outer packets, and it forwarded them.
	for i := 1; i <= 3; i++ {
		if f := nw.Nodes[i].S.Snapshot().IP6["Forwarded"]; f == 0 {
			t.Errorf("core router n%d forwarded nothing", i)
		}
	}
	tcpEcho(t, a.S, b.S, island(2), 7777, bytes.Repeat([]byte("island-stream"), 512))
}
