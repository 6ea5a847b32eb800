package tunnel_test

import (
	"testing"
	"time"

	"bsd6/internal/inet"
	"bsd6/internal/ipv4"
	"bsd6/internal/ipv6"
	"bsd6/internal/mbuf"
	"bsd6/internal/netif"
	"bsd6/internal/proto"
	"bsd6/internal/route"
	"bsd6/internal/stat"
	"bsd6/internal/testnet"
	"bsd6/internal/tunnel"
)

//
// Crafting helpers: hand-built outer/inner packets for the decap
// validation scenarios, where the attacker controls every byte.
//

func outer4(src, dst inet.IP4, p uint8, payload []byte) *mbuf.Mbuf {
	h := &ipv4.Header{TotalLen: ipv4.HeaderLen + len(payload), TTL: 64,
		Proto: p, Src: src, Dst: dst}
	pkt := mbuf.New(h.Marshal(nil))
	pkt.Append(payload)
	return pkt
}

func outer6(src, dst inet.IP6, nh uint8, payload []byte) *mbuf.Mbuf {
	h := &ipv6.Header{NextHdr: nh, HopLimit: 64, PayloadLen: len(payload),
		Src: src, Dst: dst}
	pkt := mbuf.New(h.Marshal(nil))
	pkt.Append(payload)
	return pkt
}

func inner6(src, dst inet.IP6, nh uint8, payload []byte) []byte {
	h := &ipv6.Header{NextHdr: nh, HopLimit: 64, PayloadLen: len(payload),
		Src: src, Dst: dst}
	return append(h.Marshal(nil), payload...)
}

func inner4(src, dst inet.IP4, p uint8, payload []byte) []byte {
	h := &ipv4.Header{TotalLen: ipv4.HeaderLen + len(payload), TTL: 64,
		Proto: p, Src: src, Dst: dst}
	return append(h.Marshal(nil), payload...)
}

// addInner4 puts an IPv4 address and its connected route on a tunnel
// device, the way Join does for ethernet interfaces.
func addInner4(n *testnet.Node, ifp *netif.Interface, addr inet.IP4, plen int) {
	ifp.AddAddr4(netif.Addr4{Addr: addr, Plen: plen})
	netAddr := addr
	m := inet.Mask4(plen)
	for i := range netAddr {
		netAddr[i] &= m[i]
	}
	n.RT.Add(&route.Entry{Family: inet.AFInet, Dst: netAddr[:], Plen: plen,
		Flags: route.FlagUp | route.FlagCloning, IfName: ifp.Name})
}

// TestPing6in4 is the classic transition scenario: two IPv6 islands
// joined by a configured tunnel across an IPv4-only core.  An echo
// round-trips, and every frame the core carried is protocol-41 IPv4.
func TestPing6in4(t *testing.T) {
	sim := testnet.NewSim()
	hub := sim.NewHub()
	a := sim.NewNode("a")
	b := sim.NewNode("b")
	v4A, v4B := inet.IP4{10, 0, 0, 1}, inet.IP4{10, 0, 0, 2}
	a.Join(hub, testnet.MacA, 1500, v4A, 24)
	b.Join(hub, testnet.MacB, 1500, v4B, 24)

	tunA := a.AddTunnel(t, tunnel.Config{Name: "tun0", Mode: tunnel.Mode6in4,
		Local4: v4A, Remote4: v4B})
	tunB := b.AddTunnel(t, tunnel.Config{Name: "tun0", Mode: tunnel.Mode6in4,
		Local4: v4B, Remote4: v4A})
	if tunA.Ifp.MTU() != 1500-ipv4.HeaderLen {
		t.Fatalf("tunnel device MTU %d, want link 1500 - %d encap", tunA.Ifp.MTU(), ipv4.HeaderLen)
	}
	a6 := testnet.IP6(t, "fd00::1")
	b6 := testnet.IP6(t, "fd00::2")
	a.AddGlobal6(tunA.Ifp, a6, 64)
	b.AddGlobal6(tunB.Ifp, b6, 64)

	// Every frame on the core must be IPv4; count the protocol-41 ones.
	wire41 := 0
	hub.Capture = func(fr netif.Frame) {
		if fr.EtherType == netif.EtherTypeIPv6 {
			t.Error("raw IPv6 frame on the v4-only core")
		}
		if fr.EtherType != netif.EtherTypeIPv4 {
			return
		}
		if h, _, err := ipv4.Parse(fr.Payload.Bytes()); err == nil && h.Proto == proto.IPv6 {
			wire41++
		}
	}

	if err := a.ICMP6.SendEcho(b6, 7, 1, []byte("island to island")); err != nil {
		t.Fatal(err)
	}
	sim.WaitFor(t, "echo reply through 6in4", func() bool {
		return a.ICMP6.Stats.InEchoReps.Get() >= 1
	})
	if got := tunA.Stats(); got.Encapped < 1 || got.Decapped < 1 {
		t.Fatalf("tunA stats %+v: want encap and decap activity", got)
	}
	if got := tunB.Stats(); got.Encapped < 1 || got.Decapped < 1 {
		t.Fatalf("tunB stats %+v: want encap and decap activity", got)
	}
	if wire41 < 2 {
		t.Fatalf("saw %d protocol-41 frames on the core, want request+reply", wire41)
	}
}

// TestPing4in6 is the reverse transition: IPv4 islands across an
// IPv6-only core.
func TestPing4in6(t *testing.T) {
	sim := testnet.NewSim()
	hub := sim.NewHub()
	a := sim.NewNode("a")
	b := sim.NewNode("b")
	// v6-only core: no v4 addresses on the ethernet side.
	a.Join(hub, testnet.MacA, 1500, inet.IP4{}, 0)
	b.Join(hub, testnet.MacB, 1500, inet.IP4{}, 0)
	core6A := testnet.IP6(t, "2001:db8:c0::1")
	core6B := testnet.IP6(t, "2001:db8:c0::2")
	a.AddGlobal6(a.Ifps[0], core6A, 64)
	b.AddGlobal6(b.Ifps[0], core6B, 64)

	tunA := a.AddTunnel(t, tunnel.Config{Name: "tun0", Mode: tunnel.Mode4in6,
		Local6: core6A, Remote6: core6B})
	tunB := b.AddTunnel(t, tunnel.Config{Name: "tun0", Mode: tunnel.Mode4in6,
		Local6: core6B, Remote6: core6A})
	if tunA.Ifp.MTU() != 1500-ipv6.HeaderLen {
		t.Fatalf("tunnel device MTU %d, want link 1500 - %d encap", tunA.Ifp.MTU(), ipv6.HeaderLen)
	}
	v4A, v4B := inet.IP4{192, 168, 7, 1}, inet.IP4{192, 168, 7, 2}
	addInner4(a, tunA.Ifp, v4A, 24)
	addInner4(b, tunB.Ifp, v4B, 24)

	hub.Capture = func(fr netif.Frame) {
		if fr.EtherType == netif.EtherTypeIPv4 {
			t.Error("raw IPv4 frame on the v6-only core")
		}
	}

	if err := a.ICMP4.SendEcho(v4B, 7, 1, []byte("v4 island")); err != nil {
		t.Fatal(err)
	}
	sim.WaitFor(t, "echo reply through 4in6", func() bool {
		return a.ICMP4.Stats.InEchoReps.Get() >= 1
	})
	if got := tunB.Stats(); got.Decapped < 1 {
		t.Fatalf("tunB stats %+v: want decap activity", got)
	}
}

// TestDecapValidation exercises every typed refusal on the
// decapsulation path with hand-crafted hostile packets, then one
// well-formed packet to prove the gauntlet still admits real traffic.
func TestDecapValidation(t *testing.T) {
	sim := testnet.NewSim()
	hub := sim.NewHub()
	b := sim.NewNode("b")
	v4Local, v4Peer := inet.IP4{10, 0, 0, 2}, inet.IP4{10, 0, 0, 1}
	b.Join(hub, testnet.MacB, 1500, v4Local, 24)
	eth := b.Ifps[0]
	local6 := testnet.IP6(t, "fd00:cafe::2")
	peer6 := testnet.IP6(t, "fd00:cafe::1")
	peer66 := testnet.IP6(t, "fd00:cafe::3")
	b.AddGlobal6(eth, local6, 64)

	tun46 := b.AddTunnel(t, tunnel.Config{Name: "gif0", Mode: tunnel.Mode6in4,
		Local4: v4Local, Remote4: v4Peer})
	b.AddTunnel(t, tunnel.Config{Name: "gif1", Mode: tunnel.Mode4in6,
		Local6: local6, Remote6: peer6})
	tun66 := b.AddTunnel(t, tunnel.Config{Name: "gif2", Mode: tunnel.Mode6in6,
		Local6: local6, Remote6: peer66})

	islandSrc := testnet.IP6(t, "2001:db8::9")
	get := func(r stat.Reason) uint64 { return b.Drops.Reasons.Get(r) }

	// 1. Protocol-41 traffic from an address no tunnel is configured
	// to: RFC 4213's decapsulation check.
	b.V4.Input(eth, outer4(inet.IP4{10, 0, 0, 9}, v4Local, proto.IPv6,
		inner6(islandSrc, local6, proto.UDP, []byte("x"))))
	if got := get(stat.RTunNoEndpoint); got != 1 {
		t.Fatalf("unknown endpoint: RTunNoEndpoint = %d, want 1", got)
	}

	// 2. A known endpoint sending the wrong inner protocol for its
	// configured mode: gif1 is 4in6, but here comes next-header 41.
	b.V6.Input(eth, outer6(peer6, local6, proto.IPv6,
		inner6(islandSrc, local6, proto.UDP, []byte("x"))))
	if got := get(stat.RTunAFMismatch); got != 1 {
		t.Fatalf("mode mismatch: RTunAFMismatch = %d, want 1", got)
	}

	// 3. Valid endpoints, but the bytes inside are not the promised
	// protocol version.
	b.V4.Input(eth, outer4(v4Peer, v4Local, proto.IPv6,
		inner4(inet.IP4{172, 16, 0, 1}, inet.IP4{172, 16, 0, 2}, proto.UDP, []byte("x"))))
	if got := get(stat.RTunBadHeader); got != 1 {
		t.Fatalf("bad inner version: RTunBadHeader = %d, want 1", got)
	}

	// 4. Martian inner sources: an outer-path attacker must not source
	// multicast (v6) or loopback (v4) traffic "from inside" the tunnel.
	b.V4.Input(eth, outer4(v4Peer, v4Local, proto.IPv6,
		inner6(inet.AllNodes, local6, proto.UDP, []byte("x"))))
	b.V6.Input(eth, outer6(peer6, local6, proto.IPv4,
		inner4(inet.IP4{127, 0, 0, 1}, inet.IP4{192, 168, 7, 2}, proto.UDP, []byte("x"))))
	if got := get(stat.RTunMartian); got != 2 {
		t.Fatalf("martian inner sources: RTunMartian = %d, want 2", got)
	}

	if got := tun46.Stats(); got.Decapped != 0 {
		t.Fatalf("hostile packets decapped: %+v", got)
	}

	// 5. The same gauntlet admits a well-formed packet: inner UDP lands
	// in the protocol switch with the tunnel device as receive context.
	var delivered [][]byte
	b.V6.Register(proto.UDP, func(pkt *mbuf.Mbuf, _ proto.Meta) {
		delivered = append(delivered, pkt.CopyBytes())
	}, nil)
	b.V4.Input(eth, outer4(v4Peer, v4Local, proto.IPv6,
		inner6(islandSrc, local6, proto.UDP, []byte("payload"))))
	if len(delivered) != 1 || string(delivered[0]) != "payload" {
		t.Fatalf("valid encapsulated UDP not delivered: %q", delivered)
	}
	if got := tun46.Stats(); got.Decapped != 1 {
		t.Fatalf("tun46 stats %+v, want Decapped 1", got)
	}
	_ = tun66
}

// TestDecapNestLimit proves a crafted matryoshka packet terminates at
// the nesting limit instead of cycling through the input path: a
// packet nested DefaultNestLimit deep is opened to its core, one
// nested a level deeper charges the limit.
func TestDecapNestLimit(t *testing.T) {
	sim := testnet.NewSim()
	hub := sim.NewHub()
	b := sim.NewNode("b")
	v4Local, v4Peer := inet.IP4{10, 0, 0, 2}, inet.IP4{10, 0, 0, 1}
	b.Join(hub, testnet.MacB, 1500, v4Local, 24)
	eth := b.Ifps[0]
	local6 := testnet.IP6(t, "fd00:cafe::2")
	peer66 := testnet.IP6(t, "fd00:cafe::3")
	b.AddGlobal6(eth, local6, 64)

	b.AddTunnel(t, tunnel.Config{Name: "gif0", Mode: tunnel.Mode6in4,
		Local4: v4Local, Remote4: v4Peer})
	b.AddTunnel(t, tunnel.Config{Name: "gif2", Mode: tunnel.Mode6in6,
		Local6: local6, Remote6: peer66})
	var delivered int
	b.V6.Register(proto.UDP, func(pkt *mbuf.Mbuf, _ proto.Meta) {
		delivered++
		pkt.Free()
	}, nil)

	// matryoshka(n) is v4[ v6(peer66->us, nh 41)[ ... v6(island->us,
	// UDP) ] ], which takes n decapsulations to open, the v4 one first.
	matryoshka := func(decaps int) *mbuf.Mbuf {
		p := inner6(testnet.IP6(t, "2001:db8::9"), local6, proto.UDP, []byte("x"))
		for range decaps - 1 {
			p = inner6(peer66, local6, proto.IPv6, p)
		}
		return outer4(v4Peer, v4Local, proto.IPv6, p)
	}
	b.V4.Input(eth, matryoshka(tunnel.DefaultNestLimit))
	if got := b.Drops.Reasons.Get(stat.RTunNestLimit); got != 0 || delivered != 1 {
		t.Fatalf("decap at the limit: RTunNestLimit = %d, %d delivered; want 0, 1", got, delivered)
	}
	b.V4.Input(eth, matryoshka(tunnel.DefaultNestLimit+1))
	if got := b.Drops.Reasons.Get(stat.RTunNestLimit); got != 1 || delivered != 1 {
		t.Fatalf("decap past the limit: RTunNestLimit = %d, %d delivered; want 1, 1", got, delivered)
	}
}

// TestEncapSelfNestTerminates routes a tunnel's own outer endpoint
// back into the tunnel — the classic encapsulation loop — and proves
// the nest limit terminates it after exactly NestLimit encapsulations.
func TestEncapSelfNestTerminates(t *testing.T) {
	sim := testnet.NewSim()
	n := sim.NewNode("n")
	local6 := testnet.IP6(t, "fd00::1")
	remote6 := testnet.IP6(t, "fd00::2")
	tun := n.AddTunnel(t, tunnel.Config{Name: "gif0", Mode: tunnel.Mode6in6,
		Local6: local6, Remote6: remote6})
	n.AddGlobal6(tun.Ifp, local6, 64)
	// The outer destination routes into the tunnel itself.
	n.RT.Add(&route.Entry{Family: inet.AFInet6, Dst: remote6[:], Plen: 128,
		Flags: route.FlagUp | route.FlagHost, IfName: tun.Ifp.Name})

	if err := n.ICMP6.SendEcho(remote6, 1, 1, []byte("loop")); err != nil {
		t.Fatal(err)
	}
	if got := n.Drops.Reasons.Get(stat.RTunNestLimit); got != 1 {
		t.Fatalf("self-routed tunnel: RTunNestLimit = %d, want 1", got)
	}
	if got := tun.Stats().Encapped; got != tunnel.DefaultNestLimit {
		t.Fatalf("encapped %d times before terminating, want %d", got, tunnel.DefaultNestLimit)
	}
}

// ptbWorld is the three-node nested-PMTU topology: tunnel heads A and
// B joined by v4 router R whose far side is narrower than the tunnel
// believed.
type ptbWorld struct {
	sim        *testnet.Sim
	hub1, hub2 *netif.Hub
	a, r, b    *testnet.Node
	tunA, tunB *tunnel.Tunnel
	a6, b6     inet.IP6
}

func newPTBWorld(t *testing.T, narrowMTU int) *ptbWorld {
	w := &ptbWorld{sim: testnet.NewSim()}
	w.hub1, w.hub2 = w.sim.NewHub(), w.sim.NewHub()
	w.a, w.r, w.b = w.sim.NewNode("a"), w.sim.NewNode("r"), w.sim.NewNode("b")

	v4A := inet.IP4{10, 0, 1, 1}
	v4B := inet.IP4{10, 0, 2, 2}
	w.a.Join(w.hub1, testnet.MacA, 1500, v4A, 24)
	w.r.Join(w.hub1, testnet.MacR, 1500, inet.IP4{10, 0, 1, 254}, 24)
	w.r.Join(w.hub2, testnet.MacS, narrowMTU, inet.IP4{10, 0, 2, 254}, 24)
	w.b.Join(w.hub2, testnet.MacB, narrowMTU, v4B, 24)
	w.r.V4.Forwarding = true
	w.a.DefaultVia4(inet.IP4{10, 0, 1, 254}, w.a.Ifps[0].Name)
	w.b.DefaultVia4(inet.IP4{10, 0, 2, 254}, w.b.Ifps[0].Name)

	// A still believes the whole outer path is 1500: the narrowing is
	// what the nested-PMTU translation must discover.
	w.tunA = w.a.AddTunnel(t, tunnel.Config{Name: "tun0", Mode: tunnel.Mode6in4,
		Local4: v4A, Remote4: v4B, LinkMTU: 1500})
	w.tunB = w.b.AddTunnel(t, tunnel.Config{Name: "tun0", Mode: tunnel.Mode6in4,
		Local4: v4B, Remote4: v4A, LinkMTU: narrowMTU})
	w.a6 = testnet.IP6(t, "fd00::1")
	w.b6 = testnet.IP6(t, "fd00::2")
	w.a.AddGlobal6(w.tunA.Ifp, w.a6, 64)
	w.b.AddGlobal6(w.tunB.Ifp, w.b6, 64)
	return w
}

// TestNestedPTBTranslation drives the tentpole's PMTU story end to
// end: an oversized outer packet draws frag-needed from the v4 core,
// the tunnel head narrows its device MTU by the encap overhead and
// relays an inner Packet Too Big, and the retried inner traffic gets
// through.
func TestNestedPTBTranslation(t *testing.T) {
	w := newPTBWorld(t, 1400)

	// Inner packet sized exactly to the device MTU (1480): encap makes
	// a 1500-byte DF outer that cannot cross R's 1400-byte far side.
	big := make([]byte, 1480-ipv6.HeaderLen-8)
	if err := w.a.ICMP6.SendEcho(w.b6, 1, 1, big); err != nil {
		t.Fatal(err)
	}
	w.sim.WaitFor(t, "tunnel MTU narrowed by translated frag-needed", func() bool {
		return w.tunA.Ifp.MTU() == 1400-ipv4.HeaderLen
	})
	if got := w.tunA.Stats().PMTUUpdates; got < 1 {
		t.Fatalf("PMTUUpdates = %d, want >= 1", got)
	}
	// The relayed *inner* PTB looped back into A's own ICMPv6 machinery
	// and updated the host route toward B's island address.
	w.sim.WaitFor(t, "inner PTB relayed to A's PMTU cache", func() bool {
		return w.a.ICMP6.Stats.PmtuUpdates.Get() >= 1
	})

	// Retry: the same inner size now source-fragments at the narrowed
	// device MTU, each fragment fitting the outer path — delivery
	// completes with no further loss.
	if err := w.a.ICMP6.SendEcho(w.b6, 1, 2, big); err != nil {
		t.Fatal(err)
	}
	w.sim.WaitFor(t, "oversized echo delivered after narrowing", func() bool {
		return w.a.ICMP6.Stats.InEchoReps.Get() >= 1
	})
}

// TestNestedPTBFloor pins the clamp: a path narrower than the IPv6
// minimum link MTU (or a forged tiny frag-needed) must floor the
// inner budget at ipv6.MinMTU, never below.
func TestNestedPTBFloor(t *testing.T) {
	w := newPTBWorld(t, 500) // 500 - 20 = 480 < ipv6.MinMTU

	big := make([]byte, 1480-ipv6.HeaderLen-8)
	if err := w.a.ICMP6.SendEcho(w.b6, 1, 1, big); err != nil {
		t.Fatal(err)
	}
	w.sim.WaitFor(t, "tunnel MTU floored at the v6 minimum", func() bool {
		return w.tunA.Ifp.MTU() == ipv6.MinMTU
	})
}

// TestNestedPTBHostileLink is the adversarial variant: the link
// carrying the frag-needed signal loses, duplicates, and corrupts
// frames.  Corrupted PTBs must be rejected by the checksums (never
// mis-applied), duplicates must be idempotent, and losses must only
// delay — after enough retries the tunnel converges on exactly the
// true inner MTU and traffic flows.
func TestNestedPTBHostileLink(t *testing.T) {
	w := newPTBWorld(t, 1400)
	w.hub1.SetFaults(netif.Faults{Loss: 0.25, Duplicate: 0.25, Corrupt: 0.15})
	w.hub1.SetSeed(42)

	big := make([]byte, 1480-ipv6.HeaderLen-8)
	want := 1400 - ipv4.HeaderLen
	for i := 0; i < 50 && w.tunA.Ifp.MTU() != want; i++ {
		if err := w.a.ICMP6.SendEcho(w.b6, 1, uint16(i), big); err != nil {
			t.Fatal(err)
		}
		w.sim.Run(500 * time.Millisecond)
	}
	if got := w.tunA.Ifp.MTU(); got != want {
		t.Fatalf("tunnel MTU %d after hostile-link retries, want %d", got, want)
	}

	// Clean the link and prove the narrowed path actually carries the
	// oversized inner traffic.
	w.hub1.SetFaults(netif.Faults{})
	if err := w.a.ICMP6.SendEcho(w.b6, 2, 1, big); err != nil {
		t.Fatal(err)
	}
	w.sim.WaitFor(t, "echo after hostile-link convergence", func() bool {
		return w.a.ICMP6.Stats.InEchoReps.Get() >= 1
	})
}

// FuzzTunnel throws arbitrary bytes at the decapsulation gauntlet of
// all three tunnel modes.  The invariant is totality: every input is
// either delivered or charged to a typed drop reason — never a panic,
// never a hang.
func FuzzTunnel(f *testing.F) {
	island := inet.IP6{0x20, 0x01, 0x0d, 0xb8, 15: 9}
	local6 := inet.IP6{0xfd, 0, 0xca, 0xfe, 15: 2}
	f.Add([]byte{}, byte(0))
	f.Add(inner6(island, local6, proto.UDP, []byte("ok")), byte(0))
	f.Add(inner6(island, local6, proto.IPv6, []byte("nest")), byte(2))
	f.Add(inner4(inet.IP4{192, 168, 7, 9}, inet.IP4{192, 168, 7, 2}, proto.UDP, nil), byte(1))
	f.Add([]byte{0x60, 0, 0, 0, 0xff, 0xff}, byte(0))
	f.Fuzz(func(t *testing.T, data []byte, sel byte) {
		if len(data) > 2048 {
			return
		}
		sim := testnet.NewSim()
		hub := sim.NewHub()
		n := sim.NewNode("fz")
		v4Local, v4Peer := inet.IP4{10, 0, 0, 2}, inet.IP4{10, 0, 0, 1}
		n.Join(hub, testnet.MacA, 1500, v4Local, 24)
		eth := n.Ifps[0]
		peer6 := inet.IP6{0xfd, 0, 0xca, 0xfe, 15: 1}
		n.AddGlobal6(eth, local6, 64)
		n.AddTunnel(t, tunnel.Config{Name: "gif0", Mode: tunnel.Mode6in4,
			Local4: v4Local, Remote4: v4Peer})
		n.AddTunnel(t, tunnel.Config{Name: "gif1", Mode: tunnel.Mode4in6,
			Local6: local6, Remote6: peer6})
		n.AddTunnel(t, tunnel.Config{Name: "gif2", Mode: tunnel.Mode6in6,
			Local6: local6, Remote6: peer6})
		switch sel % 3 {
		case 0:
			n.V4.Input(eth, outer4(v4Peer, v4Local, proto.IPv6, data))
		case 1:
			n.V6.Input(eth, outer6(peer6, local6, proto.IPv4, data))
		case 2:
			n.V6.Input(eth, outer6(peer6, local6, proto.IPv6, data))
		}
		sim.Run(100 * time.Millisecond)
	})
}
