package core_test

// Full-stack tests for the tunnel devices: dual-stack islands joined
// across a core of the other protocol, TCP transfers riding the
// encap/decap re-entry paths, nested PMTU discovery against a narrow
// middle, a tunnel stream pinned to its golden wire trace, and
// tunnel-mode IPsec composing over the same re-entry.

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"bsd6/internal/core"
	"bsd6/internal/inet"
	"bsd6/internal/ipsec"
	"bsd6/internal/ipv4"
	"bsd6/internal/key"
	"bsd6/internal/mbuf"
	"bsd6/internal/netif"
	"bsd6/internal/testnet"
	"bsd6/internal/tunnel"
)

func islandBody(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*11 + i>>8 + 5)
	}
	return b
}

// streamEcho moves body cli→srv and a reversed copy srv→cli on one
// connection, failing unless both directions arrive byte-identical.
func streamEcho(t *testing.T, cli, srv *core.Stack, family inet.Family, dial core.Sockaddr6, body []byte) {
	t.Helper()
	l, err := srv.NewSocket(family, core.SockStream)
	if err != nil {
		t.Fatal(err)
	}
	l.SetBuffers(1<<20, 1<<20)
	if err := l.Bind(core.Sockaddr6{Family: family, Port: dial.Port}); err != nil {
		t.Fatal(err)
	}
	if err := l.Listen(1); err != nil {
		t.Fatal(err)
	}
	back := make([]byte, len(body))
	for i, c := range body {
		back[len(body)-1-i] = c
	}
	serve := testnet.Spawn(srv.Clock(), func() error {
		s, err := l.Accept(5 * time.Minute)
		if err != nil {
			return fmt.Errorf("accept: %w", err)
		}
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

	c, err := cli.NewSocket(family, core.SockStream)
	if err != nil {
		t.Fatal(err)
	}
	c.SetBuffers(1<<20, 1<<20)
	if err := c.Connect(dial, 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Send(body, 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	var got []byte
	for len(got) < len(back) {
		chunk, err := c.Recv(1<<16, 5*time.Minute)
		if err != nil {
			t.Fatalf("reverse recv at %d: %v", len(got), err)
		}
		got = append(got, chunk...)
	}
	if !bytes.Equal(got, back) {
		t.Fatalf("reverse stream corrupted (%d bytes)", len(got))
	}
	if err := serve(); err != nil {
		t.Fatal(err)
	}
}

// TestIslandTCPv6OverV4Core is the paper's deployment reality: two
// IPv6 islands, an IPv4-only core, a configured 6in4 tunnel — and a
// TCP connection whose every wire frame is IPv4.
func TestIslandTCPv6OverV4Core(t *testing.T) {
	e := newEnv(t)
	hub := e.hub()
	a := e.stack("a")
	b := e.stack("b")
	aIf := a.AttachLink(hub, testnet.MacA, 1500)
	bIf := b.AttachLink(hub, testnet.MacB, 1500)
	v4A, v4B := inet.IP4{10, 0, 0, 1}, inet.IP4{10, 0, 0, 2}
	a.ConfigureV4(aIf, v4A, 24)
	b.ConfigureV4(bIf, v4B, 24)

	tunA, err := a.AddTunnel(tunnel.Config{Name: "tun0", Mode: tunnel.Mode6in4, Local4: v4A, Remote4: v4B})
	if err != nil {
		t.Fatal(err)
	}
	tunB, err := b.AddTunnel(tunnel.Config{Name: "tun0", Mode: tunnel.Mode6in4, Local4: v4B, Remote4: v4A})
	if err != nil {
		t.Fatal(err)
	}
	a6, b6 := testnet.IP6(t, "fd00::1"), testnet.IP6(t, "fd00::2")
	a.ConfigureV6(tunA.Ifp, a6, 64)
	b.ConfigureV6(tunB.Ifp, b6, 64)

	var rawV6 int
	var mu sync.Mutex
	hub.Capture = func(fr netif.Frame) {
		if fr.EtherType == netif.EtherTypeIPv6 {
			mu.Lock()
			rawV6++
			mu.Unlock()
		}
	}
	e.start()

	streamEcho(t, a, b, inet.AFInet6, core.Addr6(b6, 8080), islandBody(256<<10))

	mu.Lock()
	leaked := rawV6
	mu.Unlock()
	if leaked != 0 {
		t.Fatalf("%d raw IPv6 frames crossed the v4-only core", leaked)
	}
	if s := tunA.Stats(); s.Encapped == 0 || s.Decapped == 0 {
		t.Fatalf("tunA stats %+v: transfer did not ride the tunnel", s)
	}
	if s := tunB.Stats(); s.Encapped == 0 || s.Decapped == 0 {
		t.Fatalf("tunB stats %+v: transfer did not ride the tunnel", s)
	}
	// The operator's view names the device and its activity.
	if out := a.Netstat(); !strings.Contains(out, "tunnel tun0 (6in4)") {
		t.Fatalf("netstat missing tunnel row:\n%s", out)
	}
}

// TestIslandTCPv4OverV6Core is the reverse transition: IPv4 islands,
// an IPv6-only core, a 4in6 tunnel.
func TestIslandTCPv4OverV6Core(t *testing.T) {
	e := newEnv(t)
	hub := e.hub()
	a := e.stack("a")
	b := e.stack("b")
	aIf := a.AttachLink(hub, testnet.MacA, 1500)
	bIf := b.AttachLink(hub, testnet.MacB, 1500)
	core6A := testnet.IP6(t, "2001:db8:c0::1")
	core6B := testnet.IP6(t, "2001:db8:c0::2")
	a.ConfigureV6(aIf, core6A, 64)
	b.ConfigureV6(bIf, core6B, 64)

	tunA, err := a.AddTunnel(tunnel.Config{Name: "tun0", Mode: tunnel.Mode4in6, Local6: core6A, Remote6: core6B})
	if err != nil {
		t.Fatal(err)
	}
	tunB, err := b.AddTunnel(tunnel.Config{Name: "tun0", Mode: tunnel.Mode4in6, Local6: core6B, Remote6: core6A})
	if err != nil {
		t.Fatal(err)
	}
	v4A, v4B := inet.IP4{192, 168, 7, 1}, inet.IP4{192, 168, 7, 2}
	a.ConfigureV4(tunA.Ifp, v4A, 24)
	b.ConfigureV4(tunB.Ifp, v4B, 24)

	var rawV4 int
	var mu sync.Mutex
	hub.Capture = func(fr netif.Frame) {
		if fr.EtherType == netif.EtherTypeIPv4 || fr.EtherType == ipv4.EtherTypeARP {
			mu.Lock()
			rawV4++
			mu.Unlock()
		}
	}
	e.start()

	streamEcho(t, a, b, inet.AFInet, core.Addr4(v4B, 8080), islandBody(256<<10))

	mu.Lock()
	leaked := rawV4
	mu.Unlock()
	if leaked != 0 {
		t.Fatalf("%d raw IPv4/ARP frames crossed the v6-only core", leaked)
	}
	if s := tunB.Stats(); s.Encapped == 0 || s.Decapped == 0 {
		t.Fatalf("tunB stats %+v: transfer did not ride the tunnel", s)
	}
}

// tcpPTBWorld: tunnel heads A and B joined by v4 router R whose far
// side is narrower than A's tunnel believes.
type tcpPTBWorld struct {
	e          *env
	hub1, hub2 *netif.Hub
	a, r, b    *core.Stack
	tunA, tunB *tunnel.Tunnel
	a6, b6     inet.IP6
}

func newTCPPTBWorld(t *testing.T) *tcpPTBWorld {
	w := &tcpPTBWorld{e: newEnv(t)}
	w.hub1, w.hub2 = w.e.hub(), w.e.hub()
	w.a, w.r, w.b = w.e.stack("a"), w.e.stack("r"), w.e.stack("b")

	// Only R's egress toward B is narrow.  Both tunnel heads sit on
	// 1500 links and honestly advertise 1500-derived MSS values, so
	// nothing caps the segment size a priori — the narrowing is only
	// discoverable through the router's frag-needed signal.
	aIf := w.a.AttachLink(w.hub1, testnet.MacA, 1500)
	r1 := w.r.AttachLink(w.hub1, testnet.MacR, 1500)
	r2 := w.r.AttachLink(w.hub2, testnet.MacS, 1400)
	bIf := w.b.AttachLink(w.hub2, testnet.MacB, 1500)
	v4A, v4B := inet.IP4{10, 0, 1, 1}, inet.IP4{10, 0, 2, 2}
	w.a.ConfigureV4(aIf, v4A, 24)
	w.r.ConfigureV4(r1, inet.IP4{10, 0, 1, 254}, 24)
	w.r.ConfigureV4(r2, inet.IP4{10, 0, 2, 254}, 24)
	w.b.ConfigureV4(bIf, v4B, 24)
	w.r.V4.Forwarding = true
	w.a.DefaultRoute4(inet.IP4{10, 0, 1, 254}, aIf.Name)
	w.b.DefaultRoute4(inet.IP4{10, 0, 2, 254}, bIf.Name)

	var err error
	// A believes the whole outer path is 1500-clean; discovering the
	// 1400 narrowing is the nested-PMTU machinery's job.
	w.tunA, err = w.a.AddTunnel(tunnel.Config{Name: "tun0", Mode: tunnel.Mode6in4,
		Local4: v4A, Remote4: v4B, LinkMTU: 1500})
	if err != nil {
		t.Fatal(err)
	}
	w.tunB, err = w.b.AddTunnel(tunnel.Config{Name: "tun0", Mode: tunnel.Mode6in4,
		Local4: v4B, Remote4: v4A, LinkMTU: 1500})
	if err != nil {
		t.Fatal(err)
	}
	w.a6, w.b6 = testnet.IP6(t, "fd00::1"), testnet.IP6(t, "fd00::2")
	w.a.ConfigureV6(w.tunA.Ifp, w.a6, 64)
	w.b.ConfigureV6(w.tunB.Ifp, w.b6, 64)
	return w
}

// TestTunnelNestedPTBWithTCP runs a TCP transfer into the narrow
// middle: full-MSS segments encapsulate to 1500-byte DF outers that
// die at R, the returned frag-needed narrows A's tunnel device by the
// encap overhead, the relayed inner Packet Too Big shrinks the
// connection's segment size, and the transfer completes intact.
func TestTunnelNestedPTBWithTCP(t *testing.T) {
	w := newTCPPTBWorld(t)
	w.e.start()

	streamEcho(t, w.a, w.b, inet.AFInet6, core.Addr6(w.b6, 9010), islandBody(96<<10))

	if got, want := w.tunA.Ifp.MTU(), 1400-ipv4.HeaderLen; got != want {
		t.Fatalf("tunnel MTU %d after transfer, want narrowed to %d", got, want)
	}
	if got := w.tunA.Stats().PMTUUpdates; got < 1 {
		t.Fatalf("PMTUUpdates = %d, want >= 1", got)
	}
	if got := w.a.ICMP6.Stats.PmtuUpdates.Get(); got < 1 {
		t.Fatalf("inner PTB never reached A's PMTU cache")
	}
}

// TestTunnelNestedPTBHostileLink repeats the narrow-middle transfer
// with the near link losing, duplicating, and corrupting frames —
// including the frag-needed signal itself.  TCP retransmission keeps
// regenerating the oversized outers, so a lost PTB is re-elicited;
// corrupted PTBs must die on checksums rather than mis-narrow the
// tunnel; and the transfer must still complete byte-identically with
// the device converged on exactly the true inner MTU.
func TestTunnelNestedPTBHostileLink(t *testing.T) {
	w := newTCPPTBWorld(t)
	w.hub1.SetFaults(netif.Faults{Loss: 0.03, Duplicate: 0.03, Corrupt: 0.02})
	w.hub1.SetSeed(7)
	w.e.start()

	streamEcho(t, w.a, w.b, inet.AFInet6, core.Addr6(w.b6, 9011), islandBody(64<<10))

	if got, want := w.tunA.Ifp.MTU(), 1400-ipv4.HeaderLen; got != want {
		t.Fatalf("tunnel MTU %d after hostile transfer, want %d", got, want)
	}
}

// runTunnelStream is runBatchStream's topology moved onto a 6in4
// tunnel: the same quarter-megabyte stream, but every data frame
// crosses the hub encapsulated.  Returns the full wire trace and the
// client/server snapshots.
func runTunnelStream(t *testing.T, newStack func(string, core.Options) *core.Stack, faults netif.Faults, seed int64, horizon time.Duration) ([]string, core.Snapshot, core.Snapshot) {
	t.Helper()
	e := newEnv(t)
	hub := e.hub()

	var mu sync.Mutex
	var trace []string
	hub.Capture = func(fr netif.Frame) {
		line := fmt.Sprintf("%s>%s %04x %x", fr.Src, fr.Dst, fr.EtherType, fr.Payload.Bytes())
		mu.Lock()
		trace = append(trace, line)
		mu.Unlock()
	}
	hub.SetFaults(faults)
	hub.SetSeed(seed)

	mk := func(name string) *core.Stack {
		s := newStack(name, core.Options{Clock: e.clock})
		t.Cleanup(s.Close)
		return s
	}
	cli := mk("cli")
	srv := mk("srv")
	cIf := cli.AttachLink(hub, testnet.MacA, 1500)
	sIf := srv.AttachLink(hub, testnet.MacB, 1500)
	v4C, v4S := inet.IP4{10, 0, 0, 1}, inet.IP4{10, 0, 0, 2}
	cli.ConfigureV4(cIf, v4C, 24)
	srv.ConfigureV4(sIf, v4S, 24)
	tunC, err := cli.AddTunnel(tunnel.Config{Name: "tun0", Mode: tunnel.Mode6in4, Local4: v4C, Remote4: v4S})
	if err != nil {
		t.Fatal(err)
	}
	tunS, err := srv.AddTunnel(tunnel.Config{Name: "tun0", Mode: tunnel.Mode6in4, Local4: v4S, Remote4: v4C})
	if err != nil {
		t.Fatal(err)
	}
	c6, s6 := testnet.IP6(t, "fd00::c"), testnet.IP6(t, "fd00::5")
	cli.ConfigureV6(tunC.Ifp, c6, 64)
	srv.ConfigureV6(tunS.Ifp, s6, 64)

	l, err := srv.NewSocket(inet.AFInet6, core.SockStream)
	if err != nil {
		t.Fatal(err)
	}
	l.SetBuffers(1<<20, 1<<20)
	if err := l.Bind(core.Sockaddr6{Family: inet.AFInet6, Port: 9009}); err != nil {
		t.Fatal(err)
	}
	if err := l.Listen(1); err != nil {
		t.Fatal(err)
	}
	c, err := cli.NewSocket(inet.AFInet6, core.SockStream)
	if err != nil {
		t.Fatal(err)
	}
	c.SetBuffers(1<<20, 1<<20)

	quiet := testnet.NewSignal(e.clock)
	e.clock.AfterFunc(10*time.Second, quiet.Fire)
	end := testnet.NewSignal(e.clock)
	e.clock.AfterFunc(horizon, end.Fire)
	e.start()

	body := batchStreamBody()
	var rcvd []byte
	serve := testnet.Spawn(e.clock, func() error {
		s, err := l.Accept(5 * time.Minute)
		if err != nil {
			return fmt.Errorf("accept: %w", err)
		}
		for len(rcvd) < batchStreamTotal {
			chunk, err := s.Recv(1<<16, 5*time.Minute)
			if err != nil {
				return fmt.Errorf("recv at %d: %w", len(rcvd), err)
			}
			rcvd = append(rcvd, chunk...)
		}
		return nil
	})

	quiet.Wait()
	if err := c.Connect(core.Addr6(s6, 9009), time.Minute); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Send(body, 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := serve(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rcvd, body) {
		t.Fatalf("stream corrupted: %d bytes received", len(rcvd))
	}
	end.Wait()

	mu.Lock()
	out := append([]string(nil), trace...)
	mu.Unlock()
	return out, cli.Snapshot(), srv.Snapshot()
}

// TestGoldenTraceTunnelStream pins the stream over a 6in4 tunnel byte
// for byte, recorded while IPv6 output still built GSO super-segments
// and split or flushed them at the tunnel device.  The unbatched stack
// and a same-seed replay must put the same frames on the v4 core.
func TestGoldenTraceTunnelStream(t *testing.T) {
	mbuf.SetPoison(true)
	defer mbuf.SetPoison(false)

	lockstep := netif.Faults{Latency: 2 * time.Millisecond}
	on, _, _ := runTunnelStream(t, core.NewStack, lockstep, 1, 30*time.Second)
	checkGoldenTrace(t, on, 295, "0f9cd3871a38e335b16400aaca932dcbe279ef155a44c117f08a49f13883ff75")
	off, _, _ := runTunnelStream(t, core.NewUnbatchedStack, lockstep, 1, 30*time.Second)
	diffTraces(t, "tunnel path, batching off vs on", off, on)
	again, _, _ := runTunnelStream(t, core.NewStack, lockstep, 1, 30*time.Second)
	diffTraces(t, "tunnel path, batched run vs its replay", on, again)
}

// TestIPsecOverTunnel composes tunnel-mode ESP with a 6in6 island
// tunnel: the tunnel's outer packets match a gateway-style SA selector
// and get encrypted on the same output re-entry, so the core sees only
// ESP — and decap on the far side happens after ESP input re-injects
// the outer packet.
func TestIPsecOverTunnel(t *testing.T) {
	e := newEnv(t)
	hub := e.hub()
	a := e.stack("a")
	b := e.stack("b")
	aIf := a.AttachLink(hub, testnet.MacA, 1500)
	bIf := b.AttachLink(hub, testnet.MacB, 1500)
	core6A := testnet.IP6(t, "2001:db8:c0::1")
	core6B := testnet.IP6(t, "2001:db8:c0::2")
	a.ConfigureV6(aIf, core6A, 64)
	b.ConfigureV6(bIf, core6B, 64)

	// LinkMTU leaves room for the ESP tunnel wrap on the outer path.
	tunA, err := a.AddTunnel(tunnel.Config{Name: "tun0", Mode: tunnel.Mode6in6,
		Local6: core6A, Remote6: core6B, LinkMTU: 1400})
	if err != nil {
		t.Fatal(err)
	}
	tunB, err := b.AddTunnel(tunnel.Config{Name: "tun0", Mode: tunnel.Mode6in6,
		Local6: core6B, Remote6: core6A, LinkMTU: 1400})
	if err != nil {
		t.Fatal(err)
	}
	a6, b6 := testnet.IP6(t, "fd00::1"), testnet.IP6(t, "fd00::2")
	a.ConfigureV6(tunA.Ifp, a6, 64)
	b.ConfigureV6(tunB.Ifp, b6, 64)

	// Gateway-style SAs selecting each outer endpoint: every
	// encapsulated packet A sends toward B's outer address is wrapped.
	encKey := []byte("8bytekey")
	for _, s := range []*core.Stack{a, b} {
		s.Keys.Add(&key.SA{SPI: 0x61, Src: core6A, Dst: core6B, Proto: key.ProtoESPTunnel,
			EncAlg: "des-cbc", EncKey: encKey, SelDst: core6B, SelPlen: 128})
		s.Keys.Add(&key.SA{SPI: 0x62, Src: core6B, Dst: core6A, Proto: key.ProtoESPTunnel,
			EncAlg: "des-cbc", EncKey: encKey, SelDst: core6A, SelPlen: 128})
		// Tunnel outer packets carry no originating socket, so only a
		// system-wide policy reaches them; level "use" wraps whatever
		// traffic has a matching association and passes the rest.
		s.Sec.SetSystemPolicy(ipsec.SockOpts{ESPTunnel: ipsec.LevelUse})
	}
	e.start()

	streamEcho(t, a, b, inet.AFInet6, core.Addr6(b6, 9012), islandBody(32<<10))

	if n := b.Sec.Stats.InDecryptOK.Get(); n == 0 {
		t.Fatal("no ESP decrypts on the server: tunnel traffic was not secured")
	}
	if s := tunB.Stats(); s.Decapped == 0 {
		t.Fatalf("tunB stats %+v: decap after ESP re-injection missing", s)
	}
}
