package core_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"bsd6/internal/core"
	"bsd6/internal/inet"
	"bsd6/internal/ipv6"
	"bsd6/internal/mbuf"
	"bsd6/internal/netif"
	"bsd6/internal/proto"
	"bsd6/internal/tcp"
	"bsd6/internal/testnet"
)

// The flood-soak scenario: one victim stack with tight resource
// limits, one legitimate peer, and one attacker interface spraying
// never-completing fragments, spoofed-source SYNs, and neighbor
// solicits from fabricated hosts — all on the shared hub, all under
// the virtual clock.  The assertions are the resource-governance
// contract end to end: every gauge stays under its cap while the
// flood runs, every induced discard is attributed to its typed
// reason, no mbuf leaks (poison-on-free is armed for the duration),
// and the legitimate TCP and UDP flows complete anyway.

// soakLimits are the victim's deliberately tight ceilings.
const (
	soakReasmMax     = 32
	soakReasmPerSrc  = 4
	soakNDMax        = 16
	soakSynMax       = 8
	soakMbufLimit    = 512 << 10
	soakRounds       = 8
	soakBurstPerKind = 16
)

// attackSrc fabricates distinct on-link source addresses per attack
// kind (the k byte) and index.
func attackSrc(t *testing.T, k, i int) inet.IP6 {
	return testnet.IP6(t, fmt.Sprintf("fe80::%x:%x", k, i+1))
}

// fragFlood builds a first-and-never-final IPv6 fragment: it opens a
// reassembly buffer on the victim that only quota eviction or the
// 60-second timeout will close.
func fragFlood(src, dst inet.IP6, id uint32) *mbuf.Mbuf {
	fh := &ipv6.FragHeader{NextHdr: proto.UDP, Off: 0, More: true, ID: id}
	fb := fh.Marshal(nil)
	fb = append(fb, make([]byte, 64)...)
	h := &ipv6.Header{NextHdr: proto.Fragment, HopLimit: 64, PayloadLen: len(fb), Src: src, Dst: dst}
	pkt := mbuf.New(h.Marshal(nil))
	pkt.Append(fb)
	return pkt
}

// synFlood builds a spoofed-source SYN for the victim's listener; the
// SYN/ACK answer can never be delivered, so the embryonic connection
// stays in SYN_RCVD until the backlog cap reaps it.
func synFlood(src, dst inet.IP6, sport, dport uint16) *mbuf.Mbuf {
	th := &tcp.Header{SPort: sport, DPort: dport, Seq: 1, Flags: tcp.FlagSYN, Wnd: 65535}
	seg := th.Marshal()
	ck := inet.TransportChecksum6(src, dst, proto.TCP, seg)
	seg[16], seg[17] = byte(ck>>8), byte(ck)
	h := &ipv6.Header{NextHdr: proto.TCP, HopLimit: 64, PayloadLen: len(seg), Src: src, Dst: dst}
	pkt := mbuf.New(h.Marshal(nil))
	pkt.Append(seg)
	return pkt
}

// nsSpray builds a Neighbor Solicit from a fabricated host carrying a
// source link-layer option, so the victim installs a neighbor-cache
// entry for a host that does not exist.
func nsSpray(src, target inet.IP6, mac inet.LinkAddr) *mbuf.Mbuf {
	msg := make([]byte, 8+16, 8+16+8)
	msg[0] = 135 // ICMPv6 Neighbor Solicit
	copy(msg[8:24], target[:])
	msg = append(msg, 1, 1) // source link-layer address option
	msg = append(msg, mac[:]...)
	ck := inet.TransportChecksum6(src, target, proto.ICMPv6, msg)
	msg[2], msg[3] = byte(ck>>8), byte(ck)
	h := &ipv6.Header{NextHdr: proto.ICMPv6, HopLimit: 255, PayloadLen: len(msg), Src: src, Dst: target}
	pkt := mbuf.New(h.Marshal(nil))
	pkt.Append(msg)
	return pkt
}

func TestFloodSoakBoundedState(t *testing.T) {
	mbuf.SetPoison(true)
	t.Cleanup(func() { mbuf.SetPoison(false) })
	baseOutstanding := mbuf.Outstanding()

	e := newEnv(t)
	hub := e.hub()
	victim := core.NewStack("victim", core.Options{
		Clock:             e.clock,
		ReasmMaxDatagrams: soakReasmMax,
		ReasmMaxPerSource: soakReasmPerSrc,
		NDCacheMax:        soakNDMax,
		SynBacklogMax:     soakSynMax,
		MbufLimit:         soakMbufLimit,
	})
	t.Cleanup(victim.Close)
	legit := e.stack("legit")
	victim.AttachLink(hub, testnet.MacB, 1500)
	legit.AttachLink(hub, testnet.MacA, 1500)

	// The attacker is a bare interface, not a stack: frames sent back
	// to it (SYN/ACKs, NAs) are sunk and returned to the pool.
	atk := netif.New("atk0", testnet.MacC, 1500)
	atk.SetInput(func(_ *netif.Interface, fr netif.Frame) { fr.Payload.Free() })
	hub.Attach(atk)
	e.start()

	vLL := linkLocal(victim)
	const echoPort = 9100

	// Victim-side echo server, reused by the mid-flood and post-flood
	// connections.
	l, err := victim.NewSocket(inet.AFInet6, core.SockStream)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Bind(core.Sockaddr6{Family: inet.AFInet6, Port: echoPort}); err != nil {
		t.Fatal(err)
	}
	if err := l.Listen(4); err != nil {
		t.Fatal(err)
	}
	echo := func(srv *core.Socket) error {
		for {
			data, err := srv.Recv(8192, 10*time.Minute)
			if err != nil {
				return nil // EOF
			}
			if _, err := srv.Send(data, 10*time.Minute); err != nil {
				return err
			}
		}
	}
	accepted := testnet.NewSignal(e.clock)
	var firstEcho func() error // the legitimate connection's echo loop
	serve := testnet.Spawn(e.clock, func() error {
		defer accepted.Fire()
		for i := 0; i < 2; i++ {
			srv, err := l.Accept(10 * time.Minute)
			if err != nil {
				return err
			}
			wait := testnet.Spawn(e.clock, func() error { return echo(srv) })
			if i == 0 {
				firstEcho = wait
				accepted.Fire()
			}
		}
		return nil
	})

	// Establish the legitimate connection before the flood starts; the
	// data transfer then rides through every round of it.
	c1, err := legit.NewSocket(inet.AFInet6, core.SockStream)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Connect(core.Addr6(vLL, echoPort), time.Minute); err != nil {
		t.Fatal(err)
	}
	// Connect returns on the SYN/ACK, while the victim's child is still
	// embryonic until our final ACK lands. Flood SYNs processed ahead
	// of that ACK would overflow the capped backlog and evict that
	// child, resetting the connection; so the flood starts only once
	// the victim has accepted it.
	accepted.Wait()
	if firstEcho == nil {
		t.Fatalf("accept: %v", serve())
	}

	inject := func(pkt *mbuf.Mbuf) { atk.Output(testnet.MacB, netif.EtherTypeIPv6, pkt) }
	id := uint32(0)
	for round := 0; round < soakRounds; round++ {
		for i := 0; i < soakBurstPerKind; i++ {
			id++
			// 10 fragment sources: deep enough per source to trip the
			// per-source quota, wide enough to trip the global one.
			inject(fragFlood(attackSrc(t, 7, int(id)%10), vLL, id))
			inject(synFlood(attackSrc(t, 5, round*soakBurstPerKind+i), vLL, uint16(20000+id), echoPort))
			inject(nsSpray(attackSrc(t, 6, round*soakBurstPerKind+i), vLL, inet.LinkAddr{2, 0, 0, 1, byte(round), byte(i)}))
		}
		testnet.WaitFor(t, "victim drains the burst", func() bool { return victim.Pending() == 0 })

		lim := victim.Snapshot().Limits
		if lim.Reasm6.Cur > soakReasmMax {
			t.Fatalf("round %d: reasm queue %d exceeds cap %d", round, lim.Reasm6.Cur, soakReasmMax)
		}
		if lim.NDCache.Cur > soakNDMax {
			t.Fatalf("round %d: neighbor cache %d exceeds cap %d", round, lim.NDCache.Cur, soakNDMax)
		}
		if lim.SynBacklog.Cur > soakSynMax {
			t.Fatalf("round %d: SYN backlog %d exceeds cap %d", round, lim.SynBacklog.Cur, soakSynMax)
		}
		if lim.MbufQueue.Cur > soakMbufLimit {
			t.Fatalf("round %d: netisr bytes %d exceed cap %d", round, lim.MbufQueue.Cur, soakMbufLimit)
		}

		// One echo chunk per round: the legitimate flow makes progress
		// in the middle of the flood, retransmitting through any
		// collateral discards.
		chunk := bytes.Repeat([]byte{byte('a' + round)}, 2048)
		rest := chunk
		for len(rest) > 0 {
			n, err := c1.Send(rest, 5*time.Minute)
			if err != nil {
				t.Fatalf("round %d: send: %v", round, err)
			}
			rest = rest[n:]
		}
		var got []byte
		for len(got) < len(chunk) {
			b, err := c1.Recv(8192, 5*time.Minute)
			if err != nil {
				t.Fatalf("round %d: recv: %v", round, err)
			}
			got = append(got, b...)
		}
		if !bytes.Equal(got, chunk) {
			t.Fatalf("round %d: echo corrupted through flood", round)
		}
	}
	c1.Close()
	if err := firstEcho(); err != nil {
		t.Fatalf("echo server: %v", err)
	}

	// Recovery: a fresh connection and a UDP exchange complete after
	// the flood, even though embryonic flood children and sprayed
	// neighbors still occupy (capped) state.
	c2, err := legit.NewSocket(inet.AFInet6, core.SockStream)
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.Connect(core.Addr6(vLL, echoPort), 5*time.Minute); err != nil {
		t.Fatalf("post-flood connect: %v", err)
	}
	c2.Close()

	usrv, _ := victim.NewSocket(inet.AFInet6, core.SockDgram)
	if err := usrv.Bind(core.Sockaddr6{Family: inet.AFInet6, Port: 7}); err != nil {
		t.Fatal(err)
	}
	ucli, _ := legit.NewSocket(inet.AFInet6, core.SockDgram)
	delivered := false
	for try := 0; try < 8 && !delivered; try++ {
		if err := ucli.SendTo([]byte("ping"), core.Sockaddr6{Family: inet.AFInet6, Port: 7, Addr: vLL}); err != nil {
			t.Fatal(err)
		}
		data, _, err := usrv.RecvFrom(64, 2*time.Second)
		delivered = err == nil && string(data) == "ping"
	}
	if !delivered {
		t.Fatal("post-flood UDP exchange never completed")
	}

	// Attribution: after quiescence, every induced discard is visible
	// under exactly its typed reason — the counters the subsystems
	// charge must equal the reasons the recorder saw.
	testnet.WaitFor(t, "victim quiescent", func() bool { return victim.Pending() == 0 })
	snap := victim.Snapshot()
	reasons := snap.Reasons
	for _, chk := range []struct {
		name string
		got  uint64
	}{
		{"ip6-reasm-overflow", victim.V6.Stats.ReasmOverflow.Get()},
		{"nd-cache-evicted", victim.RT.NbrEvictions.Get()},
		{"tcp-syn-overflow", victim.TCP.Stats.SynDrops.Get()},
	} {
		if chk.got == 0 {
			t.Errorf("flood never tripped %s", chk.name)
		}
		if reasons[chk.name] != chk.got {
			t.Errorf("%s: %d drops charged but %d attributed", chk.name, chk.got, reasons[chk.name])
		}
	}

	// Bounded memory: the pool gauge must come back near its pre-test
	// level once the flood state is capped and the queues drained.
	// 16 MiB is generous slack for capped reassembly buffers, queued
	// ND packets, and live socket buffers.
	if grew := mbuf.Outstanding() - baseOutstanding; grew > 16<<20 {
		t.Fatalf("outstanding pool bytes grew by %d — eviction paths are leaking mbufs", grew)
	}
}

// TestMbufLimitRefusesOversizedBurst pins the netisr byte ceiling
// deterministically: a frame that alone exceeds the limit is refused
// at enqueue with the mbuf-limit reason before any queue grows.
func TestMbufLimitRefusesOversizedBurst(t *testing.T) {
	e := newEnv(t)
	hub := e.hub()
	victim := core.NewStack("tiny", core.Options{Clock: e.clock, MbufLimit: 512})
	t.Cleanup(victim.Close)
	victim.AttachLink(hub, testnet.MacB, 1500)
	atk := netif.New("atk0", testnet.MacC, 1500)
	atk.SetInput(func(_ *netif.Interface, fr netif.Frame) { fr.Payload.Free() })
	hub.Attach(atk)
	e.start()

	pkt := fragFlood(attackSrc(t, 7, 1), linkLocal(victim), 99)
	for pkt.Len() <= 512 {
		pkt.Append(make([]byte, 256))
	}
	atk.Output(testnet.MacB, netif.EtherTypeIPv6, pkt)
	testnet.WaitFor(t, "refusal recorded", func() bool { return victim.MbufDrops.Get() == 1 })
	snap := victim.Snapshot()
	if got := snap.Reasons["mbuf-limit"]; got != 1 {
		t.Fatalf("mbuf-limit attributed %d times, want 1", got)
	}
	if snap.Limits.MbufQueue.Drops != 1 || snap.Limits.MbufQueue.Max != 512 {
		t.Fatalf("limits surface: %+v", snap.Limits.MbufQueue)
	}
}
