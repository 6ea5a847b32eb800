package core_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"bsd6/internal/core"
	"bsd6/internal/inet"
	"bsd6/internal/ip"
	"bsd6/internal/ipv6"
	"bsd6/internal/mbuf"
	"bsd6/internal/netif"
	"bsd6/internal/proto"
	"bsd6/internal/route"
	"bsd6/internal/tcp"
	"bsd6/internal/testnet"
	"bsd6/internal/vclock"
)

// The flood-soak scenario: one victim stack with the shipped resource
// limits, one legitimate peer, and one attacker interface spraying
// never-completing fragments, spoofed-source SYNs, and neighbor
// solicits from fabricated hosts — all on the shared hub, all under
// the virtual clock.  The assertions are the resource-governance
// contract end to end: every gauge stays under its cap while the
// flood runs, every induced discard is attributed to its typed
// reason, no mbuf leaks (poison-on-free is armed for the duration),
// and the legitimate TCP and UDP flows complete anyway.

// The flood: soakRounds bursts of soakBurstPerKind packets of each
// kind.  Its fragments come from one source in the first half of the
// rounds, past ip.DefaultReasmMaxPerSource, then from soakFragSources
// sources, past ip.DefaultReasmMaxDatagrams.  In all it sprays more
// hosts than route.DefaultNDCacheMax and sends more SYNs than
// tcp.DefaultSynBacklog; a burst stays inside the netisr's 512 slots.
const (
	soakRounds       = 8
	soakBurstPerKind = 96
	soakFragSources  = 64
)

// attackSrc fabricates distinct on-link source addresses per attack
// kind (the k byte) and index.
func attackSrc(t *testing.T, k, i int) inet.IP6 {
	return testnet.IP6(t, fmt.Sprintf("fe80::%x:%x", k, i+1))
}

// fragFlood builds a first-and-never-final IPv6 fragment: it opens a
// reassembly buffer on the victim that only quota eviction or the
// 30-second timeout will close.
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
// stays in SYN_RCVD until it times out, and once the backlog is full
// the answer is a SYN cookie that keeps no state.
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
	victim := core.NewStack("victim", core.Options{Clock: e.clock})
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
	// The flood starts once the victim has accepted the connection.
	accepted.Wait()
	if firstEcho == nil {
		t.Fatalf("accept: %v", serve())
	}

	inject := func(pkt *mbuf.Mbuf) { atk.Output(testnet.MacB, netif.EtherTypeIPv6, pkt) }
	id := uint32(0)
	var perSource uint64 // reassembly evictions of the one-source half
	for round := 0; round < soakRounds; round++ {
		wide := round >= soakRounds/2
		for i := 0; i < soakBurstPerKind; i++ {
			id++
			fsrc := attackSrc(t, 7, 0)
			if wide {
				fsrc = attackSrc(t, 8, int(id)%soakFragSources)
			}
			inject(fragFlood(fsrc, vLL, id))
			inject(synFlood(attackSrc(t, 5, round*soakBurstPerKind+i), vLL, uint16(20000+id), echoPort))
			inject(nsSpray(attackSrc(t, 6, round*soakBurstPerKind+i), vLL, inet.LinkAddr{2, 0, 0, 1, byte(round), byte(i)}))
		}
		testnet.WaitFor(t, "victim drains the burst", func() bool { return victim.Pending() == 0 })

		lim := victim.Snapshot().Limits
		for _, g := range []struct {
			name string
			lim  core.LimitSnapshot
			max  int
		}{
			{"reasm queue", lim.Reasm6, ip.DefaultReasmMaxDatagrams},
			{"neighbor cache", lim.NDCache, route.DefaultNDCacheMax},
			{"SYN backlog", lim.SynBacklog, tcp.DefaultSynBacklog},
			{"TIME_WAIT table", lim.TimeWait, tcp.DefaultTimeWaitMax},
			{"netisr bytes", lim.MbufQueue, core.DefaultMbufLimit},
		} {
			if g.lim.Max != g.max || g.lim.Cur > g.max {
				t.Fatalf("round %d: %s %d of %d, want at most %d", round, g.name, g.lim.Cur, g.lim.Max, g.max)
			}
		}
		// One source fills its share of the reassembly queue and
		// evicts its own oldest; many fill the whole queue.
		switch {
		case round == soakRounds/2-1:
			perSource = lim.Reasm6.Drops
			if lim.Reasm6.Cur != ip.DefaultReasmMaxPerSource || perSource == 0 {
				t.Fatalf("one source holds %d reassemblies after %d evictions, want %d after some",
					lim.Reasm6.Cur, perSource, ip.DefaultReasmMaxPerSource)
			}
		case round == soakRounds-1:
			if lim.Reasm6.Cur != ip.DefaultReasmMaxDatagrams || lim.Reasm6.Drops == perSource {
				t.Fatalf("many sources hold %d reassemblies after %d more evictions, want %d after some",
					lim.Reasm6.Cur, lim.Reasm6.Drops-perSource, ip.DefaultReasmMaxDatagrams)
			}
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
	// charge must equal the reasons the recorder saw.  A SYN past the
	// backlog is no discard: it is answered with a cookie.
	testnet.WaitFor(t, "victim quiescent", func() bool { return victim.Pending() == 0 })
	reasons := victim.Snapshot().Reasons
	for _, chk := range []struct {
		name string
		got  uint64
	}{
		{"ip6-reasm-overflow", victim.V6.Stats.ReasmOverflow.Get()},
		{"nd-cache-evicted", victim.RT.NbrEvictions.Get()},
	} {
		if chk.got == 0 {
			t.Errorf("flood never tripped %s", chk.name)
		}
		if reasons[chk.name] != chk.got {
			t.Errorf("%s: %d drops charged but %d attributed", chk.name, chk.got, reasons[chk.name])
		}
	}
	if victim.TCP.Stats.SynCookiesSent.Get() == 0 {
		t.Error("flood never filled the SYN backlog")
	}

	// No residue: once every socket is closed and the flood's state
	// has timed out, the pool is back where it started.
	for _, so := range []*core.Socket{l, usrv, ucli} {
		so.Close()
	}
	vclock.Sleep(e.clock, 5*time.Minute)
	testnet.WaitFor(t, "victim quiescent", func() bool { return victim.Pending()+legit.Pending() == 0 })
	if grew := mbuf.Outstanding() - baseOutstanding; grew != 0 {
		t.Fatalf("%d pool bytes outstanding after the flood state timed out", grew)
	}
}

// TestMbufLimitRefusesOversizedBurst pins the netisr byte ceiling:
// behind a parked netisr, frames above 8 KiB reach DefaultMbufLimit
// before the queue's 512 slots are full, and the frame that would pass
// it is refused at enqueue with the mbuf-limit reason and freed.
func TestMbufLimitRefusesOversizedBurst(t *testing.T) {
	base := mbuf.Outstanding()
	victim := core.NewStack("big", core.Options{Clock: vclock.NewVirtual(time.Unix(1_000_000, 0))})
	defer victim.Close()
	const parkProto, frameLen = 253, 9000
	hold, entered := make(chan struct{}), make(chan struct{})
	// Deferred after Close, so it runs first: a failure below still
	// frees the parked netisr, and Close does not wait on it forever.
	release := sync.OnceFunc(func() { close(hold) })
	defer release()
	victim.V6.Register(parkProto, func(pkt *mbuf.Mbuf, _ proto.Meta) {
		if pkt.Len() == 0 {
			entered <- struct{}{}
			<-hold
		}
		pkt.Free()
	}, nil)
	frame := func(n int) netif.Frame {
		h := &ipv6.Header{NextHdr: parkProto, HopLimit: 64, PayloadLen: n, Src: inet.IP6Loopback, Dst: inet.IP6Loopback}
		pkt := mbuf.New(h.Marshal(nil))
		pkt.Append(make([]byte, n))
		return netif.Frame{EtherType: netif.EtherTypeIPv6, Payload: pkt}
	}

	victim.Lo.Deliver(frame(0)) // parks the netisr in its dispatch
	<-entered
	queued := 0
	for victim.MbufDrops.Get() == 0 {
		if queued++; queued > core.DefaultMbufLimit/frameLen+1 {
			t.Fatalf("%d frames of %d bytes queued without reaching the %d-byte ceiling",
				queued, frameLen, core.DefaultMbufLimit)
		}
		victim.Lo.Deliver(frame(frameLen - ipv6.HeaderLen))
	}
	snap := victim.Snapshot()
	if got := snap.Reasons["mbuf-limit"]; got != 1 || victim.InqDrops.Get() != 0 {
		t.Fatalf("mbuf-limit attributed %d times, %d slot drops; want 1, 0", got, victim.InqDrops.Get())
	}
	lim := snap.Limits.MbufQueue
	if lim.Drops != 1 || lim.Max != core.DefaultMbufLimit || lim.Cur > lim.Max || lim.Cur+frameLen <= lim.Max {
		t.Fatalf("limits surface %+v, want the %d-byte ceiling within one frame of full", lim, core.DefaultMbufLimit)
	}
	release()
	testnet.WaitFor(t, "the queue to drain", func() bool { return victim.Pending() == 0 })
	if n := mbuf.Outstanding() - base; n != 0 {
		t.Fatalf("%d pool bytes outstanding after the queue drained", n)
	}
}
