package tcp_test

// SYN-cookie flood soak: a listener keeps accepting while a spoofed
// SYN flood exceeds DefaultSynBacklog tenfold — zero per-SYN state
// beyond the cap, a legitimate handshake completes through the
// stateless path, and every forged completing ACK is reset and
// charged to the tcp-syn-cookie-failed typed reason.

import (
	"fmt"
	"testing"

	"bsd6/internal/inet"
	"bsd6/internal/ipv6"
	"bsd6/internal/mbuf"
	"bsd6/internal/proto"
	"bsd6/internal/stat"
	"bsd6/internal/tcp"
	"bsd6/internal/testnet"
)

// injectSYN crafts a raw SYN from src — a nonexistent on-link host, so
// the SYN/ACK can never be answered and the embryonic child stays in
// SYN_RCVD — and feeds it straight into the server's IPv6 input, the
// way a spoofed-source SYN flood arrives.
func injectSYN(b *tnode, src inet.IP6, sport, dport uint16) {
	injectSeg(b, src, &tcp.Header{SPort: sport, DPort: dport, Seq: 1000, Flags: tcp.FlagSYN, Wnd: 65535})
}

// injectSeg feeds an arbitrary raw TCP segment from src into b's IPv6
// input, the spoofed-source way.
func injectSeg(b *tnode, src inet.IP6, h *tcp.Header) {
	dst := b.LinkLocal(0)
	seg := h.Marshal()
	ck := inet.TransportChecksum6(src, dst, proto.TCP, seg)
	seg[16], seg[17] = byte(ck>>8), byte(ck)
	ip := &ipv6.Header{NextHdr: proto.TCP, HopLimit: 64, PayloadLen: len(seg), Src: src, Dst: dst}
	pkt := mbuf.New(ip.Marshal(nil))
	pkt.Append(seg)
	b.V6.Input(b.Ifps[0], pkt)
}

func TestSynCookieFloodSoak(t *testing.T) {
	const backlogMax = tcp.DefaultSynBacklog
	const floodFactor = 10

	s := newSim(t)
	hub := s.NewHub()
	a, b := s.node("a"), s.node("b")
	a.Join(hub, testnet.MacA, 1500, inet.IP4{}, 0)
	b.Join(hub, testnet.MacB, 1500, inet.IP4{}, 0)
	b.tcp.Drops = b.Drops

	l := b.tcp.Attach(inet.AFInet6, nil)
	l.Bind(inet.IP6{}, 9400)
	l.Listen(4)

	// The flood: 10× the backlog cap, every SYN from a different
	// spoofed on-link source that will never answer.
	src := func(i int) inet.IP6 { return testnet.IP6(t, fmt.Sprintf("fe80::bad:%x", i)) }
	for i := 1; i <= backlogMax*floodFactor; i++ {
		injectSYN(b, src(i), uint16(30000+i), 9400)
	}
	// Beyond the cap the listener went stateless: the backlog filled
	// and stopped, and each excess SYN was answered with a cookie, so
	// none was discarded.
	if n := b.tcp.SynBacklogLen(); n != backlogMax {
		t.Fatalf("backlog = %d, cap %d", n, backlogMax)
	}
	wantCookies := uint64(backlogMax*floodFactor - backlogMax)
	if got := b.tcp.Stats.SynCookiesSent.Get(); got != wantCookies {
		t.Fatalf("SynCookiesSent = %d, want %d", got, wantCookies)
	}

	// A legitimate client connects THROUGH the ongoing flood: its SYN
	// meets the full backlog, gets a cookie SYN-ACK, and its ACK
	// rebuilds the connection server-side with zero stored state.
	c := a.tcp.Attach(inet.AFInet6, nil)
	if err := c.Connect(b.LinkLocal(0), 9400); err != nil {
		t.Fatal(err)
	}
	s.waitState(c, tcp.StateEstablished)
	srv := s.acceptOne(l)
	s.waitState(srv, tcp.StateEstablished)
	if got := b.tcp.Stats.SynCookiesValidated.Get(); got != 1 {
		t.Fatalf("SynCookiesValidated = %d, want 1", got)
	}

	// The rebuilt connection carries data both ways.
	s.sendAll(c, []byte("through the flood"))
	if string(s.recvN(srv, 17)) != "through the flood" {
		t.Fatal("data through cookie-rebuilt connection")
	}
	s.sendAll(srv, []byte("ok"))
	if string(s.recvN(c, 2)) != "ok" {
		t.Fatal("reply through cookie-rebuilt connection")
	}

	// Forged completing ACKs — cookies the server never minted — are
	// rejected, each answered with one RST (RFC 793: an ACK in LISTEN
	// is reset) and attributed to the typed reason.
	const forged = 32
	rst0 := b.tcp.Stats.RstOut.Get()
	for i := 1; i <= forged; i++ {
		h := &tcp.Header{
			SPort: uint16(20000 + i), DPort: 9400,
			Seq: 7777, Ack: uint32(0x41410000 + i), Flags: tcp.FlagACK, Wnd: 65535,
		}
		injectSeg(b, src(i), h)
	}
	if got := b.tcp.Stats.SynCookiesFailed.Get(); got != forged {
		t.Fatalf("SynCookiesFailed = %d, want %d", got, forged)
	}
	if got := b.tcp.Stats.RstOut.Get() - rst0; got != forged {
		t.Fatalf("RstOut grew by %d, want %d", got, forged)
	}
	if got := b.Drops.Reasons.Snapshot()[stat.RTCPSynCookieFailed.String()]; got != forged {
		t.Fatalf("%s = %d, want %d", stat.RTCPSynCookieFailed, got, forged)
	}
	// And none of them fabricated a connection.
	if got := b.tcp.Stats.SynCookiesValidated.Get(); got != 1 {
		t.Fatalf("forged ACK validated: SynCookiesValidated = %d", got)
	}
	if l.Accept() != nil {
		t.Fatal("forged ACK produced an accepted connection")
	}
}
