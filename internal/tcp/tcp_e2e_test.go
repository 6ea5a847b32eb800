package tcp_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"bsd6/internal/inet"
	"bsd6/internal/ipsec"
	"bsd6/internal/key"
	"bsd6/internal/netif"
	"bsd6/internal/route"
	"bsd6/internal/tcp"
	"bsd6/internal/testnet"
)

// The suite runs entirely on simulated time: links deliver
// synchronously, protocol timers (retransmit, persist, TIME_WAIT)
// fire when the test advances the virtual clock, and nothing sleeps.
// Every transfer is a single-goroutine pump that interleaves Send and
// Recv and steps the clock only when neither side can make progress.

// tsim is a simulation plus test handle; tnode is a node plus TCP.
type tsim struct {
	*testnet.Sim
	t *testing.T
}

type tnode struct {
	*testnet.Node
	tcp *tcp.TCP
}

func newSim(t *testing.T) *tsim {
	return &tsim{Sim: testnet.NewSim(), t: t}
}

func (s *tsim) node(name string) *tnode {
	n := &tnode{Node: s.NewNode(name)}
	n.tcp = tcp.New(n.V4, n.V6)
	n.tcp.InputPolicy = n.Sec.InputPolicy
	n.tcp.AllowError = n.Sec.AllowError
	n.tcp.Confirm = n.ICMP6.Confirm
	s.Every(tcp.FastTickInterval, func(time.Time) { n.tcp.FastTimo() })
	s.Every(tcp.SlowTickInterval, func(time.Time) { n.tcp.SlowTimo() })
	return n
}

func tcpPair(t *testing.T) (*tsim, *tnode, *tnode) {
	t.Helper()
	s := newSim(t)
	hub := s.NewHub()
	a, b := s.node("a"), s.node("b")
	a.Join(hub, testnet.MacA, 1500, inet.IP4{10, 0, 0, 1}, 24)
	b.Join(hub, testnet.MacB, 1500, inet.IP4{10, 0, 0, 2}, 24)
	return s, a, b
}

// helpers

func (s *tsim) waitState(c *tcp.Conn, want tcp.State) {
	s.t.Helper()
	s.WaitFor(s.t, "state "+want.String(), func() bool { return c.State() == want })
}

func (s *tsim) acceptOne(l *tcp.Conn) *tcp.Conn {
	s.t.Helper()
	var child *tcp.Conn
	s.WaitFor(s.t, "accept", func() bool {
		child = l.Accept()
		return child != nil
	})
	return child
}

func (s *tsim) sendAll(c *tcp.Conn, data []byte) {
	s.t.Helper()
	deadline := s.Clock.Now().Add(5 * time.Minute)
	for len(data) > 0 {
		n, err := c.Send(data)
		if err != nil {
			s.t.Fatalf("send: %v", err)
		}
		data = data[n:]
		if n == 0 {
			if s.Clock.Now().After(deadline) || !s.Clock.Step() {
				s.t.Fatal("send stalled")
			}
		}
	}
}

func (s *tsim) recvN(c *tcp.Conn, n int) []byte {
	s.t.Helper()
	out := make([]byte, 0, n)
	deadline := s.Clock.Now().Add(5 * time.Minute)
	for len(out) < n {
		chunk, err := c.Recv(n - len(out))
		if err != nil {
			s.t.Fatalf("recv after %d/%d bytes: %v", len(out), n, err)
		}
		if chunk == nil {
			if s.Clock.Now().After(deadline) || !s.Clock.Step() {
				s.t.Fatalf("recv stalled at %d/%d", len(out), n)
			}
			continue
		}
		out = append(out, chunk...)
	}
	return out
}

func (s *tsim) recvEOF(c *tcp.Conn) {
	s.t.Helper()
	s.WaitFor(s.t, "EOF", func() bool {
		b, err := c.Recv(64)
		return err != nil && len(b) == 0
	})
}

// transfer pumps send bytes from c while draining srv in chunk-sized
// reads until want bytes have arrived, advancing simulated time only
// when both directions stall (full buffers, lost segments waiting on
// the retransmit timer, a closed window waiting on persist probes).
func (s *tsim) transfer(c, srv *tcp.Conn, send []byte, want, chunk int) []byte {
	s.t.Helper()
	rest := send
	got := make([]byte, 0, want)
	deadline := s.Clock.Now().Add(10 * time.Minute)
	for len(got) < want {
		progress := false
		for len(rest) > 0 {
			n, err := c.Send(rest)
			if err != nil {
				s.t.Fatalf("send: %v", err)
			}
			rest = rest[n:]
			if n == 0 {
				break
			}
			progress = true
		}
		b, err := srv.Recv(chunk)
		if err != nil {
			s.t.Fatalf("recv after %d/%d bytes: %v", len(got), want, err)
		}
		if len(b) > 0 {
			got = append(got, b...)
			progress = true
		}
		if !progress {
			if s.Clock.Now().After(deadline) || !s.Clock.Step() {
				s.t.Fatalf("transfer stalled at %d/%d", len(got), want)
			}
		}
	}
	return got
}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + i>>8)
	}
	return b
}

//
// Tests.
//

func TestHandshakeAndEcho6(t *testing.T) {
	s, a, b := tcpPair(t)
	l := b.tcp.Attach(inet.AFInet6, "listener")
	if err := l.Bind(inet.IP6{}, 8080); err != nil {
		t.Fatal(err)
	}
	if err := l.Listen(4); err != nil {
		t.Fatal(err)
	}
	c := a.tcp.Attach(inet.AFInet6, "client")
	if err := c.Connect(b.LinkLocal(0), 8080); err != nil {
		t.Fatal(err)
	}
	s.waitState(c, tcp.StateEstablished)
	srv := s.acceptOne(l)
	s.waitState(srv, tcp.StateEstablished)
	if !c.PCB().IsIPv6() {
		t.Fatal("client PCB not IPv6")
	}

	s.sendAll(c, []byte("GET / telnet-ish\r\n"))
	got := s.recvN(srv, 18)
	if string(got) != "GET / telnet-ish\r\n" {
		t.Fatalf("server got %q", got)
	}
	s.sendAll(srv, []byte("OK"))
	if string(s.recvN(c, 2)) != "OK" {
		t.Fatal("client reply")
	}
	if a.tcp.Stats.ConnEstab.Get() == 0 || b.tcp.Stats.ConnAccepts.Get() == 0 {
		t.Fatal("stats")
	}
}

func TestTCPOverIPv4(t *testing.T) {
	s, a, b := tcpPair(t)
	l := b.tcp.Attach(inet.AFInet, nil)
	l.Bind(inet.IP6{}, 8081)
	l.Listen(1)
	c := a.tcp.Attach(inet.AFInet, nil)
	if err := c.Connect(inet.V4Mapped(inet.IP4{10, 0, 0, 2}), 8081); err != nil {
		t.Fatal(err)
	}
	s.waitState(c, tcp.StateEstablished)
	if c.PCB().IsIPv6() {
		t.Fatal("v4 session flagged IPv6")
	}
	srv := s.acceptOne(l)
	s.sendAll(c, []byte("ipv4 data"))
	if string(s.recvN(srv, 9)) != "ipv4 data" {
		t.Fatal("payload")
	}
}

func TestV4ConnectionToV6Listener(t *testing.T) {
	// A PF_INET6 listener accepts an IPv4 connection (§5.1-§5.2).
	s, a, b := tcpPair(t)
	l := b.tcp.Attach(inet.AFInet6, nil)
	l.Bind(inet.IP6{}, 8082)
	l.Listen(1)
	c := a.tcp.Attach(inet.AFInet, nil)
	if err := c.Connect(inet.V4Mapped(inet.IP4{10, 0, 0, 2}), 8082); err != nil {
		t.Fatal(err)
	}
	s.waitState(c, tcp.StateEstablished)
	srv := s.acceptOne(l)
	if srv.PCB().IsIPv6() {
		t.Fatal("child session should be IPv4")
	}
	if !srv.PCB().FAddr.IsV4Mapped() {
		t.Fatal("foreign address not mapped")
	}
	s.sendAll(c, []byte("crossing the families"))
	s.recvN(srv, len("crossing the families"))
}

func TestBulkTransfer(t *testing.T) {
	s, a, b := tcpPair(t)
	l := b.tcp.Attach(inet.AFInet6, nil)
	l.Bind(inet.IP6{}, 9000)
	l.Listen(1)
	c := a.tcp.Attach(inet.AFInet6, nil)
	c.Connect(b.LinkLocal(0), 9000)
	s.waitState(c, tcp.StateEstablished)
	srv := s.acceptOne(l)

	data := pattern(300_000)
	got := s.transfer(c, srv, data, len(data), 32768)
	if !bytes.Equal(got, data) {
		t.Fatal("bulk data corrupted")
	}
	if a.tcp.Stats.SndByte.Get() < uint64(len(data)) {
		t.Fatal("SndByte")
	}
}

// TestSocketBufferArenasFollowBacklog pins how the socket buffers'
// backing arrays are sized: a 64-byte request and reply leave every
// array at the floor, and a bulk stream that backs the buffers up
// still grows them to twice the buffer cap.
func TestSocketBufferArenasFollowBacklog(t *testing.T) {
	s, a, b := tcpPair(t)
	l := b.tcp.Attach(inet.AFInet6, nil)
	l.Bind(inet.IP6{}, 9010)
	l.Listen(1)
	c := a.tcp.Attach(inet.AFInet6, nil)
	c.Connect(b.LinkLocal(0), 9010)
	s.waitState(c, tcp.StateEstablished)
	srv := s.acceptOne(l)

	msg := pattern(64)
	s.sendAll(c, msg)
	if !bytes.Equal(s.recvN(srv, len(msg)), msg) {
		t.Fatal("request corrupted")
	}
	s.sendAll(srv, msg)
	if !bytes.Equal(s.recvN(c, len(msg)), msg) {
		t.Fatal("reply corrupted")
	}
	const floor = tcp.SBMinArena
	for _, conn := range []*tcp.Conn{c, srv} {
		if snd, rcv := tcp.ArenaCaps(conn); snd > floor || rcv > floor {
			t.Fatalf("64-byte exchange left arrays of %d (send) and %d (receive) bytes, want at most %d", snd, rcv, floor)
		}
	}

	data := pattern(300_000)
	if got := s.transfer(c, srv, data, len(data), 8192); !bytes.Equal(got, data) {
		t.Fatal("bulk data corrupted")
	}
	if snd, _ := tcp.ArenaCaps(c); snd != 2*c.SndBufMax {
		t.Fatalf("sender's array is %d bytes after a bulk stream, want %d", snd, 2*c.SndBufMax)
	}
	if _, rcv := tcp.ArenaCaps(srv); rcv != 2*srv.RcvBufMax {
		t.Fatalf("receiver's array is %d bytes after a bulk stream, want %d", rcv, 2*srv.RcvBufMax)
	}
}

func TestCloseSequence(t *testing.T) {
	s, a, b := tcpPair(t)
	l := b.tcp.Attach(inet.AFInet6, nil)
	l.Bind(inet.IP6{}, 9001)
	l.Listen(1)
	c := a.tcp.Attach(inet.AFInet6, nil)
	c.Connect(b.LinkLocal(0), 9001)
	s.waitState(c, tcp.StateEstablished)
	srv := s.acceptOne(l)

	s.sendAll(c, []byte("last words"))
	c.Close()
	// Server sees the data then EOF.
	if string(s.recvN(srv, 10)) != "last words" {
		t.Fatal("data before FIN")
	}
	s.recvEOF(srv)
	s.waitState(srv, tcp.StateCloseWait)
	srv.Close()
	s.recvEOF(c)
	// Active closer passes through TIME_WAIT and expires to CLOSED.
	s.waitState(c, tcp.StateClosed)
	s.waitState(srv, tcp.StateClosed)
}

func TestSimultaneousClose(t *testing.T) {
	s, a, b := tcpPair(t)
	l := b.tcp.Attach(inet.AFInet6, nil)
	l.Bind(inet.IP6{}, 9002)
	l.Listen(1)
	c := a.tcp.Attach(inet.AFInet6, nil)
	c.Connect(b.LinkLocal(0), 9002)
	s.waitState(c, tcp.StateEstablished)
	srv := s.acceptOne(l)
	c.Close()
	srv.Close()
	s.waitState(c, tcp.StateClosed)
	s.waitState(srv, tcp.StateClosed)
}

func TestConnectionRefused(t *testing.T) {
	s, a, b := tcpPair(t)
	_ = b // no listener
	c := a.tcp.Attach(inet.AFInet6, nil)
	c.Connect(b.LinkLocal(0), 4999)
	s.WaitFor(t, "refusal", func() bool { return c.Err() != nil })
	if !errors.Is(c.Err(), tcp.ErrRefused) {
		t.Fatalf("err = %v", c.Err())
	}
	if b.tcp.Stats.RstOut.Get() == 0 {
		t.Fatal("no RST sent")
	}
}

func TestAbortSendsRST(t *testing.T) {
	s, a, b := tcpPair(t)
	l := b.tcp.Attach(inet.AFInet6, nil)
	l.Bind(inet.IP6{}, 9003)
	l.Listen(1)
	c := a.tcp.Attach(inet.AFInet6, nil)
	c.Connect(b.LinkLocal(0), 9003)
	s.waitState(c, tcp.StateEstablished)
	srv := s.acceptOne(l)
	c.Abort()
	s.WaitFor(t, "reset at server", func() bool {
		return errors.Is(srv.Err(), tcp.ErrReset)
	})
}

func TestRetransmissionThroughLoss(t *testing.T) {
	s := newSim(t)
	hub := s.NewHub()
	a, b := s.node("a"), s.node("b")
	a.Join(hub, testnet.MacA, 1500, inet.IP4{}, 0)
	b.Join(hub, testnet.MacB, 1500, inet.IP4{}, 0)

	l := b.tcp.Attach(inet.AFInet6, nil)
	l.Bind(inet.IP6{}, 9004)
	l.Listen(1)
	c := a.tcp.Attach(inet.AFInet6, nil)
	c.Connect(b.LinkLocal(0), 9004)
	s.waitState(c, tcp.StateEstablished)
	srv := s.acceptOne(l)

	// Now impair the link: 20% loss both ways, from a fixed seed.
	hub.SetSeed(1234)
	hub.SetFaults(netif.Faults{Loss: 0.20})
	data := pattern(60_000)
	got := s.transfer(c, srv, data, len(data), 32768)
	if !bytes.Equal(got, data) {
		t.Fatal("data corrupted through loss")
	}
	if a.tcp.Stats.SndRexmit.Get() == 0 {
		t.Fatal("no retransmissions under 20% loss?")
	}
}

func TestFlowControlSlowReader(t *testing.T) {
	s, a, b := tcpPair(t)
	l := b.tcp.Attach(inet.AFInet6, nil)
	l.RcvBufMax = 2048 // children inherit the small receive buffer
	l.Bind(inet.IP6{}, 9005)
	l.Listen(1)
	c := a.tcp.Attach(inet.AFInet6, nil)
	c.Connect(b.LinkLocal(0), 9005)
	s.waitState(c, tcp.StateEstablished)
	srv := s.acceptOne(l)

	// Drain in 512-byte sips against a 2KB receive buffer: the window
	// must throttle the sender without loss or corruption.
	data := pattern(30_000)
	got := s.transfer(c, srv, data, len(data), 512)
	if !bytes.Equal(got, data) {
		t.Fatal("slow-reader data corrupted")
	}
}

func TestPMTUDiscoveryShrinksMSS(t *testing.T) {
	// The narrow link sits in the MIDDLE so neither endpoint's MSS
	// option reveals it: A --1500-- R1 --576-- R2 --1500-- B.  TCP
	// segments near 1500 first, gets Packet Too Big from R1, lowers
	// the MSS from the host route's path MTU, and completes (§2.2).
	s := newSim(t)
	hub1, hub2, hub3 := s.NewHub(), s.NewHub(), s.NewHub()
	a, r1, r2, b := s.node("a"), s.node("r1"), s.node("r2"), s.node("b")
	aif := a.Join(hub1, testnet.MacA, 1500, inet.IP4{}, 0)
	r1.Join(hub1, testnet.MacR, 1500, inet.IP4{}, 0)
	r1.Join(hub2, testnet.MacS, 576, inet.IP4{}, 0)
	r2.Join(hub2, inet.LinkAddr{2, 0, 0, 0, 0, 3}, 576, inet.IP4{}, 0)
	r2.Join(hub3, inet.LinkAddr{2, 0, 0, 0, 0, 4}, 1500, inet.IP4{}, 0)
	bif := b.Join(hub3, testnet.MacB, 1500, inet.IP4{}, 0)
	r1.V6.Forwarding = true
	r2.V6.Forwarding = true

	a.AddGlobal6(aif, testnet.IP6(t, "2001:db8:1::a"), 64)
	r1.AddGlobal6(r1.Ifps[0], testnet.IP6(t, "2001:db8:1::f"), 64)
	r1.AddGlobal6(r1.Ifps[1], testnet.IP6(t, "2001:db8:2::e"), 64)
	r2.AddGlobal6(r2.Ifps[0], testnet.IP6(t, "2001:db8:2::f"), 64)
	r2.AddGlobal6(r2.Ifps[1], testnet.IP6(t, "2001:db8:3::f"), 64)
	b.AddGlobal6(bif, testnet.IP6(t, "2001:db8:3::b"), 64)
	a.DefaultVia6(testnet.IP6(t, "2001:db8:1::f"), aif.Name)
	r1.DefaultVia6(testnet.IP6(t, "2001:db8:2::f"), r1.Ifps[1].Name)
	r2.DefaultVia6(testnet.IP6(t, "2001:db8:2::e"), r2.Ifps[0].Name)
	b.DefaultVia6(testnet.IP6(t, "2001:db8:3::f"), bif.Name)

	l := b.tcp.Attach(inet.AFInet6, nil)
	l.Bind(inet.IP6{}, 9006)
	l.Listen(1)
	c := a.tcp.Attach(inet.AFInet6, nil)
	c.Connect(testnet.IP6(t, "2001:db8:3::b"), 9006)
	s.waitState(c, tcp.StateEstablished)
	srv := s.acceptOne(l)
	if c.MSS() <= 576 {
		t.Fatalf("initial MSS already small: %d", c.MSS())
	}

	data := pattern(20_000)
	got := s.transfer(c, srv, data, len(data), 32768)
	if !bytes.Equal(got, data) {
		t.Fatal("data corrupted across narrow link")
	}
	if c.MSS() > 576-60 {
		t.Fatalf("MSS did not shrink: %d", c.MSS())
	}
	if a.ICMP6.Stats.PmtuUpdates.Get() == 0 {
		t.Fatal("no PMTU update recorded")
	}
	// The router never fragmented (§2.2).
	if r1.V6.Stats.OutFrags.Get() != 0 || r2.V6.Stats.OutFrags.Get() != 0 {
		t.Fatal("IPv6 router fragmented TCP traffic")
	}
}

func TestSecuredTCPSession(t *testing.T) {
	// §6.3's telnet scenario: both sides require authentication; the
	// session works once associations exist.
	s, a, b := tcpPair(t)
	authKey := []byte("0123456789abcdef")
	aLL, bLL := a.LinkLocal(0), b.LinkLocal(0)
	for _, n := range []*tnode{a, b} {
		n.Keys.Add(&key.SA{SPI: 0x70, Src: aLL, Dst: bLL, Proto: key.ProtoAH, AuthAlg: "keyed-md5", AuthKey: authKey})
		n.Keys.Add(&key.SA{SPI: 0x71, Src: bLL, Dst: aLL, Proto: key.ProtoAH, AuthAlg: "keyed-md5", AuthKey: authKey})
		n.Sec.SetSystemPolicy(ipsec.SockOpts{Auth: ipsec.LevelRequire})
	}
	l := b.tcp.Attach(inet.AFInet6, nil)
	l.Bind(inet.IP6{}, 23)
	l.Listen(1)
	c := a.tcp.Attach(inet.AFInet6, nil)
	c.Connect(bLL, 23)
	s.waitState(c, tcp.StateEstablished)
	srv := s.acceptOne(l)
	s.sendAll(c, []byte("login: root\r\n"))
	s.recvN(srv, 13)
	if b.Sec.Stats.InAuthOK.Get() == 0 {
		t.Fatal("segments not authenticated")
	}
}

func TestUnauthenticatedConnSilentlyFails(t *testing.T) {
	// §5.3: under require-authentication, an unauthenticated TCP open
	// "will silently fail as if the destination system were not
	// reachable at all" — SYNs dropped, no RST.
	s, a, b := tcpPair(t)
	b.Sec.SetSystemPolicy(ipsec.SockOpts{Auth: ipsec.LevelRequire})
	l := b.tcp.Attach(inet.AFInet6, nil)
	l.Bind(inet.IP6{}, 23)
	l.Listen(1)
	c := a.tcp.Attach(inet.AFInet6, nil)
	c.Connect(b.LinkLocal(0), 23)
	s.WaitFor(t, "policy drops", func() bool { return b.tcp.Stats.PolicyDrops.Get() >= 1 })
	if c.State() == tcp.StateEstablished {
		t.Fatal("cleartext connection established")
	}
	if b.tcp.Stats.RstOut.Get() != 0 {
		t.Fatal("RST sent; failure is not silent")
	}
	if errors.Is(c.Err(), tcp.ErrRefused) {
		t.Fatal("refusal delivered; should look like an unreachable host")
	}
}

func TestReachabilityConfirmation(t *testing.T) {
	// §4.3 footnote: TCP confirms neighbor reachability without extra
	// ND traffic.
	s, a, b := tcpPair(t)
	l := b.tcp.Attach(inet.AFInet6, nil)
	l.Bind(inet.IP6{}, 9007)
	l.Listen(1)
	c := a.tcp.Attach(inet.AFInet6, nil)
	bLL := b.LinkLocal(0)
	c.Connect(bLL, 9007)
	s.waitState(c, tcp.StateEstablished)
	srv := s.acceptOne(l)

	// Age the neighbor entry to stale, then push data: the ACKs should
	// re-confirm reachability without new solicits.
	a.ICMP6.FastTimo(s.Clock.Now().Add(time.Hour))
	nsBefore := a.ICMP6.Stats.OutNS.Get()
	s.sendAll(c, []byte("keep fresh"))
	s.recvN(srv, 10)
	s.WaitFor(t, "reachable via TCP confirm", func() bool {
		st, ok := a.ICMP6.NeighborState(bLL)
		return ok && st.String() == "reachable"
	})
	if a.ICMP6.Stats.OutNS.Get() > nsBefore+1 {
		t.Fatalf("ND probes sent despite TCP confirmation: %d", a.ICMP6.Stats.OutNS.Get()-nsBefore)
	}
}

func TestListenBacklogOverflow(t *testing.T) {
	s, a, b := tcpPair(t)
	l := b.tcp.Attach(inet.AFInet6, nil)
	l.Bind(inet.IP6{}, 9008)
	l.Listen(2)
	var conns []*tcp.Conn
	for i := 0; i < 4; i++ {
		c := a.tcp.Attach(inet.AFInet6, nil)
		c.Connect(b.LinkLocal(0), 9008)
		conns = append(conns, c)
	}
	// At least the backlog's worth establish; accept drains them.
	got := 0
	for i := 0; i < 16 && got < 2; i++ {
		if l.Accept() != nil {
			got++
		} else if !s.Clock.Step() {
			break
		}
	}
	if got < 2 {
		t.Fatalf("accepted %d", got)
	}
	_ = conns
}

func TestBindConflicts(t *testing.T) {
	_, a, _ := tcpPair(t)
	l1 := a.tcp.Attach(inet.AFInet6, nil)
	if err := l1.Bind(inet.IP6{}, 7777); err != nil {
		t.Fatal(err)
	}
	l2 := a.tcp.Attach(inet.AFInet6, nil)
	if err := l2.Bind(inet.IP6{}, 7777); err == nil {
		t.Fatal("duplicate bind allowed")
	}
}

func TestRouteBasedMSS(t *testing.T) {
	// MSS derives from the route/interface MTU (§2.2's PMTU storage).
	_, a, b := tcpPair(t)
	c := a.tcp.Attach(inet.AFInet6, nil)
	c.Connect(b.LinkLocal(0), 9999)
	if got := c.MSS(); got != 1500-40-20 {
		t.Fatalf("MSS = %d, want %d", got, 1500-40-20)
	}
	// Lower the destination's host-route MTU: a new connection sees a
	// smaller MSS.
	bLL := b.LinkLocal(0)
	rt, ok := a.RT.Lookup(inet.AFInet6, bLL[:])
	if !ok {
		t.Fatal("no host route")
	}
	a.RT.Change(rt, func(e *route.Entry) { e.MTU = 1280 })
	c2 := a.tcp.Attach(inet.AFInet6, nil)
	c2.Connect(bLL, 9999)
	if got := c2.MSS(); got != 1280-60 {
		t.Fatalf("MSS after PMTU = %d", got)
	}
}

func TestHalfCloseDataFlow(t *testing.T) {
	// After receiving the peer's FIN (CLOSE_WAIT) a side can still
	// send; the other side in FIN_WAIT_2 still receives.
	s, a, b := tcpPair(t)
	l := b.tcp.Attach(inet.AFInet6, nil)
	l.Bind(inet.IP6{}, 9100)
	l.Listen(1)
	c := a.tcp.Attach(inet.AFInet6, nil)
	c.Connect(b.LinkLocal(0), 9100)
	s.waitState(c, tcp.StateEstablished)
	srv := s.acceptOne(l)

	c.Close() // client half-closes
	s.recvEOF(srv)
	s.waitState(srv, tcp.StateCloseWait)
	s.waitState(c, tcp.StateFinWait2)

	// Server keeps talking into the half-open direction.
	s.sendAll(srv, []byte("still talking"))
	if string(s.recvN(c, 13)) != "still talking" {
		t.Fatal("half-close data lost")
	}
	srv.Close()
	s.waitState(srv, tcp.StateClosed)
	s.waitState(c, tcp.StateClosed)
}

func TestZeroWindowPersist(t *testing.T) {
	// A receiver that never reads closes its window; the sender's
	// persist timer probes until space opens, and the transfer then
	// completes without loss.
	s, a, b := tcpPair(t)
	l := b.tcp.Attach(inet.AFInet6, nil)
	l.RcvBufMax = 1024
	l.Bind(inet.IP6{}, 9101)
	l.Listen(1)
	c := a.tcp.Attach(inet.AFInet6, nil)
	c.Connect(b.LinkLocal(0), 9101)
	s.waitState(c, tcp.StateEstablished)
	srv := s.acceptOne(l)

	// Push until the send buffer jams against the closed window.
	data := pattern(6000)
	rest := data
	for len(rest) > 0 {
		n, err := c.Send(rest)
		if err != nil {
			t.Fatal(err)
		}
		rest = rest[n:]
		if n == 0 {
			break
		}
	}
	rcv, _ := srv.Buffered()
	if rcv < 1024-tcp.HeaderLen {
		t.Fatalf("window did not stall: %d buffered", rcv)
	}
	// Let the persist machinery probe the closed window for a while.
	s.Run(10 * time.Second)
	got := s.transfer(c, srv, rest, len(data), 4096)
	if !bytes.Equal(got, data) {
		t.Fatal("data corrupted through zero-window stalls")
	}
}
