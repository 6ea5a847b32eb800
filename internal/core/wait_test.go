package core_test

import (
	"errors"
	"fmt"
	"runtime"
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

// realPair wires two stacks on the wall clock over one hub.
func realPair(t *testing.T) (a, b *core.Stack) {
	t.Helper()
	hub := netif.NewHub()
	a = core.NewStack("a", core.Options{})
	b = core.NewStack("b", core.Options{})
	t.Cleanup(a.Close)
	t.Cleanup(b.Close)
	a.AttachLink(hub, testnet.MacA, 1500)
	b.AttachLink(hub, testnet.MacB, 1500)
	return a, b
}

// TestRealClockConnectCycles hammers the socket layer's one way to
// block on real goroutines with real parallelism: thousands of cycles
// of connect, accept, one request/response transaction and close on
// both ends, each call under a short wall-clock deadline.  A lost
// wakeup — an event landing between a caller's readiness check and
// its park — strands that call until its deadline, so any
// ErrTimeoutSock fails the test.  The window is a few instructions
// wide, hence the cycle count; run it under -race as well.
func TestRealClockConnectCycles(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	const deadline = 2 * time.Second
	cycles := 3000
	switch {
	case testing.Short():
		cycles = 300
	case raceEnabled: // ~10x slower; the race detector needs fewer
		cycles = 1000
	}
	a, b := realPair(t)
	l, _ := b.NewSocket(inet.AFInet6, core.SockStream)
	if err := l.Bind(core.Sockaddr6{Family: inet.AFInet6, Port: 7070}); err != nil {
		t.Fatal(err)
	}
	if err := l.Listen(8); err != nil {
		t.Fatal(err)
	}
	srvErr := make(chan error, 1)
	go func() {
		for i := 0; i < cycles; i++ {
			s, err := l.Accept(deadline)
			if err != nil {
				srvErr <- fmt.Errorf("accept %d: %w", i, err)
				return
			}
			req, err := s.Recv(64, deadline)
			if err == nil {
				_, err = s.Send(append(req, '!'), deadline)
			}
			s.Close()
			if err != nil {
				srvErr <- fmt.Errorf("transaction %d: %w", i, err)
				return
			}
		}
		srvErr <- nil
	}()

	dst := core.Addr6(linkLocal(b), 7070)
	buf := make([]byte, 64)
	for i := 0; i < cycles; i++ {
		c, _ := a.NewSocket(inet.AFInet6, core.SockStream)
		if err := c.Connect(dst, deadline); err != nil {
			t.Fatalf("cycle %d: connect: %v", i, err)
		}
		if _, err := c.Send([]byte("ping"), deadline); err != nil {
			t.Fatalf("cycle %d: send: %v", i, err)
		}
		n, err := c.ReadInto(buf, deadline)
		if err != nil || string(buf[:n]) != "ping!" {
			t.Fatalf("cycle %d: reply %q, %v", i, buf[:n], err)
		}
		c.Close()
	}
	if err := <-srvErr; err != nil {
		t.Fatalf("server: %v", err)
	}
}

// TestDeadlineWaitAllocatesNothing pins the cost of blocking: a call
// that parks until its deadline reuses the socket's one deadline timer
// and allocates nothing, on the datagram and the stream path alike.
func TestDeadlineWaitAllocatesNothing(t *testing.T) {
	a, b := realPair(t)
	u, _ := a.NewSocket(inet.AFInet6, core.SockDgram)
	if err := u.Bind(core.Sockaddr6{Family: inet.AFInet6, Port: 7071}); err != nil {
		t.Fatal(err)
	}
	l, _ := b.NewSocket(inet.AFInet6, core.SockStream)
	l.Bind(core.Sockaddr6{Family: inet.AFInet6, Port: 7072})
	l.Listen(1)
	c, _ := a.NewSocket(inet.AFInet6, core.SockStream)
	if err := c.Connect(core.Addr6(linkLocal(b), 7072), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	for _, tc := range []struct {
		name string
		wait func() error
	}{
		{"RecvFrom", func() error { _, _, err := u.RecvFrom(64, time.Millisecond); return err }},
		{"ReadInto", func() error { _, err := c.ReadInto(buf, time.Millisecond); return err }},
	} {
		if err := tc.wait(); !errors.Is(err, core.ErrTimeoutSock) {
			t.Fatalf("%s: %v, want a timeout", tc.name, err) // also arms the timer
		}
		if allocs := testing.AllocsPerRun(20, func() { tc.wait() }); allocs != 0 {
			t.Errorf("%s: a parked deadline wait allocates %.1f objects, want 0", tc.name, allocs)
		}
	}
}

// TestConnectAfterPeerAlreadyClosed is the set-up stall: the peer
// accepts and closes at once, and the SYN-ACK and its FIN are both
// processed before the connector first looks, which then finds the
// connection in CLOSE_WAIT rather than ESTABLISHED. Connect must still
// report the completed handshake — BSD's connect(2) returns once
// soisconnected() has run, whatever happened next — not sleep to its
// deadline. The server is swapped for a tap that answers the SYN from
// inside the connector's own transmit, feeding both segments straight
// into the client's IPv6 input, so the order is fixed, not raced.
func TestConnectAfterPeerAlreadyClosed(t *testing.T) {
	e := newEnv(t)
	hub := e.hub()
	cli, srv := e.stack("cli"), e.stack("srv")
	cifp := cli.AttachLink(hub, testnet.MacA, 1500)
	sifp := srv.AttachLink(hub, testnet.MacB, 1500)
	e.start()

	// Resolve the server's link address so the SYN leaves at once.
	src, dst := linkLocal(cli), linkLocal(srv)
	u, _ := cli.NewSocket(inet.AFInet6, core.SockDgram)
	if err := u.SendTo([]byte("nd"), core.Addr6(dst, 9)); err != nil {
		t.Fatal(err)
	}
	testnet.WaitClock(t, e.clock, "neighbor resolved", func() bool {
		return srv.Snapshot().UDP["InNoPorts"] > 0
	})
	hub.Detach(sifp)

	const iss = 7000
	segment := func(h *tcp.Header) *mbuf.Mbuf {
		seg := make([]byte, h.Len())
		h.Put(seg)
		ck := inet.TransportChecksum6(dst, src, proto.TCP, seg)
		seg[16], seg[17] = byte(ck>>8), byte(ck)
		ip := ipv6.Header{NextHdr: proto.TCP, HopLimit: 64, PayloadLen: len(seg), Src: dst, Dst: src}
		return mbuf.New(append(ip.Marshal(nil), seg...))
	}
	tap := netif.New("tap0", testnet.MacB, 1500)
	tap.SetFlags(netif.FlagUp, true)
	tap.SetInput(func(_ *netif.Interface, fr netif.Frame) {
		b := fr.Payload.Bytes()
		if len(b) < ipv6.HeaderLen+tcp.HeaderLen || b[6] != proto.TCP || b[ipv6.HeaderLen+13] != tcp.FlagSYN {
			return // the client's ACKs
		}
		th := b[ipv6.HeaderLen:]
		sport, dport := uint16(th[0])<<8|uint16(th[1]), uint16(th[2])<<8|uint16(th[3])
		ack := (uint32(th[4])<<24 | uint32(th[5])<<16 | uint32(th[6])<<8 | uint32(th[7])) + 1
		cli.V6.Input(cifp, segment(&tcp.Header{SPort: dport, DPort: sport, Seq: iss, Ack: ack,
			Flags: tcp.FlagSYN | tcp.FlagACK, Wnd: 65535, MSS: 1440}))
		cli.V6.Input(cifp, segment(&tcp.Header{SPort: dport, DPort: sport, Seq: iss + 1, Ack: ack,
			Flags: tcp.FlagFIN | tcp.FlagACK, Wnd: 65535}))
	})
	hub.Attach(tap)

	c, _ := cli.NewSocket(inet.AFInet6, core.SockStream)
	if err := c.Connect(core.Addr6(dst, 80), 10*time.Second); err != nil {
		t.Fatalf("connect: %v (state %v)", err, c.Conn().State())
	}
	if st := c.Conn().State(); st != tcp.StateCloseWait {
		t.Fatalf("state %v, want CLOSE_WAIT: the FIN was not processed before the connector looked", st)
	}
	if _, err := c.Recv(64, time.Second); !errors.Is(err, core.ErrClosedSock) {
		t.Fatalf("recv after the peer's FIN: %v, want end of stream", err)
	}
}
