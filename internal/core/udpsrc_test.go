package core_test

import (
	"testing"
	"time"

	"bsd6/internal/core"
	"bsd6/internal/inet"
	"bsd6/internal/testnet"
)

// TestConnectedUDPSourceMatchesTCP checks that connect(2) on a UDP
// socket fixes the local address at once, to the same source a TCP
// connection to the same destination gets, and that its datagrams
// carry it.  Host a has two IPv6 prefixes on one link, so the choice
// is the longest match rather than the first address configured.
func TestConnectedUDPSourceMatchesTCP(t *testing.T) {
	e := newEnv(t)
	hub := e.hub()
	a, b := e.stack("a"), e.stack("b")
	aIf := a.AttachLink(hub, testnet.MacA, 1500)
	bIf := b.AttachLink(hub, testnet.MacB, 1500)
	for _, s := range []string{"2001:db8:1::1", "2001:db8:2::1"} {
		if err := a.ConfigureV6(aIf, testnet.IP6(t, s), 64); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.ConfigureV6(bIf, testnet.IP6(t, "2001:db8:2::2"), 64); err != nil {
		t.Fatal(err)
	}
	a.ConfigureV4(aIf, inet.IP4{10, 0, 0, 1}, 24)
	b.ConfigureV4(bIf, inet.IP4{10, 0, 0, 2}, 24)
	e.start()

	cases := []struct {
		name   string
		family inet.Family
		dst    func(port uint16) core.Sockaddr6
		want   inet.IP6
	}{
		{"inet6", inet.AFInet6,
			func(p uint16) core.Sockaddr6 { return core.Addr6(testnet.IP6(t, "2001:db8:2::2"), p) },
			testnet.IP6(t, "2001:db8:2::1")},
		{"inet6-v4mapped", inet.AFInet6,
			func(p uint16) core.Sockaddr6 {
				return core.Addr6(inet.V4Mapped(inet.IP4{10, 0, 0, 2}), p)
			},
			inet.V4Mapped(inet.IP4{10, 0, 0, 1})},
		{"inet", inet.AFInet,
			func(p uint16) core.Sockaddr6 { return core.Addr4(inet.IP4{10, 0, 0, 2}, p) },
			inet.V4Mapped(inet.IP4{10, 0, 0, 1})},
	}
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tcpPort, udpPort := uint16(7000+2*i), uint16(7001+2*i)
			l, _ := b.NewSocket(c.family, core.SockStream)
			if err := l.Bind(core.Sockaddr6{Family: c.family, Port: tcpPort}); err != nil {
				t.Fatal(err)
			}
			if err := l.Listen(1); err != nil {
				t.Fatal(err)
			}
			srv, _ := b.NewSocket(c.family, core.SockDgram)
			if err := srv.Bind(core.Sockaddr6{Family: c.family, Port: udpPort}); err != nil {
				t.Fatal(err)
			}

			tc, _ := a.NewSocket(c.family, core.SockStream)
			if err := tc.Connect(c.dst(tcpPort), 5*time.Second); err != nil {
				t.Fatal(err)
			}
			uc, _ := a.NewSocket(c.family, core.SockDgram)
			if err := uc.Connect(c.dst(udpPort), time.Second); err != nil {
				t.Fatal(err)
			}
			tcpSrc, udpSrc := tc.LocalAddr().Addr, uc.LocalAddr().Addr
			if tcpSrc != c.want || udpSrc != tcpSrc {
				t.Fatalf("source after connect: tcp %v, udp %v, want %v for both", tcpSrc, udpSrc, c.want)
			}
			if _, err := uc.Send([]byte("src?"), time.Second); err != nil {
				t.Fatal(err)
			}
			_, from, err := srv.RecvFrom(64, 2*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if from.Addr != udpSrc {
				t.Fatalf("datagram arrived from %v, connected source is %v", from.Addr, udpSrc)
			}
			tc.Close()
			uc.Close()
			srv.Close()
			l.Close()
		})
	}

	// A source chosen by connect is chosen again by the next connect;
	// one the socket was bound to stays.
	uc, _ := a.NewSocket(inet.AFInet6, core.SockDgram)
	for _, c := range []struct{ dst, want string }{
		{"2001:db8:1::9", "2001:db8:1::1"},
		{"2001:db8:2::9", "2001:db8:2::1"},
	} {
		if err := uc.Connect(core.Addr6(testnet.IP6(t, c.dst), 9), time.Second); err != nil {
			t.Fatal(err)
		}
		if got := uc.LocalAddr().Addr; got != testnet.IP6(t, c.want) {
			t.Fatalf("connect to %s: source %v, want %s", c.dst, got, c.want)
		}
	}
	bound, _ := a.NewSocket(inet.AFInet6, core.SockDgram)
	if err := bound.Bind(core.Addr6(testnet.IP6(t, "2001:db8:1::1"), 0)); err != nil {
		t.Fatal(err)
	}
	if err := bound.Connect(core.Addr6(testnet.IP6(t, "2001:db8:2::9"), 9), time.Second); err != nil {
		t.Fatal(err)
	}
	if got := bound.LocalAddr().Addr; got != testnet.IP6(t, "2001:db8:1::1") {
		t.Fatalf("bound socket's source moved to %v on connect", got)
	}
}
