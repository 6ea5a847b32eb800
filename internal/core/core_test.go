package core_test

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"bsd6/internal/core"
	"bsd6/internal/icmp6"
	"bsd6/internal/inet"
	"bsd6/internal/ipsec"
	"bsd6/internal/key"
	"bsd6/internal/netif"
	"bsd6/internal/testnet"
	"bsd6/internal/vclock"
)

// env is a virtual-time test environment: stacks and hubs share one
// virtual clock, and a vclock.Driver fires its next timer whenever no
// actor counted on the clock can run. The accounting rule: the test
// goroutine is counted from newEnv on; any other goroutine that
// blocks in the stack starts through vclock.Go; an actor parks only
// inside a socket call, vclock.Sleep (testnet.WaitClock) or a
// testnet.Signal, each of which the clock sees; each stack's netisr
// counts its queued frames. Real goroutines therefore run against
// simulated protocol time — DAD's seconds of probing or a socket
// timeout cost microseconds of wall clock — and replay identically.
type env struct {
	t      *testing.T
	clock  *vclock.Virtual
	driver *vclock.Driver
}

func newEnv(t *testing.T) *env {
	e := &env{t: t, clock: vclock.NewVirtual(time.Unix(1_000_000, 0))}
	e.clock.Runnable(1) // the test goroutine
	t.Cleanup(func() {
		if e.driver != nil {
			e.driver.Stop()
		}
	})
	return e
}

// start launches the driver; before it, simulated time moves only if
// the test advances the clock itself.
func (e *env) start() {
	e.driver = vclock.NewDriver(e.clock)
	e.driver.Start()
}

func (e *env) stack(name string) *core.Stack {
	s := core.NewStack(name, core.Options{Clock: e.clock})
	e.t.Cleanup(s.Close)
	return s
}

func (e *env) hub() *netif.Hub {
	h := netif.NewHub()
	h.SetClock(e.clock)
	return h
}

func stackPair(t *testing.T) (*core.Stack, *core.Stack, *netif.Hub) {
	t.Helper()
	e := newEnv(t)
	hub := e.hub()
	a := e.stack("a")
	b := e.stack("b")
	a.AttachLink(hub, testnet.MacA, 1500)
	b.AttachLink(hub, testnet.MacB, 1500)
	e.start()
	return a, b, hub
}

func linkLocal(s *core.Stack) inet.IP6 {
	ll, _ := s.Interfaces()[0].LinkLocal6(time.Now())
	return ll
}

func TestFigure7UDPHello(t *testing.T) {
	// The paper's Figure 7: socket(PF_INET6, SOCK_DGRAM), fill a
	// sockaddr_in6 via ascii2addr, sendto "hello".
	a, b, _ := stackPair(t)

	srv, err := b.NewSocket(inet.AFInet6, core.SockDgram)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Bind(core.Sockaddr6{Family: inet.AFInet6, Port: 7}); err != nil {
		t.Fatal(err)
	}

	cli, err := a.NewSocket(inet.AFInet6, core.SockDgram)
	if err != nil {
		t.Fatal(err)
	}
	addrAny, err := inet.Ascii2Addr(inet.AFInet6, linkLocal(b).String())
	if err != nil {
		t.Fatal(err)
	}
	sa := core.Sockaddr6{Family: inet.AFInet6, Port: 7, Addr: addrAny.(inet.IP6)}
	if err := cli.SendTo([]byte("hello"), sa); err != nil {
		t.Fatal(err)
	}
	data, from, err := srv.RecvFrom(64, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "hello" || from.Addr != linkLocal(a) {
		t.Fatalf("got %q from %v", data, from)
	}
}

func TestStreamSocketsEcho(t *testing.T) {
	a, b, _ := stackPair(t)
	l, _ := b.NewSocket(inet.AFInet6, core.SockStream)
	if err := l.Bind(core.Sockaddr6{Family: inet.AFInet6, Port: 8080}); err != nil {
		t.Fatal(err)
	}
	if err := l.Listen(4); err != nil {
		t.Fatal(err)
	}
	serve := testnet.Spawn(b.Clock(), func() error {
		srv, err := l.Accept(time.Minute)
		if err != nil {
			return err
		}
		for {
			data, err := srv.Recv(4096, time.Minute)
			if err != nil {
				return nil // EOF
			}
			if _, err := srv.Send(data, 5*time.Second); err != nil {
				return err
			}
		}
	})

	c, _ := a.NewSocket(inet.AFInet6, core.SockStream)
	if err := c.Connect(core.Addr6(linkLocal(b), 8080), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	msg := []byte("telnet-over-the-reproduction\r\n")
	if _, err := c.Send(msg, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	var got []byte
	for len(got) < len(msg) {
		chunk, err := c.Recv(4096, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, chunk...)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("echo mismatch: %q", got)
	}
	c.Close()
	if err := serve(); err != nil {
		t.Fatal(err)
	}
}

func TestTransitionV4MappedSockets(t *testing.T) {
	// examples/transition in miniature: PF_INET6 server, IPv4 client.
	e := newEnv(t)
	hub := e.hub()
	a := e.stack("a")
	b := e.stack("b")
	aIf := a.AttachLink(hub, testnet.MacA, 1500)
	bIf := b.AttachLink(hub, testnet.MacB, 1500)
	a.ConfigureV4(aIf, inet.IP4{10, 0, 0, 1}, 24)
	b.ConfigureV4(bIf, inet.IP4{10, 0, 0, 2}, 24)
	e.start()

	srv, _ := b.NewSocket(inet.AFInet6, core.SockDgram)
	srv.Bind(core.Sockaddr6{Family: inet.AFInet6, Port: 4242})

	cli, _ := a.NewSocket(inet.AFInet, core.SockDgram)
	if err := cli.SendTo([]byte("over v4"), core.Addr4(inet.IP4{10, 0, 0, 2}, 4242)); err != nil {
		t.Fatal(err)
	}
	data, from, err := srv.RecvFrom(64, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "over v4" {
		t.Fatalf("data %q", data)
	}
	if !from.Addr.IsV4Mapped() {
		t.Fatalf("source not v4-mapped: %v", from.Addr)
	}
	// Reply through the same socket back to the mapped address.
	if err := srv.SendTo([]byte("ack"), from); err != nil {
		t.Fatal(err)
	}
	if data, _, err = cli.RecvFrom(64, 2*time.Second); err != nil || string(data) != "ack" {
		t.Fatalf("reply: %q %v", data, err)
	}
	if b.UDP.Stats.InV4ToV6.Get() == 0 {
		t.Fatal("InV4ToV6 not counted")
	}
}

func TestSecuritySocketOptionsEIPSEC(t *testing.T) {
	// §6.3: requesting security with no association and no key
	// management daemon surfaces EIPSEC.
	a, b, _ := stackPair(t)
	_ = b
	cli, _ := a.NewSocket(inet.AFInet6, core.SockDgram)
	if err := cli.SetSecurity(core.SoSecurityAuthentication, ipsec.LevelRequire); err != nil {
		t.Fatal(err)
	}
	err := cli.SendTo([]byte("x"), core.Addr6(linkLocal(b), 9))
	if !errors.Is(err, core.EIPSEC) {
		t.Fatalf("err = %v, want EIPSEC", err)
	}
}

func TestSecuredSocketSession(t *testing.T) {
	a, b, _ := stackPair(t)
	authKey := []byte("0123456789abcdef")
	aLL, bLL := linkLocal(a), linkLocal(b)
	for _, s := range []*core.Stack{a, b} {
		s.Keys.Add(&key.SA{SPI: 0x51, Src: aLL, Dst: bLL, Proto: key.ProtoAH, AuthAlg: "keyed-md5", AuthKey: authKey})
		s.Keys.Add(&key.SA{SPI: 0x52, Src: bLL, Dst: aLL, Proto: key.ProtoAH, AuthAlg: "keyed-md5", AuthKey: authKey})
		s.Keys.Add(&key.SA{SPI: 0x53, Src: aLL, Dst: bLL, Proto: key.ProtoESPTransport, EncAlg: "des-cbc", EncKey: []byte("8bytekey")})
		s.Keys.Add(&key.SA{SPI: 0x54, Src: bLL, Dst: aLL, Proto: key.ProtoESPTransport, EncAlg: "des-cbc", EncKey: []byte("8bytekey")})
	}
	// Server requires both services on its socket; the telnet-style
	// client requests them via setsockopt (§6.3).
	l, _ := b.NewSocket(inet.AFInet6, core.SockStream)
	l.SetSecurity(core.SoSecurityAuthentication, ipsec.LevelRequire)
	l.SetSecurity(core.SoSecurityEncryptTrans, ipsec.LevelRequire)
	l.Bind(core.Sockaddr6{Family: inet.AFInet6, Port: 23})
	l.Listen(1)

	c, _ := a.NewSocket(inet.AFInet6, core.SockStream)
	c.SetSecurity(core.SoSecurityAuthentication, ipsec.LevelRequire)
	c.SetSecurity(core.SoSecurityEncryptTrans, ipsec.LevelRequire)
	if err := c.Connect(core.Addr6(bLL, 23), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	srv, err := l.Accept(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c.Send([]byte("secret login"), time.Second)
	data, err := srv.Recv(64, 2*time.Second)
	if err != nil || string(data) != "secret login" {
		t.Fatalf("%q %v", data, err)
	}
	if b.Sec.Stats.InAuthOK.Get() == 0 || b.Sec.Stats.InDecryptOK.Get() == 0 {
		t.Fatalf("security not applied: %+v", &b.Sec.Stats)
	}
}

func TestKeyDaemonAcquireFlow(t *testing.T) {
	// A user-level key management "daemon" (standing in for Photuris,
	// §6.2) registers on PF_KEY, answers the ACQUIRE, and traffic then
	// flows.
	a, b, _ := stackPair(t)
	aLL, bLL := linkLocal(a), linkLocal(b)
	authKey := []byte("0123456789abcdef")

	// The daemon: answer any ACQUIRE on either stack by installing the
	// same SA on both (a stand-in for the key exchange protocol run).
	// The receiving end gets it first: once the sender has it, its next
	// datagram goes out at once, and the test sends no retry.
	for _, pairS := range [][2]*core.Stack{{a, b}, {b, a}} {
		local, remote := pairS[0], pairS[1]
		ks := local.PFKey()
		t.Cleanup(ks.Close)
		ks.Send(key.Message{Type: key.MsgRegister})
		go func() {
			for m := range ks.C {
				if m.Type != key.MsgAcquire {
					continue
				}
				sa := &key.SA{
					SPI: 0x900, Src: m.SA.Src, Dst: m.SA.Dst, Proto: m.SA.Proto,
					AuthAlg: "keyed-md5", AuthKey: authKey,
				}
				remote.Keys.Add(&key.SA{SPI: 0x900, Src: m.SA.Src, Dst: m.SA.Dst, Proto: m.SA.Proto,
					AuthAlg: "keyed-md5", AuthKey: authKey})
				local.Keys.Add(sa)
			}
		}()
	}

	cli, _ := a.NewSocket(inet.AFInet6, core.SockDgram)
	cli.SetSecurity(core.SoSecurityAuthentication, ipsec.LevelRequire)
	srv, _ := b.NewSocket(inet.AFInet6, core.SockDgram)
	srv.Bind(core.Sockaddr6{Family: inet.AFInet6, Port: 99})

	// First sends fail with EIPSEC while the association is "delayed";
	// once the daemon installs it, traffic flows (§3.3).
	deadline := time.Now().Add(3 * time.Second)
	var lastErr error
	for time.Now().Before(deadline) {
		lastErr = cli.SendTo([]byte("acquired"), core.Addr6(bLL, 99))
		if lastErr == nil {
			break
		}
		if !errors.Is(lastErr, core.EIPSEC) {
			t.Fatalf("unexpected error %v", lastErr)
		}
		runtime.Gosched() // give the daemon goroutine the ACQUIRE
	}
	if lastErr != nil {
		t.Fatalf("send never succeeded: %v", lastErr)
	}
	data, _, err := srv.RecvFrom(64, 2*time.Second)
	if err != nil || string(data) != "acquired" {
		t.Fatalf("%q %v", data, err)
	}
	_ = aLL
}

func TestAutoconfThroughRouter(t *testing.T) {
	// Full §4.2 flow through the public API with live timers (on the
	// virtual clock): router advertises; host autoconfigures (DAD
	// included) and reaches a remote network.
	e := newEnv(t)
	hub := e.hub()
	r := e.stack("r")
	h := e.stack("h")
	e.start()
	rIf := r.AttachLink(hub, testnet.MacR, 1500)
	hIf := h.AttachLink(hub, testnet.MacB, 1500)
	prefix := testnet.IP6(t, "2001:db8:77::")
	r.ConfigureV6(rIf, testnet.IP6(t, "2001:db8:77::1"), 64)
	r.EnableRouter6(rIf.Name, icmp6.RouterConfig{
		Interval: time.Hour, Lifetime: time.Hour,
		Prefixes: []icmp6.PrefixInfo{{Prefix: prefix, Plen: 64, OnLink: true, Autonomous: true}},
	})
	h.SolicitRouters(hIf.Name)

	want := inet.WithPrefix(prefix, 64, inet.LinkLocal(testnet.MacB.Token()))
	// DAD needs several seconds of timer ticks — simulated ones, which
	// the driver burns through while this goroutine sleeps between polls.
	testnet.WaitClock(t, e.clock, "autoconf address to become usable", func() bool {
		for _, a := range hIf.Addrs6() {
			if a.Addr == want && !a.Tentative && !a.Duplicated {
				return true
			}
		}
		return false
	})
	// The ifconfig output shows the autoconf address.
	if !strings.Contains(h.Ifconfig(), "autoconf") {
		t.Fatalf("ifconfig:\n%s", h.Ifconfig())
	}
	// And traffic can use it: UDP to the router's global address.
	srv, _ := r.NewSocket(inet.AFInet6, core.SockDgram)
	srv.Bind(core.Sockaddr6{Family: inet.AFInet6, Port: 777})
	cli, _ := h.NewSocket(inet.AFInet6, core.SockDgram)
	if err := cli.SendTo([]byte("configured"), core.Addr6(testnet.IP6(t, "2001:db8:77::1"), 777)); err != nil {
		t.Fatal(err)
	}
	data, from, err := srv.RecvFrom(64, 2*time.Second)
	if err != nil || string(data) != "configured" {
		t.Fatal(err)
	}
	if from.Addr != want {
		t.Fatalf("source %v, want the autoconf address %v", from.Addr, want)
	}
}

func TestNetstatRendering(t *testing.T) {
	a, b, _ := stackPair(t)
	a.Ping6(linkLocal(b), 1, 1, []byte("x"))
	testnet.WaitFor(t, "echo reply", func() bool { return a.ICMP6.Stats.InEchoReps.Get() >= 1 })
	out := a.Netstat()
	for _, want := range []string{"Routing tables", "reachable", "icmp6:", "ipsec:", "key:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("netstat missing %q:\n%s", want, out)
		}
	}
	ifc := a.Ifconfig()
	if !strings.Contains(ifc, "inet6 fe80::") {
		t.Fatalf("ifconfig:\n%s", ifc)
	}
}

func TestHostTableResolution(t *testing.T) {
	a, b, _ := stackPair(t)
	a.Hosts.Add("peer", linkLocal(b))
	addr, err := a.Hosts.Hostname2Addr(inet.AFInet6, "peer")
	if err != nil {
		t.Fatal(err)
	}
	srv, _ := b.NewSocket(inet.AFInet6, core.SockDgram)
	srv.Bind(core.Sockaddr6{Family: inet.AFInet6, Port: 53})
	cli, _ := a.NewSocket(inet.AFInet6, core.SockDgram)
	if err := cli.SendTo([]byte("by name"), core.Addr6(addr.(inet.IP6), 53)); err != nil {
		t.Fatal(err)
	}
	if data, _, err := srv.RecvFrom(64, 2*time.Second); err != nil || string(data) != "by name" {
		t.Fatal(err)
	}
}

func TestDADOnAttach(t *testing.T) {
	e := newEnv(t)
	hub := e.hub()
	a := e.stack("a")
	b := e.stack("b")
	e.start()
	_, ok := a.AttachLinkDAD(hub, testnet.MacA, 1500)
	if !ok {
		t.Fatal("lone host's DAD failed")
	}
	// A second stack with the SAME MAC (same token, same link-local)
	// must detect the duplicate.
	_, ok = b.AttachLinkDAD(hub, testnet.MacA, 1500)
	if ok {
		t.Fatal("duplicate link-local not detected")
	}
}

func TestSocketTimeouts(t *testing.T) {
	a, _, _ := stackPair(t)
	s, _ := a.NewSocket(inet.AFInet6, core.SockDgram)
	s.Bind(core.Sockaddr6{Family: inet.AFInet6, Port: 5000})
	start := time.Now()
	_, _, err := s.RecvFrom(64, 50*time.Millisecond)
	if !errors.Is(err, core.ErrTimeoutSock) {
		t.Fatalf("err = %v", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("timeout too slow")
	}
	l, _ := a.NewSocket(inet.AFInet6, core.SockStream)
	l.Bind(core.Sockaddr6{Family: inet.AFInet6, Port: 5001})
	l.Listen(1)
	if _, err := l.Accept(50 * time.Millisecond); !errors.Is(err, core.ErrTimeoutSock) {
		t.Fatalf("accept: %v", err)
	}
}

func TestPortUnreachableOnSocket(t *testing.T) {
	a, b, _ := stackPair(t)
	cli, _ := a.NewSocket(inet.AFInet6, core.SockDgram)
	if err := cli.Connect(core.Addr6(linkLocal(b), 9876), 0); err != nil {
		t.Fatal(err)
	}
	cli.Send([]byte("anyone"), 0)
	// The ICMP error surfaces on the next receive.
	_, _, err := cli.RecvFrom(64, 2*time.Second)
	if !errors.Is(err, core.ErrConnRefused) {
		t.Fatalf("err = %v", err)
	}
}

func TestStreamSocketsOverV4(t *testing.T) {
	e := newEnv(t)
	hub := e.hub()
	a := e.stack("a")
	b := e.stack("b")
	aIf := a.AttachLink(hub, testnet.MacA, 1500)
	bIf := b.AttachLink(hub, testnet.MacB, 1500)
	a.ConfigureV4(aIf, inet.IP4{10, 0, 0, 1}, 24)
	b.ConfigureV4(bIf, inet.IP4{10, 0, 0, 2}, 24)
	e.start()

	l, _ := b.NewSocket(inet.AFInet, core.SockStream)
	l.Bind(core.Sockaddr6{Family: inet.AFInet, Port: 80})
	l.Listen(1)
	c, _ := a.NewSocket(inet.AFInet, core.SockStream)
	if err := c.Connect(core.Addr4(inet.IP4{10, 0, 0, 2}, 80), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	srv, err := l.Accept(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c.Send([]byte("GET /"), time.Second)
	data, err := srv.Recv(64, 2*time.Second)
	if err != nil || string(data) != "GET /" {
		t.Fatalf("%q %v", data, err)
	}
}
