package core_test

// Socket-API-level tests for the extension features: the privileged
// security bypass (§6.3), per-port policies (§3.5), flow labels
// (§5.1), and the gateway tunnel through the public API.

import (
	"errors"
	"strings"
	"testing"
	"time"

	"bsd6/internal/core"
	"bsd6/internal/inet"
	"bsd6/internal/ipsec"
	"bsd6/internal/key"
	"bsd6/internal/route"
	"bsd6/internal/testnet"
	"bsd6/internal/vclock"
)

func TestSecurityBypassSocket(t *testing.T) {
	a, b, _ := stackPair(t)
	// Both systems mandate authentication; no keys exist anywhere.
	a.Sec.SetSystemPolicy(ipsec.SockOpts{Auth: ipsec.LevelRequire})
	b.Sec.SetSystemPolicy(ipsec.SockOpts{Auth: ipsec.LevelRequire})

	// An ordinary socket cannot send (EIPSEC)...
	plain, _ := a.NewSocket(inet.AFInet6, core.SockDgram)
	if err := plain.SendTo([]byte("x"), core.Addr6(linkLocal(b), 500)); !errors.Is(err, core.EIPSEC) {
		t.Fatalf("plain send: %v", err)
	}
	// ...and the bypass option is refused for non-root.
	if err := plain.SetSecurityBypass(1000); err == nil {
		t.Fatal("non-root bypass accepted")
	}

	// The key-management daemon's socket (euid 0) bypasses on both
	// ends — this is how Photuris would exchange its own messages
	// before any associations exist (§6.3).
	kmA, _ := a.NewSocket(inet.AFInet6, core.SockDgram)
	if err := kmA.SetSecurityBypass(0); err != nil {
		t.Fatal(err)
	}
	kmB, _ := b.NewSocket(inet.AFInet6, core.SockDgram)
	if err := kmB.SetSecurityBypass(0); err != nil {
		t.Fatal(err)
	}
	kmB.Bind(core.Sockaddr6{Family: inet.AFInet6, Port: 468}) // Photuris' port
	if err := kmA.SendTo([]byte("exchange"), core.Addr6(linkLocal(b), 468)); err != nil {
		t.Fatal(err)
	}
	data, _, err := kmB.RecvFrom(64, 2*time.Second)
	if err != nil || string(data) != "exchange" {
		t.Fatalf("bypass exchange: %q %v", data, err)
	}
}

func TestPortPolicyThroughSockets(t *testing.T) {
	a, b, _ := stackPair(t)
	// The administrator requires authenticity on privileged ports only
	// (§3.5's example) — no system-wide or socket policy.
	b.Sec.AddPortPolicy(1, 1023, ipsec.SockOpts{Auth: ipsec.LevelRequire})

	privileged, _ := b.NewSocket(inet.AFInet6, core.SockDgram)
	privileged.Bind(core.Sockaddr6{Family: inet.AFInet6, Port: 512})
	open, _ := b.NewSocket(inet.AFInet6, core.SockDgram)
	open.Bind(core.Sockaddr6{Family: inet.AFInet6, Port: 5120})

	cli, _ := a.NewSocket(inet.AFInet6, core.SockDgram)
	// Cleartext reaches the unprivileged port...
	cli.SendTo([]byte("open"), core.Addr6(linkLocal(b), 5120))
	if data, _, err := open.RecvFrom(64, 2*time.Second); err != nil || string(data) != "open" {
		t.Fatalf("open port: %q %v", data, err)
	}
	// ...but is silently dropped on the privileged one.
	cli.SendTo([]byte("priv"), core.Addr6(linkLocal(b), 512))
	if _, _, err := privileged.RecvFrom(64, 300*time.Millisecond); !errors.Is(err, core.ErrTimeoutSock) {
		t.Fatalf("privileged port: %v", err)
	}
	if b.UDP.Stats.InPolicyDrops.Get() == 0 {
		t.Fatal("policy drop not counted")
	}

	// With keys installed, authenticated traffic reaches it.
	authKey := []byte("0123456789abcdef")
	aLL, bLL := linkLocal(a), linkLocal(b)
	for _, s := range []*core.Stack{a, b} {
		s.Keys.Add(&key.SA{SPI: 0x31, Src: aLL, Dst: bLL, Proto: key.ProtoAH, AuthAlg: "keyed-md5", AuthKey: authKey})
	}
	authed, _ := a.NewSocket(inet.AFInet6, core.SockDgram)
	authed.SetSecurity(core.SoSecurityAuthentication, ipsec.LevelRequire)
	authed.SendTo([]byte("signed"), core.Addr6(bLL, 512))
	if data, _, err := privileged.RecvFrom(64, 2*time.Second); err != nil || string(data) != "signed" {
		t.Fatalf("authenticated to privileged port: %q %v", data, err)
	}
}

func TestFlowLabelEndToEnd(t *testing.T) {
	// §5.1: the PCB carries the IPv6 Flow Identifier; it must appear
	// in the header and be visible to the receiver.
	a, b, _ := stackPair(t)
	srv, _ := b.NewSocket(inet.AFInet6, core.SockDgram)
	srv.Bind(core.Sockaddr6{Family: inet.AFInet6, Port: 777})
	cli, _ := a.NewSocket(inet.AFInet6, core.SockDgram)
	sa := core.Sockaddr6{Family: inet.AFInet6, Port: 777, Addr: linkLocal(b), FlowInfo: 0x000abcde}
	if err := cli.SendTo([]byte("flowing"), sa); err != nil {
		t.Fatal(err)
	}
	_, from, err := srv.RecvFrom(64, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if from.FlowInfo != 0x000abcde {
		t.Fatalf("flow info = %#x", from.FlowInfo)
	}
}

func TestGatewayTunnelThroughSockets(t *testing.T) {
	// client --tunnel-- gw --cleartext-- server, through the public
	// API: the client's socket requires tunnel encryption; the SA
	// names the gateway with a selector for the server's net.
	e := newEnv(t)
	hub1, hub2 := e.hub(), e.hub()
	cli := e.stack("cli")
	gw := e.stack("gw")
	srv := e.stack("srv")
	cIf := cli.AttachLink(hub1, testnet.MacA, 1500)
	g1 := gw.AttachLink(hub1, testnet.MacR, 1500)
	g2 := gw.AttachLink(hub2, testnet.MacS, 1500)
	sIf := srv.AttachLink(hub2, testnet.MacB, 1500)
	gw.V6.Forwarding = true
	e.start()

	cliAddr := testnet.IP6(t, "2001:db8:1::c")
	gwAddr := testnet.IP6(t, "2001:db8:1::1")
	srvAddr := testnet.IP6(t, "2001:db8:2::5")
	cli.ConfigureV6(cIf, cliAddr, 64)
	gw.ConfigureV6(g1, gwAddr, 64)
	gw.ConfigureV6(g2, testnet.IP6(t, "2001:db8:2::1"), 64)
	srv.ConfigureV6(sIf, srvAddr, 64)
	cli.DefaultRoute6(gwAddr, cIf.Name)
	srv.DefaultRoute6(testnet.IP6(t, "2001:db8:2::1"), sIf.Name)

	encKey := []byte("DESCBC!!")
	sa := &key.SA{SPI: 0xab, Src: cliAddr, Dst: gwAddr, Proto: key.ProtoESPTunnel,
		EncAlg: "des-cbc", EncKey: encKey,
		SelDst: testnet.IP6(t, "2001:db8:2::"), SelPlen: 48}
	cli.Keys.Add(sa)
	cp := *sa
	gw.Keys.Add(&cp)

	server, _ := srv.NewSocket(inet.AFInet6, core.SockDgram)
	server.Bind(core.Sockaddr6{Family: inet.AFInet6, Port: 9999})

	client, _ := cli.NewSocket(inet.AFInet6, core.SockDgram)
	client.SetSecurity(core.SoSecurityEncryptTunnel, ipsec.LevelRequire)
	if err := client.SendTo([]byte("via the gateway"), core.Addr6(srvAddr, 9999)); err != nil {
		t.Fatal(err)
	}
	data, from, err := server.RecvFrom(64, 2*time.Second)
	if err != nil || string(data) != "via the gateway" {
		t.Fatalf("%q %v", data, err)
	}
	if from.Addr != cliAddr {
		t.Fatalf("inner source %v", from.Addr)
	}
	if cli.Sec.Stats.OutTunnel.Get() == 0 || gw.Sec.Stats.InDecryptOK.Get() == 0 || gw.V6.Stats.Forwarded.Get() == 0 {
		t.Fatalf("tunnel path not exercised: cli=%+v gw=%+v", &cli.Sec.Stats, &gw.Sec.Stats)
	}
}

func TestLossyLinkUDPRetry(t *testing.T) {
	// Failure injection at the application level: a lossy wire plus an
	// app-level retry loop still converges.
	e := newEnv(t)
	hub := e.hub()
	a := e.stack("a")
	b := e.stack("b")
	a.AttachLink(hub, testnet.MacA, 1500)
	b.AttachLink(hub, testnet.MacB, 1500)
	e.start()
	// Resolve neighbors over a clean wire first, then impair it.
	srv, _ := b.NewSocket(inet.AFInet6, core.SockDgram)
	srv.Bind(core.Sockaddr6{Family: inet.AFInet6, Port: 600})
	vclock.Go(e.clock, func() {
		for {
			data, from, err := srv.RecvFrom(64, time.Hour)
			if err != nil {
				return
			}
			srv.SendTo(data, from)
		}
	})
	cli, _ := a.NewSocket(inet.AFInet6, core.SockDgram)
	cli.SendTo([]byte("warm"), core.Addr6(linkLocal(b), 600))
	cli.RecvFrom(64, 2*time.Second)

	hub.SetImpairments(0, 0.4, 99)
	got := 0
	for try := 0; try < 100 && got < 5; try++ {
		cli.SendTo([]byte("retry me"), core.Addr6(linkLocal(b), 600))
		if data, _, err := cli.RecvFrom(64, 50*time.Millisecond); err == nil && string(data) == "retry me" {
			got++
		}
	}
	if got < 5 {
		t.Fatalf("only %d echoes through 40%% loss", got)
	}
}

func TestAlgorithmSubstitutionEndToEnd(t *testing.T) {
	// §3.6's worked example, live: the same ESP header processing with
	// IDEA substituted for DES-CBC, then 3DES — only the association's
	// algorithm selector changes.
	cases := []struct {
		alg    string
		keyLen int
	}{
		{"des-cbc", 8},
		{"3des-cbc", 24},
		{"idea-cbc", 16},
		// The AEAD switch entries: key = cipher key || 4-byte salt.
		{"aes-gcm", 20},
		{"aes256-gcm", 36},
	}
	for _, c := range cases {
		t.Run(c.alg, func(t *testing.T) {
			a, b, _ := stackPair(t)
			k := make([]byte, c.keyLen)
			for i := range k {
				k[i] = byte(i + 7)
			}
			aLL, bLL := linkLocal(a), linkLocal(b)
			for _, s := range []*core.Stack{a, b} {
				s.Keys.Add(&key.SA{SPI: 0x61, Src: aLL, Dst: bLL, Proto: key.ProtoESPTransport, EncAlg: c.alg, EncKey: k})
			}
			srv, _ := b.NewSocket(inet.AFInet6, core.SockDgram)
			srv.Bind(core.Sockaddr6{Family: inet.AFInet6, Port: 321})
			cli, _ := a.NewSocket(inet.AFInet6, core.SockDgram)
			cli.SetSecurity(core.SoSecurityEncryptTrans, ipsec.LevelRequire)
			if err := cli.SendTo([]byte("ciphered with "+c.alg), core.Addr6(bLL, 321)); err != nil {
				t.Fatal(err)
			}
			data, _, err := srv.RecvFrom(64, 2*time.Second)
			if err != nil || string(data) != "ciphered with "+c.alg {
				t.Fatalf("%q %v", data, err)
			}
			if b.Sec.Stats.InDecryptOK.Get() == 0 {
				t.Fatal("not decrypted")
			}
		})
	}
}

func TestRouteSocketObservesNDAndPMTU(t *testing.T) {
	// PF_ROUTE: the message stream PF_KEY is modeled on (§6.2). ND
	// resolution shows up as RTM_RESOLVE (the cloned neighbor host
	// route) and a PMTU update as RTM_CHANGE.
	a, b, _ := stackPair(t)
	ch := a.RouteSocket(64)
	if err := a.Ping6(linkLocal(b), 1, 1, nil); err != nil {
		t.Fatal(err)
	}
	testnet.WaitFor(t, "echo", func() bool { return a.ICMP6.Stats.InEchoReps.Get() >= 1 })

	sawResolve := false
	for drained := false; !drained; {
		select {
		case m := <-ch:
			if m.Type.String() == "RTM_RESOLVE" {
				sawResolve = true
			}
		default:
			drained = true
		}
	}
	if !sawResolve {
		t.Fatal("no RTM_RESOLVE for the neighbor clone")
	}

	// Shrink the PMTU by hand (as Packet Too Big processing would):
	// RTM_CHANGE appears on the socket.
	bLL := linkLocal(b)
	rt, ok := a.RT.Lookup(inet.AFInet6, bLL[:])
	if !ok {
		t.Fatal("no route")
	}
	a.RT.Change(rt, func(e *route.Entry) { e.MTU = 1280 })
	testnet.WaitFor(t, "RTM_CHANGE", func() bool {
		select {
		case m := <-ch:
			return m.Type.String() == "RTM_CHANGE"
		default:
			return false
		}
	})
}

func TestConnectionsListing(t *testing.T) {
	a, b, _ := stackPair(t)
	l, _ := b.NewSocket(inet.AFInet6, core.SockStream)
	l.Bind(core.Sockaddr6{Family: inet.AFInet6, Port: 8088})
	l.Listen(1)
	c, _ := a.NewSocket(inet.AFInet6, core.SockStream)
	if err := c.Connect(core.Addr6(linkLocal(b), 8088), 3*time.Second); err != nil {
		t.Fatal(err)
	}
	u, _ := b.NewSocket(inet.AFInet6, core.SockDgram)
	u.Bind(core.Sockaddr6{Family: inet.AFInet6, Port: 5353})

	// The server child reaches ESTABLISHED on the handshake's final
	// ACK, which races our snapshot; poll briefly.
	testnet.WaitFor(t, "established in listing", func() bool {
		return strings.Contains(b.Connections(), "ESTABLISHED")
	})
	out := b.Connections()
	for _, want := range []string{"LISTEN", "ESTABLISHED", "udp6", ":8088", ":5353"} {
		if !strings.Contains(out, want) {
			t.Fatalf("connections missing %q:\n%s", want, out)
		}
	}
}
