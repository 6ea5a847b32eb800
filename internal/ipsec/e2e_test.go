package ipsec

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"bsd6/internal/icmp6"
	"bsd6/internal/inet"
	"bsd6/internal/ipv6"
	"bsd6/internal/key"
	"bsd6/internal/mbuf"
	"bsd6/internal/netif"
	"bsd6/internal/proto"
	"bsd6/internal/route"
)

// secNode is a stack with IPv6 + ICMPv6 + IPsec + Key Engine.
type secNode struct {
	name string
	rt   *route.Table
	l    *ipv6.Layer
	icmp *icmp6.Module
	sec  *Module
	ke   *key.Engine
	ifps []*netif.Interface
}

func newSecNode(name string) *secNode {
	rt := route.NewTable()
	l := ipv6.NewLayer(rt)
	icmp := icmp6.Attach(l)
	ke := key.NewEngine()
	sec := Attach(l, ke)
	n := &secNode{name: name, rt: rt, l: l, icmp: icmp, sec: sec, ke: ke}
	lo := netif.NewLoopback(name+"-lo", 32768)
	lo.SetInput(func(ifp *netif.Interface, fr netif.Frame) { l.Input(ifp, fr.Payload) })
	l.AddInterface(lo)
	return n
}

func (n *secNode) join(hub *netif.Hub, mac inet.LinkAddr, mtu int) *netif.Interface {
	ifp := netif.New(fmt.Sprintf("%s-eth%d", n.name, len(n.ifps)), mac, mtu)
	ifp.SetInput(func(ifp *netif.Interface, fr netif.Frame) {
		if fr.EtherType == netif.EtherTypeIPv6 {
			n.l.Input(ifp, fr.Payload)
		}
	})
	hub.Attach(ifp)
	ll := inet.LinkLocal(mac.Token())
	ifp.AddAddr6(netif.Addr6{Addr: ll, Plen: 64})
	n.l.AddInterface(ifp)
	n.l.JoinGroup(ifp.Name, inet.SolicitedNode(ll))
	llPrefix := inet.IP6{0: 0xfe, 1: 0x80}
	n.rt.Add(&route.Entry{
		Family: inet.AFInet6, Dst: llPrefix[:], Plen: 64,
		Flags: route.FlagUp | route.FlagCloning | route.FlagLLInfo, IfName: ifp.Name,
	})
	n.ifps = append(n.ifps, ifp)
	return ifp
}

func (n *secNode) ll() inet.IP6 {
	a, _ := n.ifps[0].LinkLocal6(time.Now())
	return a
}

var (
	macA = inet.LinkAddr{2, 0, 0, 0, 0, 0xa}
	macB = inet.LinkAddr{2, 0, 0, 0, 0, 0xb}
)

func securePair(t *testing.T) (*secNode, *secNode) {
	t.Helper()
	hub := netif.NewHub()
	a, b := newSecNode("a"), newSecNode("b")
	a.join(hub, macA, 1500)
	b.join(hub, macB, 1500)
	return a, b
}

// addPairSA installs symmetric associations (one per direction, §3.1:
// "a typical telnet session would need two Security Associations").
func addPairSA(t *testing.T, a, b *secNode, p key.SecProto, spiBase uint32) {
	t.Helper()
	authKey := []byte("0123456789abcdef")
	encKey := []byte("DESCBCK1")
	mk := func(src, dst inet.IP6, spi uint32) *key.SA {
		sa := &key.SA{SPI: spi, Src: src, Dst: dst, Proto: p}
		if p == key.ProtoAH {
			sa.AuthAlg, sa.AuthKey = "keyed-md5", authKey
		} else {
			sa.EncAlg, sa.EncKey = "des-cbc", encKey
		}
		return sa
	}
	if err := a.ke.Add(mk(a.ll(), b.ll(), spiBase)); err != nil {
		t.Fatal(err)
	}
	if err := b.ke.Add(mk(a.ll(), b.ll(), spiBase)); err != nil {
		t.Fatal(err)
	}
	if err := b.ke.Add(mk(b.ll(), a.ll(), spiBase+1)); err != nil {
		t.Fatal(err)
	}
	if err := a.ke.Add(mk(b.ll(), a.ll(), spiBase+1)); err != nil {
		t.Fatal(err)
	}
}

type echoSink struct {
	mu sync.Mutex
	n  int
}

func (s *echoSink) hook(m *icmp6.Module) {
	m.OnEcho = func(inet.IP6, uint16, uint16, []byte) {
		s.mu.Lock()
		s.n++
		s.mu.Unlock()
	}
}

func (s *echoSink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// waitFor asserts cond already holds: hub links deliver synchronously
// on the sender's goroutine, so by the time a send returns, every
// consequence (including the reply) has been processed.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	if !cond() {
		t.Fatalf("%s did not happen", what)
	}
}

func TestAuthenticatedPing(t *testing.T) {
	// §4: "all of these functions can now be authenticated ... using
	// the IP security mechanisms, as long as appropriate security
	// associations exist."
	a, b := securePair(t)
	addPairSA(t, a, b, key.ProtoAH, 0x100)
	a.sec.SetSystemPolicy(SockOpts{Auth: LevelRequire})
	b.sec.SetSystemPolicy(SockOpts{Auth: LevelRequire})
	sink := &echoSink{}
	sink.hook(a.icmp)

	if err := a.icmp.SendEcho(b.ll(), 1, 1, []byte("auth ping")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "authenticated reply", func() bool { return sink.count() >= 1 })
	if a.sec.Stats.OutAH.Get() == 0 || b.sec.Stats.InAuthOK.Get() == 0 {
		t.Fatalf("AH not exercised: %+v / %+v", &a.sec.Stats, &b.sec.Stats)
	}
}

func TestEncryptedPing(t *testing.T) {
	a, b := securePair(t)
	addPairSA(t, a, b, key.ProtoESPTransport, 0x200)
	a.sec.SetSystemPolicy(SockOpts{ESPTransport: LevelRequire})
	b.sec.SetSystemPolicy(SockOpts{ESPTransport: LevelRequire})
	sink := &echoSink{}
	sink.hook(a.icmp)

	secret := []byte("the secret payload bytes")
	var sawPlaintext bool
	hub := netif.NewHub()
	_ = hub // capture on the shared hub instead
	if err := a.icmp.SendEcho(b.ll(), 1, 1, secret); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "encrypted reply", func() bool { return sink.count() >= 1 })
	if a.sec.Stats.OutESP.Get() == 0 || b.sec.Stats.InDecryptOK.Get() == 0 {
		t.Fatalf("ESP not exercised: %+v / %+v", &a.sec.Stats, &b.sec.Stats)
	}
	_ = sawPlaintext
}

func TestEncryptedTrafficIsOpaqueOnWire(t *testing.T) {
	hub := netif.NewHub()
	a, b := newSecNode("a"), newSecNode("b")
	a.join(hub, macA, 1500)
	b.join(hub, macB, 1500)
	addPairSA(t, a, b, key.ProtoESPTransport, 0x300)
	a.sec.SetSystemPolicy(SockOpts{ESPTransport: LevelRequire})
	b.sec.SetSystemPolicy(SockOpts{ESPTransport: LevelRequire})
	secret := []byte("TOPSECRET-PAYLOAD-0123456789")

	var mu sync.Mutex
	leaked := false
	hub.Capture = func(fr netif.Frame) {
		mu.Lock()
		defer mu.Unlock()
		b := fr.Payload.CopyBytes()
		for i := 0; i+8 <= len(b); i++ {
			if string(b[i:i+8]) == string(secret[:8]) {
				leaked = true
			}
		}
	}
	sink := &echoSink{}
	sink.hook(a.icmp)
	if err := a.icmp.SendEcho(b.ll(), 1, 1, secret); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "reply", func() bool { return sink.count() >= 1 })
	mu.Lock()
	defer mu.Unlock()
	if leaked {
		t.Fatal("plaintext visible on the wire")
	}
}

func TestBothAHAndESP(t *testing.T) {
	// Table 5's "Both" row: AH outside ESP.
	a, b := securePair(t)
	addPairSA(t, a, b, key.ProtoAH, 0x400)
	addPairSA(t, a, b, key.ProtoESPTransport, 0x500)
	pol := SockOpts{Auth: LevelRequire, ESPTransport: LevelRequire}
	a.sec.SetSystemPolicy(pol)
	b.sec.SetSystemPolicy(pol)
	sink := &echoSink{}
	sink.hook(a.icmp)
	if err := a.icmp.SendEcho(b.ll(), 1, 1, []byte("both")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "AH+ESP reply", func() bool { return sink.count() >= 1 })
	if b.sec.Stats.InAuthOK.Get() == 0 || b.sec.Stats.InDecryptOK.Get() == 0 {
		t.Fatalf("both services not exercised: %+v", &b.sec.Stats)
	}
}

func TestESPTunnelMode(t *testing.T) {
	a, b := securePair(t)
	addPairSA(t, a, b, key.ProtoESPTunnel, 0x600)
	a.sec.SetSystemPolicy(SockOpts{ESPTunnel: LevelRequire})
	b.sec.SetSystemPolicy(SockOpts{ESPTunnel: LevelRequire})
	sink := &echoSink{}
	sink.hook(a.icmp)
	if err := a.icmp.SendEcho(b.ll(), 1, 1, []byte("tunnel")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "tunneled reply", func() bool { return sink.count() >= 1 })
	if a.sec.Stats.OutTunnel.Get() == 0 {
		t.Fatal("tunnel not used")
	}
}

func TestTunnelForgedInnerSourceLosesFlags(t *testing.T) {
	// §3.4: "checks ... intended to prevent an adversary system from
	// encapsulating a forged packet inside an ... encrypted legitimate
	// packet."  We hand-build a tunnel packet whose inner source
	// differs from the outer source; the flags must be cleared and the
	// strict input policy must then drop it.
	a, b := securePair(t)
	addPairSA(t, a, b, key.ProtoESPTunnel, 0x700)
	b.sec.SetSystemPolicy(SockOpts{ESPTunnel: LevelRequire})

	sa, err := a.ke.GetBySocket(a.ll(), b.ll(), key.ProtoESPTunnel, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	// Forged inner datagram: source claims to be b itself.
	forgedSrc := b.ll()
	inner := &ipv6.Header{HopLimit: 64, Src: forgedSrc, Dst: b.ll()}
	echo := []byte{128, 0, 0, 0, 0, 1, 0, 1} // un-checksummed; never dispatched anyway
	espPayload, err := buildESPTunnel(sa, inner, echo, proto.ICMPv6)
	if err != nil {
		t.Fatal(err)
	}
	outer := &ipv6.Header{NextHdr: proto.ESP, HopLimit: 64, Src: a.ll(), Dst: b.ll(), PayloadLen: len(espPayload)}
	pkt := mbuf.New(outer.Marshal(nil))
	pkt.Append(espPayload)

	before := b.sec.Stats.TunnelSrcFail.Get()
	b.l.Input(b.ifps[0], pkt)
	if b.sec.Stats.TunnelSrcFail.Get() != before+1 {
		t.Fatal("forged tunnel source not detected")
	}
}

func TestLevel2WithoutSAFailsEIPSEC(t *testing.T) {
	// §3.3: no association and no key management daemon -> EIPSEC.
	a, b := securePair(t)
	a.sec.SetSystemPolicy(SockOpts{Auth: LevelRequire})
	err := a.icmp.SendEcho(b.ll(), 1, 1, []byte("x"))
	if !errors.Is(err, EIPSEC) {
		t.Fatalf("err = %v, want EIPSEC", err)
	}
	if a.sec.Stats.OutPolicyDrops.Get() == 0 {
		t.Fatal("OutPolicyDrops not counted")
	}
}

func TestLevel1UsesSecurityIfAvailable(t *testing.T) {
	a, b := securePair(t)
	// No SA: level 1 sends in the clear.
	a.sec.SetSystemPolicy(SockOpts{Auth: LevelUse})
	sink := &echoSink{}
	sink.hook(a.icmp)
	if err := a.icmp.SendEcho(b.ll(), 1, 1, nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "cleartext reply at level 1", func() bool { return sink.count() >= 1 })
	if a.sec.Stats.OutAH.Get() != 0 {
		t.Fatal("AH applied without an SA")
	}
	// With an SA: level 1 authenticates ("always use authentication if
	// we have a security association that will facilitate it", §3.5).
	addPairSA(t, a, b, key.ProtoAH, 0x800)
	a.icmp.SendEcho(b.ll(), 1, 2, nil)
	waitFor(t, "authenticated at level 1", func() bool { return a.sec.Stats.OutAH.Get() >= 1 })
}

func TestInputPolicyDropsCleartext(t *testing.T) {
	// §5.3: "If the system security policy is to require authentication
	// on all received packets, then ... unauthenticated ping will
	// silently fail as if the destination system were not reachable."
	a, b := securePair(t)
	// Only B requires security; A sends cleartext.
	b.sec.SetSystemPolicy(SockOpts{Auth: LevelRequire})
	var mu sync.Mutex
	delivered := 0
	b.l.Register(proto.UDP, func(pkt *mbuf.Mbuf, meta proto.Meta) {
		if b.sec.InputPolicy(pkt, meta.Dst6, nil) {
			mu.Lock()
			delivered++
			mu.Unlock()
		}
	}, nil)
	pkt := mbuf.New([]byte("cleartext datagram"))
	if err := a.l.Output(pkt, inet.IP6{}, b.ll(), proto.UDP, ipv6.OutputOpts{}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "policy drop counted", func() bool { return b.sec.Stats.InPolicyDrops.Get() >= 1 })
	mu.Lock()
	defer mu.Unlock()
	if delivered != 0 {
		t.Fatal("cleartext delivered under require policy")
	}
}

func TestAcquireTriggersDaemon(t *testing.T) {
	a, b := securePair(t)
	a.sec.SetSystemPolicy(SockOpts{Auth: LevelRequire})
	daemon := a.ke.Open()
	defer daemon.Close()
	daemon.Register()
	err := a.icmp.SendEcho(b.ll(), 1, 1, nil)
	if !errors.Is(err, EIPSEC) {
		t.Fatalf("err = %v (send should fail while delayed)", err)
	}
	select {
	case m := <-daemon.C:
		if m.Type != key.MsgAcquire || m.SA.Dst != b.ll() {
			t.Fatalf("acquire: %+v", m)
		}
	default:
		t.Fatal("daemon got no ACQUIRE")
	}
}

func TestCorruptedAHDropped(t *testing.T) {
	a, b := securePair(t)
	addPairSA(t, a, b, key.ProtoAH, 0x900)
	a.sec.SetSystemPolicy(SockOpts{Auth: LevelRequire})
	b.sec.SetSystemPolicy(SockOpts{Auth: LevelRequire})
	hub := netif.NewHub() // unused; corruption is injected directly
	_ = hub

	// Build an authenticated packet by hand, then flip a payload bit.
	sa, _ := a.ke.GetBySocket(a.ll(), b.ll(), key.ProtoAH, nil, false)
	hdr := &ipv6.Header{HopLimit: 64, Src: a.ll(), Dst: b.ll()}
	wrapped, _ := buildAH(sa, hdr, []byte("payload-to-corrupt"), proto.UDP)
	hdr.NextHdr = proto.AH
	hdr.PayloadLen = len(wrapped)
	img := append(hdr.Marshal(nil), wrapped...)
	img[len(img)-1] ^= 0x80
	pkt := mbuf.New(img)
	before := b.sec.Stats.InAuthFail.Get()
	b.l.Input(b.ifps[0], pkt)
	if b.sec.Stats.InAuthFail.Get() != before+1 {
		t.Fatal("corrupted AH not rejected")
	}
}

func TestUnknownSPIDropped(t *testing.T) {
	a, b := securePair(t)
	addPairSA(t, a, b, key.ProtoAH, 0xa00)
	sa, _ := a.ke.GetBySocket(a.ll(), b.ll(), key.ProtoAH, nil, false)
	// B deletes its inbound SA: the SPI becomes unknown.
	b.ke.Delete(sa.SPI, b.ll(), key.ProtoAH)
	hdr := &ipv6.Header{HopLimit: 64, Src: a.ll(), Dst: b.ll()}
	wrapped, _ := buildAH(sa, hdr, []byte("data"), proto.UDP)
	hdr.NextHdr = proto.AH
	hdr.PayloadLen = len(wrapped)
	pkt := mbuf.New(append(hdr.Marshal(nil), wrapped...))
	b.l.Input(b.ifps[0], pkt)
	if b.sec.Stats.InNoSA.Get() == 0 {
		t.Fatal("unknown SPI not counted")
	}
}

func TestUniqueSocketKeying(t *testing.T) {
	// Level 3 (§6.1): outbound packets use an association unique to
	// the socket.
	a, b := securePair(t)
	sockID := "app-socket-1"
	authKey := []byte("0123456789abcdef")
	// Shared SA exists but a unique one is bound to our socket.
	a.ke.Add(&key.SA{SPI: 0xb00, Src: a.ll(), Dst: b.ll(), Proto: key.ProtoAH, AuthAlg: "keyed-md5", AuthKey: authKey})
	uniq := &key.SA{SPI: 0xb01, Src: a.ll(), Dst: b.ll(), Proto: key.ProtoAH,
		AuthAlg: "keyed-md5", AuthKey: authKey, Unique: true, Socket: sockID}
	a.ke.Add(uniq)
	b.ke.Add(&key.SA{SPI: 0xb01, Src: a.ll(), Dst: b.ll(), Proto: key.ProtoAH, AuthAlg: "keyed-md5", AuthKey: authKey, Unique: true, Socket: sockID})

	a.sec.SocketOpts = func(s any) SockOpts {
		if s == sockID {
			return SockOpts{Auth: LevelUnique}
		}
		return SockOpts{}
	}
	pkt := mbuf.New([]byte("level3"))
	if err := a.l.Output(pkt, inet.IP6{}, b.ll(), proto.UDP, ipv6.OutputOpts{Socket: sockID}); err != nil {
		t.Fatal(err)
	}
	if uniq.UseCount == 0 {
		t.Fatal("unique SA not selected at level 3")
	}
}
