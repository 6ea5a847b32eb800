package ipv6

import (
	"testing"
	"time"

	"bsd6/internal/inet"
	"bsd6/internal/mbuf"
	"bsd6/internal/netif"
	"bsd6/internal/proto"
	"bsd6/internal/route"
)

// bareLayer builds a layer with one interface carrying the given
// addresses, without any ICMPv6/ND attachment.
func bareLayer(t *testing.T, addrs ...netif.Addr6) (*Layer, *netif.Interface) {
	t.Helper()
	rt := route.NewTable()
	l := NewLayer(rt)
	hub := netif.NewHub()
	ifp := netif.New("t0", inet.LinkAddr{2, 0, 0, 0, 0, 1}, 1500)
	hub.Attach(ifp)
	for _, a := range addrs {
		if err := ifp.AddAddr6(a); err != nil {
			t.Fatal(err)
		}
	}
	l.AddInterface(ifp)
	return l, ifp
}

func TestSourceForScopeMatching(t *testing.T) {
	ll := inet.LinkLocal([8]byte{1})
	global := ip6(t, "2001:db8::7")
	l, _ := bareLayer(t,
		netif.Addr6{Addr: ll, Plen: 64},
		netif.Addr6{Addr: global, Plen: 64},
	)
	// Link-local destination gets the link-local source.
	if src, ok := l.SourceFor(ip6(t, "fe80::99"), nil); !ok || src != ll {
		t.Fatalf("link-local dst: %v %v", src, ok)
	}
	// Link-local multicast too.
	if src, ok := l.SourceFor(inet.AllNodes, nil); !ok || src != ll {
		t.Fatalf("all-nodes dst: %v %v", src, ok)
	}
	// Global destination gets the global source.
	if src, ok := l.SourceFor(ip6(t, "2001:db8:9::1"), nil); !ok || src != global {
		t.Fatalf("global dst: %v %v", src, ok)
	}
}

func TestSourceForPrefersLongestMatch(t *testing.T) {
	ll := inet.LinkLocal([8]byte{1})
	near := ip6(t, "2001:db8:aaaa::1")
	far := ip6(t, "2001:db8:bbbb::1")
	l, _ := bareLayer(t,
		netif.Addr6{Addr: ll, Plen: 64},
		netif.Addr6{Addr: far, Plen: 64},
		netif.Addr6{Addr: near, Plen: 64},
	)
	if src, _ := l.SourceFor(ip6(t, "2001:db8:aaaa::99"), nil); src != near {
		t.Fatalf("longest match: got %v", src)
	}
	if src, _ := l.SourceFor(ip6(t, "2001:db8:bbbb::99"), nil); src != far {
		t.Fatalf("longest match: got %v", src)
	}
}

func TestSourceForAvoidsDeprecatedAndTentative(t *testing.T) {
	now := time.Now()
	ll := inet.LinkLocal([8]byte{1})
	deprecated := ip6(t, "2001:db8:aaaa::1")
	fresh := ip6(t, "2001:db8:aaaa::2")
	tentative := ip6(t, "2001:db8:aaaa::3")
	l, _ := bareLayer(t,
		netif.Addr6{Addr: ll, Plen: 64},
		netif.Addr6{Addr: deprecated, Plen: 64, Created: now.Add(-time.Hour), PreferredLft: time.Minute},
		netif.Addr6{Addr: fresh, Plen: 64},
		netif.Addr6{Addr: tentative, Plen: 64, Tentative: true},
	)
	// At equal prefix match the preferred (non-deprecated) address wins;
	// tentative addresses are not usable at all.
	if src, _ := l.SourceFor(ip6(t, "2001:db8:aaaa::99"), nil); src != fresh {
		t.Fatalf("got %v, want the fresh address", src)
	}
}

func TestSourceForNoUsable(t *testing.T) {
	l, _ := bareLayer(t, netif.Addr6{Addr: inet.LinkLocal([8]byte{1}), Plen: 64, Tentative: true})
	if _, ok := l.SourceFor(ip6(t, "fe80::9"), nil); ok {
		t.Fatal("tentative-only interface yielded a source")
	}
}

func TestEnsureHostRouteClonesGatewayRoutes(t *testing.T) {
	l, ifp := bareLayer(t, netif.Addr6{Addr: inet.LinkLocal([8]byte{1}), Plen: 64})
	var zero inet.IP6
	gw := ip6(t, "fe80::1")
	l.Routes().Add(&route.Entry{
		Family: inet.AFInet6, Dst: zero[:], Plen: 0,
		Flags: route.FlagUp | route.FlagGateway, Gateway: gw, IfName: ifp.Name, MTU: 1400,
	})
	dst := ip6(t, "2001:db8::42")
	rt, ok := l.ensureHostRoute(dst)
	if !ok || !rt.Host() {
		t.Fatalf("no host route: %+v", rt)
	}
	if rt.Flags&route.FlagGateway == 0 || rt.MTU != 1400 {
		t.Fatalf("clone lost gateway/MTU: %+v", rt)
	}
	// Idempotent: a second call returns the same entry.
	rt2, _ := l.ensureHostRoute(dst)
	if rt2 != rt {
		t.Fatal("second ensureHostRoute cloned again")
	}
	// This is where PMTU lives (§2.2): shrinking it affects only this
	// destination.
	l.Routes().Change(rt, func(e *route.Entry) { e.MTU = 600 })
	other, _ := l.ensureHostRoute(ip6(t, "2001:db8::43"))
	if other.MTU != 1400 {
		t.Fatal("PMTU leaked across destinations")
	}
}

func TestBuildExtChainPatching(t *testing.T) {
	opts := &OutputOpts{
		HopOpts:      []Option{{Type: 0x05, Data: []byte{1}}},
		RoutingAddrs: []inet.IP6{ip6(t, "2001:db8::1")},
		DstOptsList:  []Option{{Type: 0x05, Data: []byte{2}}},
	}
	chain, fragPart, fragNH := buildExt(opts, proto.UDP)
	if chain.firstNH != proto.HopByHop {
		t.Fatalf("firstNH = %d", chain.firstNH)
	}
	if fragNH != proto.DstOpts {
		t.Fatalf("fragNH = %d", fragNH)
	}
	if len(fragPart) == 0 || fragPart[0] != proto.UDP {
		t.Fatalf("dst-opts next = %v", fragPart)
	}
	// unfrag = hbh + routing; the hbh points at routing, the routing's
	// next-header byte (at unfragPatch) points at the frag part.
	if chain.unfrag[0] != proto.Routing {
		t.Fatalf("hbh next = %d", chain.unfrag[0])
	}
	if chain.unfrag[chain.unfragPatch] != proto.DstOpts {
		t.Fatalf("patch byte = %d", chain.unfrag[chain.unfragPatch])
	}
	// Patching for fragmentation rewrites exactly that byte.
	chain.unfrag[chain.unfragPatch] = proto.Fragment
	rh, err := ParseRouting(chain.unfrag[chain.unfragPatch:])
	if err != nil || rh.NextHdr != proto.Fragment {
		t.Fatalf("routing after patch: %+v %v", rh, err)
	}
}

func TestBuildExtNoHeaders(t *testing.T) {
	chain, fragPart, fragNH := buildExt(&OutputOpts{}, proto.TCP)
	if chain.firstNH != proto.TCP || len(chain.unfrag) != 0 || len(fragPart) != 0 || fragNH != proto.TCP {
		t.Fatalf("empty chain: %+v %v %d", chain, fragPart, fragNH)
	}
}

func TestUnspecSourceRespected(t *testing.T) {
	l, ifp := bareLayer(t, netif.Addr6{Addr: inet.LinkLocal([8]byte{1}), Plen: 64})
	var captured []byte
	peer := netif.New("peer", inet.LinkAddr{2, 0, 0, 0, 0, 2}, 1500)
	peer.SetFlags(netif.FlagPromisc|netif.FlagUp, true)
	peer.SetInput(func(_ *netif.Interface, fr netif.Frame) {
		captured = fr.Payload.CopyBytes()
	})
	// Reuse the layer's hub via a second attach.
	hubOf(t, ifp).Attach(peer)

	pkt := mbuf.New([]byte{1, 2, 3, 4})
	err := l.Output(pkt, inet.IP6{}, inet.SolicitedNode(ip6(t, "fe80::9")), proto.ICMPv6,
		OutputOpts{IfName: ifp.Name, UnspecSource: true, HopLimit: 255})
	if err != nil {
		t.Fatal(err)
	}
	if captured == nil {
		t.Fatal("nothing on the wire")
	}
	h, _ := Parse(captured)
	if !h.Src.IsUnspecified() {
		t.Fatalf("source = %v, want ::", h.Src)
	}
	if h.HopLimit != 255 {
		t.Fatalf("hops = %d", h.HopLimit)
	}
}

// hubOf sneaks the hub back out of an attached interface by attaching
// through a fresh hub would break delivery; instead tests share the hub
// explicitly. Here we re-derive it via a tiny shim.
func hubOf(t *testing.T, ifp *netif.Interface) *netif.Hub {
	t.Helper()
	// netif does not expose the hub; emulate by creating a hub and
	// re-attaching the interface to it.
	h := netif.NewHub()
	h.Attach(ifp)
	return h
}

func TestForwardProcessesHopByHop(t *testing.T) {
	// A router must process hop-by-hop options on transit packets
	// (§2.1) — a discard-action option stops forwarding.
	rt := route.NewTable()
	l := NewLayer(rt)
	l.Forwarding = true
	hub := netif.NewHub()
	in := netif.New("in0", inet.LinkAddr{2, 0, 0, 0, 0, 1}, 1500)
	out := netif.New("out0", inet.LinkAddr{2, 0, 0, 0, 0, 2}, 1500)
	hub.Attach(in)
	hub.Attach(out)
	in.AddAddr6(netif.Addr6{Addr: inet.LinkLocal([8]byte{1}), Plen: 64})
	out.AddAddr6(netif.Addr6{Addr: inet.LinkLocal([8]byte{2}), Plen: 64})
	l.AddInterface(in)
	l.AddInterface(out)
	dstNet := ip6(t, "2001:db8:2::")
	rt.Add(&route.Entry{Family: inet.AFInet6, Dst: dstNet[:], Plen: 64,
		Flags: route.FlagUp | route.FlagCloning | route.FlagLLInfo, IfName: out.Name})

	mk := func(optType byte) *mbuf.Mbuf {
		hbh := MarshalOptions(proto.UDP, []Option{{Type: optType, Data: []byte{9}}})
		h := &Header{NextHdr: proto.HopByHop, HopLimit: 8, PayloadLen: len(hbh) + 2,
			Src: ip6(t, "2001:db8:1::5"), Dst: ip6(t, "2001:db8:2::9")}
		pkt := mbuf.New(h.Marshal(nil))
		pkt.Append(hbh)
		pkt.Append([]byte{0xaa, 0xbb})
		return pkt
	}
	// Skip-action option: forwarded.
	l.Input(in, mk(0x05))
	if l.Stats.Forwarded.Get() != 1 {
		t.Fatalf("skip-option packet not forwarded: %+v", &l.Stats)
	}
	// Discard-action option: dropped by the router.
	l.Input(in, mk(0x45))
	if l.Stats.Forwarded.Get() != 1 {
		t.Fatal("discard-option packet forwarded")
	}
	if l.Stats.InOptErrors.Get() == 0 {
		t.Fatal("option error not counted")
	}
}

func TestInputTrimsLinkPadding(t *testing.T) {
	l, ifp := bareLayer(t, netif.Addr6{Addr: inet.LinkLocal([8]byte{1}), Plen: 64})
	var got int
	l.Register(proto.UDP, func(pkt *mbuf.Mbuf, meta proto.Meta) { got = pkt.Len() }, nil)
	ll := inet.LinkLocal([8]byte{1})
	h := &Header{NextHdr: proto.UDP, HopLimit: 4, PayloadLen: 10, Src: ip6(t, "fe80::2"), Dst: ll}
	pkt := mbuf.New(h.Marshal(nil))
	pkt.Append(make([]byte, 10))
	pkt.Append(make([]byte, 26)) // ethernet-style trailing pad
	l.Input(ifp, pkt)
	if got != 10 {
		t.Fatalf("delivered %d bytes, want 10", got)
	}
}

func TestOversizeDatagramRejected(t *testing.T) {
	l, ifp := bareLayer(t, netif.Addr6{Addr: inet.LinkLocal([8]byte{1}), Plen: 64})
	_ = ifp
	pkt := mbuf.New(make([]byte, 70000))
	err := l.Output(pkt, inet.IP6{}, inet.LinkLocal([8]byte{1}), proto.UDP, OutputOpts{})
	if err != ErrMsgSize {
		t.Fatalf("err = %v, want ErrMsgSize", err)
	}
}

func TestGroupRefcounting(t *testing.T) {
	l, ifp := bareLayer(t, netif.Addr6{Addr: inet.LinkLocal([8]byte{1}), Plen: 64})
	g := ip6(t, "ff02::42")
	changes := 0
	l.OnGroupChange = func(string, inet.IP6, bool) { changes++ }
	l.JoinGroup(ifp.Name, g)
	l.JoinGroup(ifp.Name, g) // refcounted: no second report
	if changes != 1 {
		t.Fatalf("join changes = %d", changes)
	}
	if !l.InGroup(ifp.Name, g) {
		t.Fatal("not in group")
	}
	l.LeaveGroup(ifp.Name, g)
	if !l.InGroup(ifp.Name, g) {
		t.Fatal("left group too early")
	}
	l.LeaveGroup(ifp.Name, g)
	if l.InGroup(ifp.Name, g) {
		t.Fatal("still in group")
	}
	if changes != 2 {
		t.Fatalf("total changes = %d", changes)
	}
	if err := l.JoinGroup("nosuch", g); err == nil {
		t.Fatal("join on missing interface succeeded")
	}
}
