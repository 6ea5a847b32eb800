package icmp6

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"bsd6/internal/inet"
	"bsd6/internal/ip"
	"bsd6/internal/ipv6"
	"bsd6/internal/mbuf"
	"bsd6/internal/netif"
	"bsd6/internal/proto"
	"bsd6/internal/route"
	"bsd6/internal/vclock"
)

func ip6(t testing.TB, s string) inet.IP6 {
	t.Helper()
	a, err := inet.ParseIP6(s)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// node is a full IPv6+ICMPv6 stack instance for tests.
type node struct {
	name string
	rt   *route.Table
	l    *ipv6.Layer
	m    *Module
	ifps []*netif.Interface
}

func newNode(name string) *node {
	rt := route.NewTable()
	l := ipv6.NewLayer(rt)
	m := Attach(l)
	n := &node{name: name, rt: rt, l: l, m: m}
	lo := netif.NewLoopback(name+"-lo", 32768)
	lo.SetInput(func(ifp *netif.Interface, fr netif.Frame) { l.Input(ifp, fr.Payload) })
	l.AddInterface(lo)
	return n
}

// join attaches the node to a hub, configures the link-local address
// (pre-verified: Tentative false), joins its solicited-node group, and
// installs the fe80::/64 on-link route.
func (n *node) join(hub *netif.Hub, mac inet.LinkAddr, mtu int) *netif.Interface {
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

// addGlobal configures a global address and its on-link prefix.
func (n *node) addGlobal(ifp *netif.Interface, addr inet.IP6, plen int) {
	ifp.AddAddr6(netif.Addr6{Addr: addr, Plen: plen})
	n.l.JoinGroup(ifp.Name, inet.SolicitedNode(addr))
	prefix := addr
	m := inet.Mask6(plen)
	for i := range prefix {
		prefix[i] &= m[i]
	}
	n.rt.Add(&route.Entry{
		Family: inet.AFInet6, Dst: prefix[:], Plen: plen,
		Flags: route.FlagUp | route.FlagCloning | route.FlagLLInfo, IfName: ifp.Name,
	})
}

func (n *node) linkLocal(i int) inet.IP6 {
	ll, _ := n.ifps[i].LinkLocal6(time.Now())
	return ll
}

// pinger collects echo replies.
type pinger struct {
	mu      sync.Mutex
	replies []uint16
}

func (p *pinger) hook(m *Module) {
	m.OnEcho = func(src inet.IP6, id, seq uint16, payload []byte) {
		p.mu.Lock()
		p.replies = append(p.replies, seq)
		p.mu.Unlock()
	}
}

func (p *pinger) count() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.replies)
}

// waitFor asserts that cond already holds. The hub delivers frames
// synchronously and every timer is driven by explicit FastTimo /
// SlowTimo calls, so there is nothing to wait on: if cond is false the
// stack dropped something, and polling would only hide it.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	if !cond() {
		t.Fatalf("%s did not happen", what)
	}
}

// virtualize points the nodes' route-table clocks (the time source for
// all ND/DAD/reassembly state) at a shared virtual clock.
func virtualize(clk *vclock.Virtual, nodes ...*node) {
	for _, n := range nodes {
		n.rt.Now = clk.Now
	}
}

// driveDAD advances the virtual clock through enough FastTimo ticks to
// let every node's DAD run conclude, entirely on this goroutine.
func driveDAD(clk *vclock.Virtual, nodes ...*node) {
	for i := 0; i < dadProbes+2; i++ {
		clk.Advance(2 * dadInterval)
		for _, n := range nodes {
			n.m.FastTimo(clk.Now())
		}
	}
}

// concluded reports whether a StartDAD done channel has closed.
func concluded(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

var (
	macA  = inet.LinkAddr{2, 0, 0, 0, 0, 0xa}
	macB  = inet.LinkAddr{2, 0, 0, 0, 0, 0xb}
	macR  = inet.LinkAddr{2, 0, 0, 0, 0, 0x1}
	macR2 = inet.LinkAddr{2, 0, 0, 0, 0, 0x2}
)

func TestPing6LinkLocalWithND(t *testing.T) {
	hub := netif.NewHub()
	a, b := newNode("a"), newNode("b")
	a.join(hub, macA, 1500)
	b.join(hub, macB, 1500)
	p := &pinger{}
	p.hook(a.m)

	if err := a.m.SendEcho(b.linkLocal(0), 7, 1, []byte("hello v6")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "echo reply", func() bool { return p.count() >= 1 })
	if a.m.Stats.OutNS.Get() == 0 || b.m.Stats.InNS.Get() == 0 || a.m.Stats.InNA.Get() == 0 {
		t.Fatalf("ND exchange missing: outNS=%d inNS=%d inNA=%d",
			a.m.Stats.OutNS.Get(), b.m.Stats.InNS.Get(), a.m.Stats.InNA.Get())
	}
	// Neighbor is a host route with a MAC gateway (§4.3).
	blladdr := b.linkLocal(0)
	rt, ok := a.rt.Lookup(inet.AFInet6, blladdr[:])
	if !ok || !rt.Host() || rt.Flags&route.FlagLLInfo == 0 {
		t.Fatalf("neighbor route missing: %+v", rt)
	}
	if mac, ok := rt.Gateway.(inet.LinkAddr); !ok || mac != macB {
		t.Fatalf("gateway = %v", rt.Gateway)
	}
	st, ok := a.m.NeighborState(blladdr)
	if !ok || st != ip.Reachable {
		t.Fatalf("neighbor state = %v, %v", st, ok)
	}
	// Second ping: no new multicast solicit.
	ns := a.m.Stats.OutNS.Get()
	a.m.SendEcho(blladdr, 7, 2, nil)
	waitFor(t, "second reply", func() bool { return p.count() >= 2 })
	if a.m.Stats.OutNS.Get() != ns {
		t.Fatal("re-solicited a reachable neighbor")
	}
}

func TestPing6Self(t *testing.T) {
	hub := netif.NewHub()
	a := newNode("a")
	a.join(hub, macA, 1500)
	p := &pinger{}
	p.hook(a.m)
	if err := a.m.SendEcho(a.linkLocal(0), 1, 1, []byte("me")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "self reply", func() bool { return p.count() >= 1 })
}

func TestPing6AllNodesMulticast(t *testing.T) {
	hub := netif.NewHub()
	a, b := newNode("a"), newNode("b")
	a.join(hub, macA, 1500)
	b.join(hub, macB, 1500)
	p := &pinger{}
	p.hook(a.m)
	if err := a.m.SendEcho(inet.AllNodes, 2, 1, nil); err != nil {
		t.Fatal(err)
	}
	// B replies from a unicast address of its own.
	waitFor(t, "multicast echo reply", func() bool { return p.count() >= 1 })
}

func TestNDUnreachableNeighborRejects(t *testing.T) {
	hub := netif.NewHub()
	a := newNode("a")
	a.join(hub, macA, 1500)
	ghost := ip6(t, "fe80::dead")
	a.m.SendEcho(ghost, 1, 1, nil)
	now := time.Now()
	for i := 0; i < ipv6.NDMaxMulticast+2; i++ {
		now = now.Add(2 * ipv6.NDRetrans)
		a.m.FastTimo(now)
	}
	rt, ok := a.rt.Get(inet.AFInet6, ghost[:], 128)
	if !ok || rt.Flags&route.FlagReject == 0 {
		t.Fatalf("unresolvable neighbor not rejected: %+v", rt)
	}
	if a.m.Stats.NdTimeouts.Get() == 0 {
		t.Fatal("NdTimeouts not counted")
	}
	// Sends fail fast while the reject lingers.
	err := a.l.Output(mbuf.New([]byte("x")), inet.IP6{}, ghost, proto.UDP, ipv6.OutputOpts{})
	if err != ipv6.ErrReject {
		t.Fatalf("err = %v, want ErrReject", err)
	}
}

func TestNDStaleThenProbeConfirm(t *testing.T) {
	hub := netif.NewHub()
	a, b := newNode("a"), newNode("b")
	a.join(hub, macA, 1500)
	b.join(hub, macB, 1500)
	p := &pinger{}
	p.hook(a.m)
	bll := b.linkLocal(0)
	a.m.SendEcho(bll, 1, 1, nil)
	waitFor(t, "reply", func() bool { return p.count() >= 1 })

	// Age the entry into stale.
	rt, _ := a.rt.Lookup(inet.AFInet6, bll[:])
	a.m.FastTimo(time.Now().Add(2 * ipv6.NDReachable))
	st, _ := a.m.NeighborState(bll)
	if st != ip.Stale {
		t.Fatalf("state = %v, want stale", st)
	}
	// Using the stale entry probes and still delivers.
	nsBefore := a.m.Stats.OutNS.Get()
	a.m.SendEcho(bll, 1, 2, nil)
	waitFor(t, "reply via stale entry", func() bool { return p.count() >= 2 })
	if a.m.Stats.OutNS.Get() == nsBefore {
		t.Fatal("stale entry did not probe")
	}
	// The probe's NA flips it back to reachable.
	waitFor(t, "reachable again", func() bool {
		st, _ := a.m.NeighborState(bll)
		return st == ip.Reachable
	})
	_ = rt
}

// TestNDReachableAgesOnTimerTick pins the BSD timer semantics on a
// virtual clock: a REACHABLE entry past ipv6.NDReachable is still used, with
// no solicit, until the timer tick ages it to STALE; the first packet
// after the tick sends exactly one unicast NS, whose answer makes the
// entry REACHABLE again.
func TestNDReachableAgesOnTimerTick(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(1_000_000, 0))
	hub := netif.NewHub()
	a, b := newNode("a"), newNode("b")
	virtualize(clk, a, b)
	a.join(hub, macA, 1500)
	b.join(hub, macB, 1500)
	p := &pinger{}
	p.hook(a.m)
	bll := b.linkLocal(0)
	a.m.SendEcho(bll, 1, 1, nil)
	waitFor(t, "reply", func() bool { return p.count() == 1 })
	if st, _ := a.m.NeighborState(bll); st != ip.Reachable {
		t.Fatalf("state = %v after resolution, want reachable", st)
	}

	clk.Advance(ipv6.NDReachable + 5*time.Second)
	ns := a.m.Stats.OutNS.Get()
	for seq := uint16(2); seq <= 3; seq++ {
		a.m.SendEcho(bll, 1, seq, nil)
	}
	waitFor(t, "replies past ipv6.NDReachable", func() bool { return p.count() == 3 })
	if got := a.m.Stats.OutNS.Get() - ns; got != 0 {
		t.Fatalf("%d solicits before the timer tick, want 0", got)
	}
	if st, _ := a.m.NeighborState(bll); st != ip.Reachable {
		t.Fatalf("state = %v before the timer tick, want reachable", st)
	}

	a.m.FastTimo(clk.Now())
	if st, _ := a.m.NeighborState(bll); st != ip.Stale {
		t.Fatalf("state = %v after the timer tick, want stale", st)
	}
	for seq := uint16(4); seq <= 5; seq++ {
		a.m.SendEcho(bll, 1, seq, nil)
	}
	waitFor(t, "replies via the stale entry", func() bool { return p.count() == 5 })
	if got := a.m.Stats.OutNS.Get() - ns; got != 1 {
		t.Fatalf("%d solicits after the timer tick, want 1 unicast probe", got)
	}
	if st, _ := a.m.NeighborState(bll); st != ip.Reachable {
		t.Fatalf("state = %v after the probe's answer, want reachable", st)
	}
}

func TestUpperLayerConfirm(t *testing.T) {
	hub := netif.NewHub()
	a, b := newNode("a"), newNode("b")
	a.join(hub, macA, 1500)
	b.join(hub, macB, 1500)
	p := &pinger{}
	p.hook(a.m)
	bll := b.linkLocal(0)
	a.m.SendEcho(bll, 1, 1, nil)
	waitFor(t, "reply", func() bool { return p.count() >= 1 })
	a.m.FastTimo(time.Now().Add(2 * ipv6.NDReachable))
	if st, _ := a.m.NeighborState(bll); st != ip.Stale {
		t.Fatal("not stale")
	}
	// TCP-style confirmation refreshes without any wire traffic (§4.3).
	a.m.Confirm(bll)
	if st, _ := a.m.NeighborState(bll); st != ip.Reachable {
		t.Fatal("Confirm did not refresh")
	}
}

func TestDADUnique(t *testing.T) {
	hub := netif.NewHub()
	a, b := newNode("a"), newNode("b")
	clk := vclock.NewVirtual(time.Unix(1_000_000, 0))
	virtualize(clk, a, b)
	ifp := a.join(hub, macA, 1500)
	b.join(hub, macB, 1500)
	addr := ip6(t, "2001:db8::a")
	ifp.AddAddr6(netif.Addr6{Addr: addr, Plen: 64, Tentative: true})
	done := a.m.StartDAD(ifp, addr)
	driveDAD(clk, a, b)
	if !concluded(done) {
		t.Fatal("DAD did not conclude")
	}
	addrs := ifp.Addrs6()
	for _, x := range addrs {
		if x.Addr == addr && (x.Tentative || x.Duplicated) {
			t.Fatalf("unique address still tentative: %+v", x)
		}
	}
	if a.m.Stats.DadStarted.Get() != 1 || a.m.Stats.DadDuplicate.Get() != 0 {
		t.Fatalf("stats: %+v", &a.m.Stats)
	}
}

func TestDADCollision(t *testing.T) {
	hub := netif.NewHub()
	a, b := newNode("a"), newNode("b")
	ifpA := a.join(hub, macA, 1500)
	ifpB := b.join(hub, macB, 1500)
	addr := ip6(t, "2001:db8::7")
	// B already owns the address.
	b.addGlobal(ifpB, addr, 64)
	// A tries to claim it; B's defending NA marks it duplicated.
	ifpA.AddAddr6(netif.Addr6{Addr: addr, Plen: 64, Tentative: true})
	// B's defending NA arrives synchronously, so DAD concludes inside
	// StartDAD's first probe.
	done := a.m.StartDAD(ifpA, addr)
	if !concluded(done) {
		t.Fatal("DAD did not conclude")
	}
	found := false
	for _, x := range ifpA.Addrs6() {
		if x.Addr == addr {
			found = true
			if !x.Duplicated {
				t.Fatal("collision not detected")
			}
		}
	}
	if !found {
		t.Fatal("address vanished")
	}
	if a.m.Stats.DadDuplicate.Get() != 1 {
		t.Fatal("DadDuplicate not counted")
	}
}

func TestDADSimultaneousProbes(t *testing.T) {
	// Two nodes probe the same tentative address at once; the NS from
	// the unspecified source tells the other prober about the clash.
	hub := netif.NewHub()
	a, b := newNode("a"), newNode("b")
	clk := vclock.NewVirtual(time.Unix(1_000_000, 0))
	virtualize(clk, a, b)
	ifpA := a.join(hub, macA, 1500)
	ifpB := b.join(hub, macB, 1500)
	addr := ip6(t, "2001:db8::9")
	ifpA.AddAddr6(netif.Addr6{Addr: addr, Plen: 64, Tentative: true})
	ifpB.AddAddr6(netif.Addr6{Addr: addr, Plen: 64, Tentative: true})
	doneA := a.m.StartDAD(ifpA, addr) // A's probe reaches B after B joins the group
	doneB := b.m.StartDAD(ifpB, addr)
	_ = doneA
	driveDAD(clk, a, b)
	if !concluded(doneB) {
		t.Fatal("B's DAD did not conclude")
	}
	// At least one side must have detected the duplicate.
	if a.m.Stats.DadDuplicate.Get()+b.m.Stats.DadDuplicate.Get() == 0 {
		t.Fatal("simultaneous DAD went undetected")
	}
}

func TestRouterDiscoveryAndAutoconf(t *testing.T) {
	hub := netif.NewHub()
	r, h := newNode("r"), newNode("h")
	rifp := r.join(hub, macR, 1500)
	hifp := h.join(hub, macB, 1500)
	prefix := ip6(t, "2001:db8:1:2::")
	r.addGlobal(rifp, ip6(t, "2001:db8:1:2::1"), 64)
	r.m.EnableRouter(rifp.Name, RouterConfig{
		Interval: time.Hour, Lifetime: time.Hour, CurHopLimit: 32,
		Prefixes: []PrefixInfo{{Prefix: prefix, Plen: 64, OnLink: true, Autonomous: true}},
	})

	// Host solicits (second phase of autoconfiguration, §4.2.1).
	if err := h.m.SendRouterSolicit(hifp.Name); err != nil {
		t.Fatal(err)
	}
	want := inet.WithPrefix(prefix, 64, h.linkLocal(0))
	waitFor(t, "autoconfigured address", func() bool { return hifp.HasAddr6(want) })

	// DAD concludes (drive the ticks).
	now := time.Now()
	for i := 0; i < dadProbes+2; i++ {
		now = now.Add(2 * dadInterval)
		h.m.FastTimo(now)
	}
	waitFor(t, "DAD completion", func() bool {
		for _, a := range hifp.Addrs6() {
			if a.Addr == want && !a.Tentative && !a.Duplicated {
				return true
			}
		}
		return false
	})

	// Default route installed via the router's link-local address.
	var zero inet.IP6
	rt, ok := h.rt.Get(inet.AFInet6, zero[:], 0)
	if !ok || rt.Flags&route.FlagGateway == 0 {
		t.Fatal("no default route")
	}
	if gw, _ := rt.Gateway.(inet.IP6); gw != r.linkLocal(0) {
		t.Fatalf("default gw = %v", rt.Gateway)
	}
	// Hop limit adopted.
	if h.l.DefaultHopLimit != 32 {
		t.Fatalf("hop limit = %d", h.l.DefaultHopLimit)
	}
	// On-link prefix cloning route present.
	prt, ok := h.rt.Get(inet.AFInet6, prefix[:], 64)
	if !ok || prt.Flags&route.FlagCloning == 0 {
		t.Fatal("on-link prefix route missing")
	}
	// Router list populated.
	if len(h.m.Routers(time.Now())) != 1 {
		t.Fatal("router list")
	}
}

func TestRenumbering(t *testing.T) {
	// §4.2.2: lifetimes enable rapid renumbering. The router first
	// advertises prefix P1, then advertises P1 with a short lifetime
	// and a new P2; the host ends up with only the P2 address.
	hub := netif.NewHub()
	r, h := newNode("r"), newNode("h")
	rifp := r.join(hub, macR, 1500)
	hifp := h.join(hub, macB, 1500)
	p1 := ip6(t, "2001:db8:aaaa::")
	p2 := ip6(t, "2001:db8:bbbb::")

	r.m.EnableRouter(rifp.Name, RouterConfig{
		Interval: time.Hour, Lifetime: time.Hour,
		Prefixes: []PrefixInfo{{Prefix: p1, Plen: 64, OnLink: true, Autonomous: true}},
	})
	h.m.SendRouterSolicit(hifp.Name)
	addr1 := inet.WithPrefix(p1, 64, h.linkLocal(0))
	waitFor(t, "P1 address", func() bool { return hifp.HasAddr6(addr1) })

	// Renumber: P1 gets a 1-second valid lifetime, P2 appears.
	r.m.mu.Lock()
	r.m.rcfg[rifp.Name].Prefixes = []PrefixInfo{
		{Prefix: p1, Plen: 64, OnLink: true, Autonomous: true, ValidLft: time.Second, PreferredLft: time.Second},
		{Prefix: p2, Plen: 64, OnLink: true, Autonomous: true},
	}
	r.m.mu.Unlock()
	r.m.sendRA(rifp.Name, inet.AllNodes)

	addr2 := inet.WithPrefix(p2, 64, h.linkLocal(0))
	waitFor(t, "P2 address", func() bool { return hifp.HasAddr6(addr2) })

	// Advance time past P1's validity; the expiry tick removes it.
	h.m.FastTimo(time.Now().Add(time.Minute))
	if hifp.HasAddr6(addr1) {
		t.Fatal("old prefix address survived renumbering")
	}
	if !hifp.HasAddr6(addr2) {
		t.Fatal("new prefix address lost")
	}
}

func TestRAMTUOption(t *testing.T) {
	hub := netif.NewHub()
	r, h := newNode("r"), newNode("h")
	rifp := r.join(hub, macR, 1500)
	hifp := h.join(hub, macB, 1500)
	r.m.EnableRouter(rifp.Name, RouterConfig{Interval: time.Hour, Lifetime: time.Hour, LinkMTU: 1280})
	h.m.SendRouterSolicit(hifp.Name)
	waitFor(t, "MTU adoption", func() bool { return hifp.MTU() == 1280 })
}

func TestGroupMessages(t *testing.T) {
	hub := netif.NewHub()
	r, h := newNode("r"), newNode("h")
	rifp := r.join(hub, macR, 1500)
	hifp := h.join(hub, macB, 1500)
	r.m.EnableRouter(rifp.Name, RouterConfig{Interval: time.Hour, Lifetime: time.Hour})

	group := ip6(t, "ff02::1:2345")
	// Join emits a Report that the router records.
	h.l.JoinGroup(hifp.Name, group)
	waitFor(t, "membership recorded", func() bool {
		return len(r.m.Memberships(rifp.Name)) == 1
	})
	// A general query elicits a fresh report.
	reports := h.m.Stats.OutReports.Get()
	r.m.SendGroupQuery(rifp.Name, inet.IP6{}, 0)
	waitFor(t, "query answered", func() bool { return h.m.Stats.OutReports.Get() > reports })
	// Leave emits a Terminate; the router forgets (§4.1: "routers can
	// be informed more quickly about hosts leaving multicast groups").
	// (The query above also elicited a report for the host's
	// solicited-node group, which legitimately remains.)
	h.l.LeaveGroup(hifp.Name, group)
	waitFor(t, "membership removed", func() bool {
		for _, g := range r.m.Memberships(rifp.Name) {
			if g == group {
				return false
			}
		}
		return true
	})
	if h.m.Stats.OutTerm.Get() == 0 {
		t.Fatal("Terminate not sent")
	}
}

// threeNode builds A --hub1-- R --hub2-- B with static routes and R
// forwarding. mtu2 is the second link's MTU.
func threeNode(t *testing.T, mtu2 int) (a, r, b *node) {
	t.Helper()
	hub1, hub2 := netif.NewHub(), netif.NewHub()
	a, r, b = newNode("a"), newNode("r"), newNode("b")
	aif := a.join(hub1, macA, 1500)
	r1 := r.join(hub1, macR, 1500)
	r2 := r.join(hub2, macR2, mtu2)
	bif := b.join(hub2, macB, mtu2)
	r.l.Forwarding = true

	a.addGlobal(aif, ip6(t, "2001:db8:1::a"), 64)
	r.addGlobal(r1, ip6(t, "2001:db8:1::ffff"), 64)
	r.addGlobal(r2, ip6(t, "2001:db8:2::ffff"), 64)
	b.addGlobal(bif, ip6(t, "2001:db8:2::b"), 64)

	var zero inet.IP6
	a.rt.Add(&route.Entry{Family: inet.AFInet6, Dst: zero[:], Plen: 0,
		Flags: route.FlagUp | route.FlagGateway, Gateway: ip6(t, "2001:db8:1::ffff"), IfName: aif.Name})
	b.rt.Add(&route.Entry{Family: inet.AFInet6, Dst: zero[:], Plen: 0,
		Flags: route.FlagUp | route.FlagGateway, Gateway: ip6(t, "2001:db8:2::ffff"), IfName: bif.Name})
	return a, r, b
}

func TestForwarding6(t *testing.T) {
	a, r, _ := threeNode(t, 1500)
	p := &pinger{}
	p.hook(a.m)
	if err := a.m.SendEcho(ip6(t, "2001:db8:2::b"), 5, 1, []byte("through router")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "forwarded reply", func() bool { return p.count() >= 1 })
	if r.l.Stats.Forwarded.Get() < 2 {
		t.Fatalf("forwarded = %d", r.l.Stats.Forwarded.Get())
	}
}

func TestPathMTUDiscovery(t *testing.T) {
	// §2.2: the router does NOT fragment; it reports Packet Too Big,
	// the source's host route learns the path MTU, and the next send
	// fragments end-to-end.
	a, r, b := threeNode(t, ipv6.MinMTU)
	p := &pinger{}
	p.hook(a.m)
	dst := ip6(t, "2001:db8:2::b")

	if err := a.m.SendEcho(dst, 5, 1, make([]byte, 1200)); err != nil {
		t.Fatal(err)
	}
	// The router must not fragment (unlike IPv4).
	waitFor(t, "PMTU update", func() bool {
		rt, ok := a.rt.Lookup(inet.AFInet6, dst[:])
		return ok && rt.Host() && rt.MTU == ipv6.MinMTU
	})
	if r.l.Stats.OutFrags.Get() != 0 {
		t.Fatal("IPv6 router fragmented")
	}
	if a.m.Stats.PmtuUpdates.Get() == 0 {
		t.Fatal("PmtuUpdates not counted")
	}
	// Retry: now the source fragments end-to-end and B reassembles.
	if err := a.m.SendEcho(dst, 5, 2, make([]byte, 1200)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "fragmented echo reply", func() bool { return p.count() >= 1 })
	if a.l.Stats.OutFrags.Get() < 2 {
		t.Fatalf("source OutFrags = %d", a.l.Stats.OutFrags.Get())
	}
	if b.l.Stats.Reassembled.Get() == 0 {
		t.Fatal("B did not reassemble")
	}
}

func TestHopLimitExceeded(t *testing.T) {
	a, _, _ := threeNode(t, 1500)
	var mu sync.Mutex
	var got proto.CtlType
	a.l.Register(proto.UDP, func(*mbuf.Mbuf, proto.Meta) {}, func(kind proto.CtlType, meta *proto.Meta, contents []byte, mtu int) {
		mu.Lock()
		got = kind
		mu.Unlock()
	})
	pkt := mbuf.New(make([]byte, 16))
	if err := a.l.Output(pkt, inet.IP6{}, ip6(t, "2001:db8:2::b"), proto.UDP, ipv6.OutputOpts{HopLimit: 1}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "time exceeded", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return got == proto.CtlTimeExceed
	})
}

func TestNoRouteElicitsUnreach(t *testing.T) {
	a, _, _ := threeNode(t, 1500)
	var mu sync.Mutex
	var got proto.CtlType
	a.l.Register(proto.UDP, func(*mbuf.Mbuf, proto.Meta) {}, func(kind proto.CtlType, meta *proto.Meta, contents []byte, mtu int) {
		mu.Lock()
		got = kind
		mu.Unlock()
	})
	pkt := mbuf.New(make([]byte, 16))
	// 2001:db8:3:: has no route at R.
	if err := a.l.Output(pkt, inet.IP6{}, ip6(t, "2001:db8:3::1"), proto.UDP, ipv6.OutputOpts{}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "unreach", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return got == proto.CtlUnreach
	})
}

func TestSourceRouting(t *testing.T) {
	// A sends to B via an explicit route through R's address using a
	// type-0 routing header.
	a, r, _ := threeNode(t, 1500)
	p := &pinger{}
	p.hook(a.m)
	rAddr := ip6(t, "2001:db8:1::ffff")
	dst := ip6(t, "2001:db8:2::b")

	body := make([]byte, 4+16)
	body[0], body[1] = 0, 3 // id=3
	body[2], body[3] = 0, 1 // seq=1
	// Echo body checksum is computed against the FINAL destination...
	// ICMPv6 checksums use the final dst; with a routing header the
	// final dst is the last address. Build the echo against dst.
	src := ip6(t, "2001:db8:1::a")
	msg := marshal(TypeEchoRequest, 0, body, src, dst)
	pkt := mbuf.New(msg)
	err := a.l.Output(pkt, src, rAddr, proto.ICMPv6, ipv6.OutputOpts{
		RoutingAddrs: []inet.IP6{dst},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "source-routed reply", func() bool { return p.count() >= 1 })
	if r.l.Stats.RouteHdrSeen.Get() == 0 {
		t.Fatal("routing header not processed at R")
	}
}

func TestUnknownOptionParamProblem(t *testing.T) {
	hub := netif.NewHub()
	a, b := newNode("a"), newNode("b")
	a.join(hub, macA, 1500)
	b.join(hub, macB, 1500)
	bll := b.linkLocal(0)
	all := a.linkLocal(0)

	// Option type 0xC5: discard + ICMP unless multicast.
	pay := []byte{1, 2, 3, 4}
	pkt := mbuf.New(pay)
	err := a.l.Output(pkt, all, bll, proto.UDP, ipv6.OutputOpts{
		DstOptsList: []ipv6.Option{{Type: 0xc5, Data: []byte{9}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "param problem counted", func() bool { return b.l.Stats.InOptErrors.Get() >= 1 })
	waitFor(t, "param problem received", func() bool { return a.m.Stats.InMsgs.Get() >= 1 })
}

func TestEchoWithHopByHopOptions(t *testing.T) {
	// Skip-action option travels end-to-end without harm; exercises
	// the preparse path (not the fast path).
	hub := netif.NewHub()
	a, b := newNode("a"), newNode("b")
	a.join(hub, macA, 1500)
	b.join(hub, macB, 1500)
	p := &pinger{}
	p.hook(a.m)
	src := a.linkLocal(0)
	dst := b.linkLocal(0)
	body := []byte{0, 9, 0, 1, 'h', 'i'}
	msg := marshal(TypeEchoRequest, 0, body, src, dst)
	runs := b.l.Stats.PreparseRuns.Get()
	err := a.l.Output(mbuf.New(msg), src, dst, proto.ICMPv6, ipv6.OutputOpts{
		HopOpts: []ipv6.Option{{Type: 0x05, Data: []byte{1, 2, 3}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "optioned echo reply", func() bool { return p.count() >= 1 })
	if b.l.Stats.PreparseRuns.Get() == runs {
		t.Fatal("optioned packet bypassed the pre-parse")
	}
}

func TestFragmentationLoopback(t *testing.T) {
	// Oversized self-send fragments via loopback and reassembles.
	hub := netif.NewHub()
	a := newNode("a")
	a.join(hub, macA, 1500)
	p := &pinger{}
	p.hook(a.m)
	self := a.linkLocal(0)
	if err := a.m.SendEcho(self, 1, 1, make([]byte, 60000)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "jumbo self echo", func() bool { return p.count() >= 1 })
	if a.l.Stats.Reassembled.Get() < 2 { // request + reply
		t.Fatalf("Reassembled = %d", a.l.Stats.Reassembled.Get())
	}
}

// injectFragment hand-builds a lone fragment from a to b.
func injectFragment(a, b *node, off int, more bool, id uint32) {
	fh := &ipv6.FragHeader{NextHdr: proto.UDP, Off: off, More: more, ID: id}
	fb := fh.Marshal(nil)
	fb = append(fb, make([]byte, 64)...)
	h := &ipv6.Header{NextHdr: proto.Fragment, HopLimit: 4, PayloadLen: len(fb),
		Src: a.linkLocal(0), Dst: b.linkLocal(0)}
	pkt := mbuf.New(h.Marshal(nil))
	pkt.Append(fb)
	b.l.Input(b.ifps[0], pkt)
}

func TestReassemblyTimeoutTimeExceeded(t *testing.T) {
	// The paper's footnote said no Time Exceeded could be sent for a
	// reassembly timeout (the offending packet was gone); we retain the
	// first fragment, so the error goes out — but only when fragment
	// zero actually arrived (RFC 2460 §4.5).
	hub := netif.NewHub()
	a, b := newNode("a"), newNode("b")
	clk := vclock.NewVirtual(time.Unix(1_000_000, 0))
	virtualize(clk, a, b)
	a.join(hub, macA, 1500)
	b.join(hub, macB, 1500)
	var mu sync.Mutex
	var gotType, gotCode uint8
	a.m.OnErrorMsg = func(typ, code uint8, src inet.IP6, inner []byte) {
		mu.Lock()
		gotType, gotCode = typ, code
		mu.Unlock()
	}

	injectFragment(a, b, 0, true, 77) // first fragment, never completed
	clk.Advance(time.Minute)
	b.l.SlowTimo(clk.Now())
	if b.l.Stats.ReasmFails.Get() != 1 {
		t.Fatalf("ReasmFails = %d, want 1", b.l.Stats.ReasmFails.Get())
	}
	mu.Lock()
	typ, code := gotType, gotCode
	mu.Unlock()
	if typ != TypeTimeExceeded || code != 1 {
		t.Fatalf("got type=%d code=%d, want Time Exceeded code 1", typ, code)
	}
}

func TestReassemblyTimeoutWithoutFirstFragmentSilent(t *testing.T) {
	// A timeout where fragment zero never showed must stay silent: the
	// error would have to quote a header we never received.
	hub := netif.NewHub()
	a, b := newNode("a"), newNode("b")
	clk := vclock.NewVirtual(time.Unix(1_000_000, 0))
	virtualize(clk, a, b)
	a.join(hub, macA, 1500)
	b.join(hub, macB, 1500)

	injectFragment(a, b, 128, true, 78) // tail only, no fragment zero
	errsBefore := b.m.Stats.OutErrors.Get()
	clk.Advance(time.Minute)
	b.l.SlowTimo(clk.Now())
	if b.l.Stats.ReasmFails.Get() != 1 {
		t.Fatalf("ReasmFails = %d, want 1", b.l.Stats.ReasmFails.Get())
	}
	if b.m.Stats.OutErrors.Get() != errsBefore {
		t.Fatal("Time Exceeded sent without the first fragment")
	}
}

// TestFastPathAblation: an optionless packet bypasses the pre-parse
// (§2.2's planned fast path) and still reaches its protocol.
func TestFastPathAblation(t *testing.T) {
	hub := netif.NewHub()
	a, b := newNode("a"), newNode("b")
	a.join(hub, macA, 1500)
	b.join(hub, macB, 1500)
	p := &pinger{}
	p.hook(a.m)
	runs := b.l.Stats.PreparseRuns.Get()
	a.m.SendEcho(b.linkLocal(0), 1, 1, []byte("fast"))
	waitFor(t, "fast-path reply", func() bool { return p.count() >= 1 })
	if b.l.Stats.FastPathHits.Get() == 0 {
		t.Fatal("fast path not taken for optionless packet")
	}
	if b.l.Stats.PreparseRuns.Get() != runs {
		t.Fatal("optionless packet was pre-parsed")
	}
}

func TestStrictSourceRouteError(t *testing.T) {
	// §4.1: "Extensions have been added to indicate ... errors with
	// strict source routing."  A strict hop that is only reachable
	// through a gateway elicits Unreachable (not-a-neighbor).
	a, r, _ := threeNode(t, 1500)
	var mu sync.Mutex
	var gotType, gotCode uint8
	a.m.OnErrorMsg = func(typ, code uint8, src inet.IP6, inner []byte) {
		mu.Lock()
		gotType, gotCode = typ, code
		mu.Unlock()
	}
	// Source route: via R (on-link hop, fine) then B marked STRICT —
	// but from R, B is on-link, so instead mark a hop beyond R's links.
	farDst := ip6(t, "2001:db8:9::1")
	var zero inet.IP6
	// Give R a gateway route for the far destination so the strict
	// check sees "reachable only via a gateway".
	r.rt.Add(&route.Entry{Family: inet.AFInet6, Dst: zero[:], Plen: 0,
		Flags: route.FlagUp | route.FlagGateway, Gateway: ip6(t, "2001:db8:2::b"), IfName: r.ifps[1].Name})

	src := ip6(t, "2001:db8:1::a")
	body := make([]byte, 4)
	msg := marshal(TypeEchoRequest, 0, body, src, farDst)
	pkt := mbuf.New(msg)
	err := a.l.Output(pkt, src, ip6(t, "2001:db8:1::ffff"), proto.ICMPv6, ipv6.OutputOpts{
		RoutingAddrs:  []inet.IP6{farDst},
		RoutingStrict: 1 << 0, // hop 0 must be a neighbor of R
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "strict-route unreachable", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return gotType == TypeDstUnreach && gotCode == UnreachNotNeighbor
	})
}

func TestLooseSourceRouteViaGatewayOK(t *testing.T) {
	// The same route without the strict bit is forwarded normally.
	a, r, _ := threeNode(t, 1500)
	p := &pinger{}
	p.hook(a.m)
	dst := ip6(t, "2001:db8:2::b")
	rAddr := ip6(t, "2001:db8:1::ffff")
	src := ip6(t, "2001:db8:1::a")
	body := []byte{0, 1, 0, 1}
	msg := marshal(TypeEchoRequest, 0, body, src, dst)
	err := a.l.Output(mbuf.New(msg), src, rAddr, proto.ICMPv6, ipv6.OutputOpts{
		RoutingAddrs: []inet.IP6{dst}, // loose: no strict bits
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "loose-routed reply", func() bool { return p.count() >= 1 })
	_ = r
}

func TestNDRequiresHopLimit255(t *testing.T) {
	// A forged NA injected with a forwarded-looking hop limit must be
	// ignored: ND state can only come from on-link peers.
	hub := netif.NewHub()
	a, b := newNode("a"), newNode("b")
	a.join(hub, macA, 1500)
	b.join(hub, macB, 1500)
	target := b.linkLocal(0)

	// Hand-build an NA claiming B's address maps to a bogus MAC, with
	// hop limit 64 (as if routed here from off-link).
	body := make([]byte, 4+16)
	body[0] = 0x20 // override
	copy(body[4:], target[:])
	body = append(body, 2, 1) // tgt lladdr option
	bogus := inet.LinkAddr{0xde, 0xad, 0xde, 0xad, 0xde, 0xad}
	body = append(body, bogus[:]...)
	msg := marshal(TypeNeighborAdvert, 0, body, target, a.linkLocal(0))
	h := &ipv6.Header{NextHdr: proto.ICMPv6, HopLimit: 64, PayloadLen: len(msg),
		Src: target, Dst: a.linkLocal(0)}
	pkt := mbuf.New(h.Marshal(nil))
	pkt.Append(msg)
	a.l.Input(a.ifps[0], pkt)
	if a.m.Stats.BadHopLimit.Get() != 1 {
		t.Fatalf("BadHopLimit = %d", a.m.Stats.BadHopLimit.Get())
	}
	if a.m.Stats.InNA.Get() != 0 {
		t.Fatal("forged NA processed")
	}
	// The legitimate exchange (hop limit 255) still works.
	p := &pinger{}
	p.hook(a.m)
	a.m.SendEcho(target, 1, 1, nil)
	waitFor(t, "reply after forgery attempt", func() bool { return p.count() >= 1 })
	rt, _ := a.rt.Lookup(inet.AFInet6, target[:])
	if mac, _ := rt.Gateway.(inet.LinkAddr); mac == bogus {
		t.Fatal("bogus MAC installed")
	}
}

// lingerRounds checks the solicits a dead neighbor drew in 60 seconds
// of traffic: rounds of exactly tries, each starting at least the
// reject linger after the last solicit of the round before.  Resolution
// takes a few seconds and the linger 20, so 60 seconds hold three
// rounds.
func lingerRounds(t *testing.T, at []time.Time, tries int, linger time.Duration) {
	t.Helper()
	if len(at) != 3*tries {
		t.Fatalf("%d solicits in 60 s, want %d (three rounds of %d)", len(at), 3*tries, tries)
	}
	for i := tries; i < len(at); i += tries {
		if gap := at[i].Sub(at[i-1]); gap < linger {
			t.Fatalf("solicit %d came %v after the round before, within the %v linger", i+1, gap, linger)
		}
	}
}

// TestNeighborRejectLingersND sends to a dead neighbor twice a second
// for 60 virtual seconds, ticking FastTimo as the stack does.  A
// rejected entry solicits nothing until its linger runs out and a
// datagram resolves it afresh.
func TestNeighborRejectLingersND(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(1_000_000, 0))
	hub := netif.NewHub()
	var asks []time.Time
	hub.Capture = func(fr netif.Frame) {
		b := fr.Payload.Bytes()
		if fr.EtherType == netif.EtherTypeIPv6 && len(b) > ipv6.HeaderLen && b[6] == proto.ICMPv6 && b[ipv6.HeaderLen] == TypeNeighborSolicit {
			asks = append(asks, clk.Now())
		}
	}
	a := newNode("a")
	virtualize(clk, a)
	a.join(hub, macA, 1500)
	ghost := ip6(t, "fe80::dead")
	for i := 0; i < 120; i++ {
		if err := a.l.Output(mbuf.Get(32), inet.IP6{}, ghost, proto.UDP, ipv6.OutputOpts{}); err != nil && err != ipv6.ErrReject {
			t.Fatal(err)
		}
		if i%2 == 0 {
			a.m.FastTimo(clk.Now())
		}
		clk.Advance(500 * time.Millisecond)
	}
	lingerRounds(t, asks, ipv6.NDMaxMulticast, ipv6.NDRejectLinger)
}

// TestNeighborResolvesAfterLingerND fails a resolution, then brings
// the neighbor up without a word: sends are refused while the reject
// lingers, and the first datagram after it reaches the neighbor.
func TestNeighborResolvesAfterLingerND(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(1_000_000, 0))
	hub := netif.NewHub()
	a, b := newNode("a"), newNode("b")
	virtualize(clk, a, b)
	a.join(hub, macA, 1500)
	bll := inet.LinkLocal(macB.Token())
	send := func(seq byte) error {
		pkt := mbuf.Get(1)
		pkt.Bytes()[0] = seq
		return a.l.Output(pkt, inet.IP6{}, bll, proto.UDP, ipv6.OutputOpts{})
	}
	if err := send(0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= ipv6.NDMaxMulticast; i++ {
		clk.Advance(ipv6.NDRetrans)
		a.m.FastTimo(clk.Now())
	}
	rt, ok := a.rt.Get(inet.AFInet6, bll[:], 128)
	if !ok || rt.Flags&route.FlagReject == 0 {
		t.Fatalf("failed resolution not rejected: %+v", rt)
	}
	expire := rt.Expire

	b.join(hub, macB, 1500)
	var got []byte
	b.l.Register(proto.UDP, func(pkt *mbuf.Mbuf, _ proto.Meta) {
		got = append(got, pkt.Bytes()[0])
		pkt.Free()
	}, nil)
	for seq := byte(1); ; seq++ {
		clk.Advance(500 * time.Millisecond)
		if seq%2 == 0 {
			a.m.FastTimo(clk.Now())
		}
		err := send(seq)
		if clk.Now().Before(expire) {
			if err != ipv6.ErrReject || len(got) != 0 {
				t.Fatalf("send %d inside the linger: err %v, %d delivered; want ErrReject, none", seq, err, len(got))
			}
			continue
		}
		if err != nil || len(got) != 1 || got[0] != seq {
			t.Fatalf("first send after the linger (%d): err %v, delivered %v", seq, err, got)
		}
		return
	}
}

// TestNDReresolvesChangedMAC is ARP's TestARPReresolvesChangedMAC for
// Neighbor Discovery: the neighbor moves to a new link-layer address
// while its entry ages, the stale entry's unicast probes go
// unanswered, the entry is deleted (RFC 4861 §7.3.3), and the next
// datagram's multicast solicit finds the new address one retransmit
// after the last probe.
func TestNDReresolvesChangedMAC(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(1_000_000, 0))
	hub := netif.NewHub()
	a, b, moved := newNode("a"), newNode("b"), newNode("b2")
	virtualize(clk, a, b, moved)
	a.join(hub, macA, 1500)
	b.join(hub, macB, 1500)
	bll := b.linkLocal(0)
	var got []byte
	for _, n := range []*node{b, moved} {
		n.l.Register(proto.UDP, func(pkt *mbuf.Mbuf, _ proto.Meta) {
			got = append(got, pkt.Bytes()[0])
			pkt.Free()
		}, nil)
	}
	send := func(seq byte) error {
		pkt := mbuf.Get(1)
		pkt.Bytes()[0] = seq
		return a.l.Output(pkt, inet.IP6{}, bll, proto.UDP, ipv6.OutputOpts{})
	}
	if err := send(0); err != nil || len(got) != 1 {
		t.Fatalf("first send: err %v, delivered %v", err, got)
	}

	hub.Detach(b.ifps[0])
	macC := inet.LinkAddr{2, 0, 0, 0, 0, 0xc}
	ifc := moved.join(hub, macC, 1500)
	ifc.AddAddr6(netif.Addr6{Addr: bll, Plen: 64})
	moved.l.JoinGroup(ifc.Name, inet.SolicitedNode(bll))
	clk.Advance(ipv6.NDReachable)
	var asked []inet.LinkAddr // where a's solicits went
	hub.Capture = func(fr netif.Frame) {
		b := fr.Payload.Bytes()
		if fr.Src == macA && len(b) > ipv6.HeaderLen && b[6] == proto.ICMPv6 && b[ipv6.HeaderLen] == TypeNeighborSolicit {
			asked = append(asked, fr.Dst)
		}
	}
	deadline := clk.Now().Add(ipv6.NDMaxUnicast*ipv6.NDRetrans + ipv6.NDRetrans)
	for seq := byte(1); len(got) == 1; seq++ {
		if clk.Now().After(deadline) {
			t.Fatalf("neighbor not re-resolved %v after the reachable time", ipv6.NDMaxUnicast*ipv6.NDRetrans+ipv6.NDRetrans)
		}
		clk.Advance(ipv6.NDRetrans)
		a.m.FastTimo(clk.Now())
		send(seq)
	}
	rt, _ := a.rt.Get(inet.AFInet6, bll[:], 128)
	if rt.Gateway != macC {
		t.Fatalf("entry at %v, want %v", rt.Gateway, macC)
	}
	want := []inet.LinkAddr{macB, macB, macB, inet.EthernetMulticast(inet.SolicitedNode(bll))}
	if !slices.Equal(asked, want) {
		t.Fatalf("solicits to %v, want %v", asked, want)
	}
}
