// Package testnet assembles complete dual-stack nodes on simulated
// links for use by the transport-layer and integration tests.  It is
// test support code, not part of the public surface; the production
// assembly lives in internal/core.
package testnet

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"bsd6/internal/icmp6"
	"bsd6/internal/inet"
	"bsd6/internal/ipsec"
	"bsd6/internal/ipv4"
	"bsd6/internal/ipv6"
	"bsd6/internal/key"
	"bsd6/internal/netif"
	"bsd6/internal/route"
	"bsd6/internal/stat"
	"bsd6/internal/tunnel"
	"bsd6/internal/vclock"
)

// Node is a dual-stack host: IPv4 + IPv6 + ICMP(v4/v6) + IPsec + keys.
type Node struct {
	Name  string
	RT    *route.Table
	V4    *ipv4.Layer
	V6    *ipv6.Layer
	ICMP4 *ipv4.ICMP
	ICMP6 *icmp6.Module
	Sec   *ipsec.Module
	Keys  *key.Engine
	Tun   *tunnel.Module
	Drops *stat.Recorder
	Ifps  []*netif.Interface
}

// NewNode builds a node with a loopback interface.
func NewNode(name string) *Node {
	rt := route.NewTable()
	v4 := ipv4.NewLayer(rt)
	v6 := ipv6.NewLayer(rt)
	ic4 := ipv4.AttachICMP(v4)
	ic6 := icmp6.Attach(v6)
	ke := key.NewEngine()
	sec := ipsec.Attach(v6, ke)
	drops := stat.NewRecorder(128)
	v4.Drops = drops
	v6.Drops = drops
	rt.Drops = drops
	tun := tunnel.Attach(v4, v6)
	tun.Drops = drops
	n := &Node{Name: name, RT: rt, V4: v4, V6: v6, ICMP4: ic4, ICMP6: ic6, Sec: sec, Keys: ke, Tun: tun, Drops: drops}
	lo := netif.NewLoopback(name+"-lo", 32768)
	lo.SetInput(func(ifp *netif.Interface, fr netif.Frame) {
		switch fr.EtherType {
		case netif.EtherTypeIPv4:
			v4.Input(ifp, fr.Payload)
		case netif.EtherTypeIPv6:
			v6.Input(ifp, fr.Payload)
		}
	})
	v4.AddInterface(lo)
	v6.AddInterface(lo)
	return n
}

// Join attaches the node to a hub with a link-local v6 address and an
// optional v4 address (zero means none).
func (n *Node) Join(hub *netif.Hub, mac inet.LinkAddr, mtu int, v4addr inet.IP4, v4plen int) *netif.Interface {
	ifp := netif.New(fmt.Sprintf("%s-eth%d", n.Name, len(n.Ifps)), mac, mtu)
	ifp.SetInput(func(ifp *netif.Interface, fr netif.Frame) {
		switch fr.EtherType {
		case ipv4.EtherTypeARP:
			n.V4.ArpInput(ifp, fr.Payload)
		case netif.EtherTypeIPv4:
			n.V4.Input(ifp, fr.Payload)
		case netif.EtherTypeIPv6:
			n.V6.Input(ifp, fr.Payload)
		}
	})
	hub.Attach(ifp)

	// IPv6: link-local address + solicited-node group + on-link route.
	ll := inet.LinkLocal(mac.Token())
	ifp.AddAddr6(netif.Addr6{Addr: ll, Plen: 64})
	n.V6.AddInterface(ifp)
	n.V6.JoinGroup(ifp.Name, inet.SolicitedNode(ll))
	llPrefix := inet.IP6{0: 0xfe, 1: 0x80}
	n.RT.Add(&route.Entry{
		Family: inet.AFInet6, Dst: llPrefix[:], Plen: 64,
		Flags: route.FlagUp | route.FlagCloning | route.FlagLLInfo, IfName: ifp.Name,
	})

	// IPv4 if requested.
	n.V4.AddInterface(ifp)
	if !v4addr.IsUnspecified() {
		ifp.AddAddr4(netif.Addr4{Addr: v4addr, Plen: v4plen})
		netAddr := v4addr
		m := inet.Mask4(v4plen)
		for i := range netAddr {
			netAddr[i] &= m[i]
		}
		n.RT.Add(&route.Entry{
			Family: inet.AFInet, Dst: netAddr[:], Plen: v4plen,
			Flags: route.FlagUp | route.FlagCloning | route.FlagLLInfo, IfName: ifp.Name,
		})
	}
	n.Ifps = append(n.Ifps, ifp)
	return ifp
}

// AddTunnel configures an encapsulation tunnel on the node, wiring
// decapsulated packets straight into the IP input paths (testnet nodes
// have no netisr; delivery is synchronous like every other testnet
// link).
func (n *Node) AddTunnel(t testing.TB, cfg tunnel.Config) *tunnel.Tunnel {
	t.Helper()
	tun, err := n.Tun.Add(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tun.Ifp.SetInput(func(ifp *netif.Interface, fr netif.Frame) {
		switch fr.EtherType {
		case netif.EtherTypeIPv4:
			n.V4.Input(ifp, fr.Payload)
		case netif.EtherTypeIPv6:
			n.V6.Input(ifp, fr.Payload)
		}
	})
	n.Ifps = append(n.Ifps, tun.Ifp)
	return tun
}

// AddGlobal6 configures a global IPv6 address with its on-link prefix.
func (n *Node) AddGlobal6(ifp *netif.Interface, addr inet.IP6, plen int) {
	ifp.AddAddr6(netif.Addr6{Addr: addr, Plen: plen})
	n.V6.JoinGroup(ifp.Name, inet.SolicitedNode(addr))
	prefix := addr
	m := inet.Mask6(plen)
	for i := range prefix {
		prefix[i] &= m[i]
	}
	n.RT.Add(&route.Entry{
		Family: inet.AFInet6, Dst: prefix[:], Plen: plen,
		Flags: route.FlagUp | route.FlagCloning | route.FlagLLInfo, IfName: ifp.Name,
	})
}

// DefaultVia6 installs an IPv6 default route.
func (n *Node) DefaultVia6(gw inet.IP6, ifName string) {
	var zero inet.IP6
	n.RT.Add(&route.Entry{
		Family: inet.AFInet6, Dst: zero[:], Plen: 0,
		Flags: route.FlagUp | route.FlagGateway, Gateway: gw, IfName: ifName,
	})
}

// DefaultVia4 installs an IPv4 default route.
func (n *Node) DefaultVia4(gw inet.IP4, ifName string) {
	var zero inet.IP4
	n.RT.Add(&route.Entry{
		Family: inet.AFInet, Dst: zero[:], Plen: 0,
		Flags: route.FlagUp | route.FlagGateway, Gateway: gw, IfName: ifName,
	})
}

// LinkLocal returns the link-local address of interface i.
func (n *Node) LinkLocal(i int) inet.IP6 {
	ll, _ := n.Ifps[i].LinkLocal6(time.Now())
	return ll
}

// WaitFor waits until cond holds, spin-yielding with the caller still
// running. Testnet links deliver synchronously and simulated time
// only moves under explicit control, so for single-goroutine tests
// cond is true on the first check. Under a vclock.Driver the caller
// is a counted actor and never parks here, so simulated time stands
// still while it spins: cond must come true through work already
// under way — queued frames, woken sockets — never through a timer.
// WaitClock parks between polls instead; Sim.WaitFor steps the clock
// itself.
func WaitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		runtime.Gosched()
	}
}

// pollEvery is how much simulated time Until lets pass between polls.
const pollEvery = 10 * time.Millisecond

// WaitClock waits until cond holds in a world whose clock a
// vclock.Driver advances. Between polls the caller parks on clk for a
// few simulated milliseconds, so timers (DAD, RA, retransmission) run
// while it waits and cond is polled at the same simulated instants on
// every run. It fails the test after five simulated minutes.
func WaitClock(t testing.TB, clk vclock.Clock, what string, cond func() bool) {
	t.Helper()
	if !Until(clk, 5*time.Minute, cond) {
		t.Fatalf("timeout (simulated) waiting for %s", what)
	}
}

// Until polls cond as WaitClock does, for up to budget of clk's time,
// and reports whether cond came true.
func Until(clk vclock.Clock, budget time.Duration, cond func() bool) bool {
	for waited := time.Duration(0); !cond(); waited += pollEvery {
		if waited >= budget {
			return false
		}
		vclock.Sleep(clk, pollEvery)
	}
	return true
}

// Signal is a one-shot hand-off between two actors of a clock: Fire
// counts the goroutine parked in Wait runnable before releasing it,
// so a driven virtual clock never mistakes the hand-off for
// quiescence. Tests use it where a counted goroutine would otherwise
// block on a done channel.
type Signal struct {
	clk    vclock.Clock
	mu     sync.Mutex
	fired  bool
	parked bool
	ch     chan struct{}
}

// NewSignal returns an unfired signal on clk.
func NewSignal(clk vclock.Clock) *Signal {
	return &Signal{clk: clk, ch: make(chan struct{})}
}

// Fire releases the waiter, now or when it arrives; later calls do
// nothing.
func (s *Signal) Fire() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fired {
		return
	}
	s.fired = true
	if s.parked {
		s.clk.Runnable(1)
	}
	close(s.ch)
}

// Wait parks the calling actor until Fire. At most one goroutine may
// wait on a signal.
func (s *Signal) Wait() {
	s.mu.Lock()
	if !s.fired {
		s.parked = true
		s.clk.Runnable(-1)
	}
	s.mu.Unlock()
	<-s.ch
}

// Spawn runs f on a goroutine counted on clk (vclock.Go) and returns a
// function that parks the caller until f has returned and yields f's
// error — the clock-visible form of a goroutine plus a done channel.
func Spawn(clk vclock.Clock, f func() error) (wait func() error) {
	var err error
	done := NewSignal(clk)
	vclock.Go(clk, func() {
		defer done.Fire()
		err = f()
	})
	return func() error {
		done.Wait()
		return err
	}
}

// Sim owns the virtual clock of a simulated network: it hands out
// hubs wired to that clock, retargets nodes' time sources at it, and
// drives the BSD timer cadence (pr_fasttimo every 200ms, pr_slowtimo
// every 500ms of simulated time). Tests advance time explicitly, so a
// whole adversarial scenario runs deterministically on one goroutine.
type Sim struct {
	Clock *vclock.Virtual
	hubs  []*netif.Hub
	nodes []*Node
}

// NewSim creates a simulation starting at an arbitrary fixed epoch.
func NewSim() *Sim {
	return &Sim{Clock: vclock.NewVirtual(time.Unix(1_000_000, 0))}
}

// NewHub returns a hub whose delayed deliveries run on the sim clock.
func (s *Sim) NewHub() *netif.Hub {
	h := netif.NewHub()
	h.SetClock(s.Clock)
	s.hubs = append(s.hubs, h)
	return h
}

// NewNode builds a node whose route table and key engine read the sim
// clock, and schedules its periodic timers (ND/DAD/RA via FastTimo,
// reassembly/ARP/SA-lifetime via SlowTimo) on it.
func (s *Sim) NewNode(name string) *Node {
	n := NewNode(name)
	n.RT.Now = s.Clock.Now
	n.Keys.Now = s.Clock.Now
	n.Drops.Now = s.Clock.Now
	s.nodes = append(s.nodes, n)
	s.Every(200*time.Millisecond, func(now time.Time) { n.ICMP6.FastTimo(now) })
	s.Every(500*time.Millisecond, func(now time.Time) {
		n.V4.SlowTimo(now)
		n.V6.SlowTimo(now)
		n.Keys.SlowTimo()
	})
	return n
}

// Every runs fn(now) each interval of simulated time, starting one
// interval from now.
func (s *Sim) Every(interval time.Duration, fn func(now time.Time)) {
	var rearm func()
	rearm = func() {
		fn(s.Clock.Now())
		s.Clock.AfterFunc(interval, rearm)
	}
	s.Clock.AfterFunc(interval, rearm)
}

// Run advances simulated time by d, firing every hub delivery and
// timer tick that falls in the window, in deadline order.
func (s *Sim) Run(d time.Duration) { s.Clock.Advance(d) }

// Quiescent reports whether no frames are in flight on any hub.
func (s *Sim) Quiescent() bool {
	for _, h := range s.hubs {
		if h.Pending() > 0 {
			return false
		}
	}
	return true
}

// WaitFor advances simulated time, one timer at a time, until cond
// holds. It fails the test if cond is still false after budget (a
// generous 5 minutes of simulated time) with the network quiescent.
func (s *Sim) WaitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := s.Clock.Now().Add(5 * time.Minute)
	for !cond() {
		if s.Clock.Now().After(deadline) || !s.Clock.Step() {
			t.Fatalf("timeout (simulated) waiting for %s", what)
		}
	}
}

// Convenient MACs for tests.
var (
	MacA = inet.LinkAddr{2, 0, 0, 0, 0, 0xa}
	MacB = inet.LinkAddr{2, 0, 0, 0, 0, 0xb}
	MacC = inet.LinkAddr{2, 0, 0, 0, 0, 0xc}
	MacR = inet.LinkAddr{2, 0, 0, 0, 0, 0x1}
	MacS = inet.LinkAddr{2, 0, 0, 0, 0, 0x2}
)

// IP6 parses an address or fails the test.
func IP6(t testing.TB, s string) inet.IP6 {
	t.Helper()
	a, err := inet.ParseIP6(s)
	if err != nil {
		t.Fatal(err)
	}
	return a
}
