// Package ip is the half of the BSD IP layer that does not depend on
// the protocol family: the interface registry, loopback and protocol
// switch, the local-address set, path MTU, the forwarding lookup,
// transmit, the output fragment loop, reassembly, the neighbor cache
// that ARP and Neighbor Discovery share, and ICMP error origination:
// its suppression rules, rate limit and message build.  ipv4.Layer and
// ipv6.Layer each embed a Layer and keep what differs by protocol:
// header codecs, options and extension headers, Output's header build,
// the offender's parse and the checksum's pseudo-header, the fragment
// header's parse and the rewrite of a reassembled datagram's headers,
// the ARP or ND wire codec and solicit, and what a router does with an
// oversized packet (§2.1-2.2).
// It carries the paper's §5 thesis, one transport for both families,
// one layer down.
package ip

import (
	"sync"
	"sync/atomic"
	"time"

	"bsd6/internal/inet"
	"bsd6/internal/mbuf"
	"bsd6/internal/netif"
	"bsd6/internal/proto"
	"bsd6/internal/route"
	"bsd6/internal/stat"
)

// Addr is a family's address type.
type Addr interface {
	inet.IP4 | inet.IP6
	IsLoopback() bool
	IsMulticast() bool
	IsUnspecified() bool
	String() string
}

// Family is what a protocol family gives the shared layer when it is
// built; nothing in it may be nil but ICMP.GroupExempt.
type Family[A Addr] struct {
	AF         inet.Family
	EtherType  uint16
	ErrNoRoute error // no route, interface or loopback
	ErrMsgSize error // a fragment would carry no data

	// LocalAddrs calls add for each address of ifp that is this node's.
	LocalAddrs func(ifp *netif.Interface, add func(A))
	// LinkDst maps a destination that carries its own link-layer
	// address (multicast, broadcast) to it.
	LinkDst func(dst A) (inet.LinkAddr, bool)
	// Solicit sends one solicitation for target out of ifp: the
	// multicast (ARP: broadcast) request while resolving, or the
	// unicast probe of a stale neighbor.
	Solicit func(ifp *netif.Interface, target A, unicast bool)
	// Neighbor is the neighbor cache's timing for the family.
	Neighbor NeighborTiming
	// AbandonOverlap is the family's overlap policy: IPv6 abandons a
	// datagram two of whose fragments overlap, unless one is an exact
	// duplicate of the other (RFC 5722, RFC 8200 §4.5); IPv4 keeps the
	// bytes that arrived first, as 4.4 BSD's ip_reass trims.
	AbandonOverlap bool
	// MaxDatagram bounds a fragment's headers plus the offset its data
	// ends at: the longest datagram the family's length field
	// expresses, as fragment zero's headers arrive.
	MaxDatagram int

	// The family's counters and drop reasons the shared paths charge:
	// a fragment reassembly refuses is ReasmFailReason, or
	// ReasmOverlapReason under AbandonOverlap, a datagram a quota
	// evicts ReasmOverflowReason and one that times out
	// ReasmTimeoutReason; a packet to a neighbor that lingers rejected
	// is NoRouteReason, one over a full hold queue HoldFullReason, and
	// one held for a neighbor whose resolution failed
	// ResolveFailReason.
	Stats                                            *Stats
	ReasmFailReason, ReasmOverlapReason              stat.Reason
	ReasmOverflowReason, ReasmTimeoutReason          stat.Reason
	NoRouteReason, HoldFullReason, ResolveFailReason stat.Reason

	// ICMP is the family's half of ICMP error origination.
	ICMP ICMPFamily[A]
}

// Stats are the counters both families keep (netstat's ipstat), each
// family's Stats embedding them.
type Stats struct {
	InReceives    stat.Counter
	InHdrErrors   stat.Counter
	InAddrErrors  stat.Counter
	InUnknownProt stat.Counter
	InDelivers    stat.Counter
	ReasmOverflow stat.Counter // datagrams evicted by a reassembly quota
	Forwarded     stat.Counter
	FwdCacheHits  stat.Counter // forwards resolved from the held routes
	OutRequests   stat.Counter
	OutNoRoute    stat.Counter
	OutDrops      stat.Counter
	FragsReceived stat.Counter
	Reassembled   stat.Counter
	ReasmFails    stat.Counter
}

// FragKey names one datagram under reassembly; IPv6 leaves Proto zero.
type FragKey[A Addr] struct {
	Src, Dst A
	ID       uint32
	Proto    uint8
}

// Layer is the family-independent state and paths of one IP layer.
type Layer[A Addr] struct {
	fam    Family[A]
	mu     sync.Mutex
	routes *route.Table
	ident  uint32
	local  atomic.Pointer[localSet[A]]
	fwd    route.ShardedCache // the forwarding path's held routes

	// Datagrams under reassembly, oldest first, under mu.
	frags []*reass[A]

	// The interface registry and the protocol switch are read per
	// packet and written at configuration time.  The registry is
	// copy-on-write: a writer installs a new copy under mu, a reader
	// loads the current one with no lock.  The switch is indexed by
	// protocol number, as BSD's ip_protox is, and each of its slots is
	// one atomic pointer.
	ifnet  atomic.Pointer[ifnetSet]
	protox [256]protoSlot

	// Forwarding enables router behavior.
	Forwarding bool
	// Drops is the stack-wide drop sink (reason counters and flight
	// recorder) the stack assembly shares; nil counts nothing.
	Drops *stat.Recorder
	// ICMPStats are the counters of the family's ICMP module, which
	// sets them when it attaches; Error charges its messages to them.
	ICMPStats *ICMPStats
	// The ICMP error bucket (see errAllow), under mu.
	errTokens float64
	errLast   time.Time
}

// ifnetSet is one version of the interface registry: the interfaces
// by name and the local-delivery interface.
type ifnetSet struct {
	byName map[string]*netif.Interface
	lo     *netif.Interface
}

// protoSlot is one protocol's entries in the protocol switch.
type protoSlot struct {
	in  atomic.Pointer[proto.TransportInput]
	ctl atomic.Pointer[proto.CtlInput]
}

// NewLayer builds the shared layer of family fam over the routing
// table.
func NewLayer[A Addr](rt *route.Table, fam Family[A]) *Layer[A] {
	l := &Layer[A]{fam: fam, routes: rt}
	l.ifnet.Store(&ifnetSet{byName: map[string]*netif.Interface{}})
	return l
}

// AddInterface registers an interface; the first loopback registered
// becomes the local-delivery path.
func (l *Layer[A]) AddInterface(ifp *netif.Interface) {
	l.mu.Lock()
	old := l.ifnet.Load()
	next := &ifnetSet{byName: make(map[string]*netif.Interface, len(old.byName)+1), lo: old.lo}
	for name, i := range old.byName {
		next.byName[name] = i
	}
	next.byName[ifp.Name] = ifp
	if ifp.Loopback() && next.lo == nil {
		next.lo = ifp
	}
	l.ifnet.Store(next)
	l.mu.Unlock()
	netif.BumpAddrGen()
}

// Interface returns a registered interface by name.
func (l *Layer[A]) Interface(name string) *netif.Interface {
	return l.ifnet.Load().byName[name]
}

// Interfaces returns all registered interfaces.
func (l *Layer[A]) Interfaces() []*netif.Interface {
	set := l.ifnet.Load()
	out := make([]*netif.Interface, 0, len(set.byName))
	for _, ifp := range set.byName {
		out = append(out, ifp)
	}
	return out
}

// EachInterface calls fn on each registered interface, with no copy
// of the registry, as the per-packet source choice reads it.
func (l *Layer[A]) EachInterface(fn func(*netif.Interface)) {
	for _, ifp := range l.ifnet.Load().byName {
		fn(ifp)
	}
}

// Loopback returns the local-delivery interface, or nil.
func (l *Layer[A]) Loopback() *netif.Interface { return l.ifnet.Load().lo }

// Register installs a transport protocol's input and control-input
// entries in the protocol switch.
func (l *Layer[A]) Register(p uint8, in proto.TransportInput, ctl proto.CtlInput) {
	if in != nil {
		l.protox[p].in.Store(&in)
	}
	if ctl != nil {
		l.protox[p].ctl.Store(&ctl)
	}
}

// Proto returns a transport's input entry, or nil.
func (l *Layer[A]) Proto(p uint8) proto.TransportInput {
	if in := l.protox[p].in.Load(); in != nil {
		return *in
	}
	return nil
}

// Ctl returns a transport's control-input entry, through which ICMP
// reports errors upward, or nil.
func (l *Layer[A]) Ctl(p uint8) proto.CtlInput {
	if ctl := l.protox[p].ctl.Load(); ctl != nil {
		return *ctl
	}
	return nil
}

// Routes returns the routing table the layer uses.
func (l *Layer[A]) Routes() *route.Table { return l.routes }

// NextID returns the next datagram identification.
func (l *Layer[A]) NextID() uint32 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ident++
	return l.ident
}

// localSet is every local address, stamped with the netif.AddrGen it
// was built at: the per-packet check is an atomic load and a map probe,
// and an address change rebuilds it on the next packet.
type localSet[A Addr] struct {
	gen uint64
	set map[A]struct{}
}

// IsLocal reports whether dst is a loopback address or one of this
// node's.
func (l *Layer[A]) IsLocal(dst A) bool {
	if dst.IsLoopback() {
		return true
	}
	gen := netif.AddrGen()
	c := l.local.Load()
	if c == nil || c.gen != gen {
		c = l.rebuildLocal(gen)
	}
	_, ok := c.set[dst]
	return ok
}

// rebuildLocal is IsLocal's miss path, kept out of line so the hit
// path allocates nothing.
func (l *Layer[A]) rebuildLocal(gen uint64) *localSet[A] {
	set := make(map[A]struct{})
	for _, ifp := range l.Interfaces() {
		l.fam.LocalAddrs(ifp, func(a A) { set[a] = struct{}{} })
	}
	c := &localSet[A]{gen: gen, set: set}
	l.local.Store(c)
	return c
}

// EntryFlags reads a route entry's flags under the table lock.
func (l *Layer[A]) EntryFlags(rt *route.Entry) int {
	var f int
	l.routes.View(func() { f = rt.Flags })
	return f
}

// PathMTU is ifp's MTU capped by rt's path MTU; rt may be nil.
func (l *Layer[A]) PathMTU(ifp *netif.Interface, rt *route.Entry) int {
	mtu := ifp.MTU()
	if rt != nil {
		l.routes.View(func() {
			if rt.MTU != 0 && rt.MTU < mtu {
				mtu = rt.MTU
			}
		})
	}
	return mtu
}

// Hop is a router's forwarding decision for one packet: the route,
// the outgoing interface, and what one read of the route told about
// the next hop.  Forward sends through it without reading the route
// again.
type Hop struct {
	Route *route.Entry     // nil: no usable route
	Ifp   *netif.Interface // nil: no route, or its interface is not registered
	next  nextHop
}

// PathMTU is the outgoing interface's MTU capped by the route's path
// MTU, as read with the rest of the hop.
func (h *Hop) PathMTU() int {
	mtu := h.Ifp.MTU()
	if h.next.mtu != 0 && h.next.mtu < mtu {
		mtu = h.next.mtu
	}
	return mtu
}

// ForwardRoute is the router's lookup of dst, the destination's bytes:
// a repeat destination costs one generation compare on the held routes
// instead of a radix walk, and one shared read of the table serves the
// reject rule, the path MTU and the next hop's link-layer address.
// The Hop's Route is nil when no usable route exists (none, or one the
// reject rule refuses), and its Ifp is nil also when the route's
// interface is not registered.
func (l *Layer[A]) ForwardRoute(dst []byte) Hop {
	rc := l.fwd.For(dst)
	rt, ok := l.routes.CacheGet(rc, l.fam.AF, dst)
	if ok {
		l.fam.Stats.FwdCacheHits.Inc()
	} else if rt, ok = l.routes.Lookup(l.fam.AF, dst); ok {
		l.routes.CacheFill(rc, l.fam.AF, dst, rt)
	}
	if !ok {
		return Hop{}
	}
	next := l.readHop(rt)
	if next.reject && lingering(next.expire, l.routes.Now()) {
		return Hop{}
	}
	return Hop{Route: rt, Ifp: l.Interface(rt.IfName), next: next}
}

// Forward transmits a forwarded packet carrying its IP header through
// hop, whose Ifp is not nil.  It is Transmit with the route already
// read: a next hop that read resolved costs no further table access.
func (l *Layer[A]) Forward(hop *Hop, dst A, pkt *mbuf.Mbuf) error {
	if mac, ok := l.linkDst(hop.Ifp, dst); ok {
		return output(hop.Ifp, mac, l.fam.EtherType, pkt)
	}
	return l.send(hop.Ifp, hop.Route, dst, pkt, &hop.next)
}

// NoRoute counts a packet that cannot be routed, frees it and returns
// err.
func (l *Layer[A]) NoRoute(pkt *mbuf.Mbuf, err error) error {
	l.fam.Stats.OutNoRoute.Inc()
	pkt.Free()
	return err
}

// Loop delivers a packet carrying its IP header to this node through
// loopback.  Like Transmit, it consumes pkt on every path.
func (l *Layer[A]) Loop(pkt *mbuf.Mbuf) error {
	lo := l.Loopback()
	if lo == nil {
		pkt.Free()
		return l.fam.ErrNoRoute
	}
	return output(lo, inet.LinkAddr{}, l.fam.EtherType, pkt)
}

// output hands pkt to ifp, freeing it if the device refuses it.
func output(ifp *netif.Interface, mac inet.LinkAddr, etherType uint16, pkt *mbuf.Mbuf) error {
	if err := ifp.Output(mac, etherType, pkt); err != nil {
		pkt.Free()
		return err
	}
	return nil
}

// nextHop is what one shared read of the table tells a send about a
// route: its reject mark and linger, its path MTU, and the link-layer
// address of its next hop when that is already resolved.
type nextHop struct {
	reject bool // RTF_REJECT; the linger decides whether it holds
	expire time.Time
	mtu    int
	via    bool // a gateway route: the next hop is gw
	gw     any
	grt    *route.Entry // gw's held neighbor route, when it was current
	mac    inet.LinkAddr
	ok     bool // mac is the next hop's address
}

// readHop reads rt under one shared table lock: the route itself and,
// for a gateway route, the neighbor route it holds for its gateway,
// taken through the table's lock-free hit path.  A held route that is
// no longer current leaves grt nil for send to look up.
func (l *Layer[A]) readHop(rt *route.Entry) (h nextHop) {
	l.routes.View(func() {
		h.reject, h.expire, h.mtu = rt.Flags&route.FlagReject != 0, rt.Expire, rt.MTU
		if rt.Flags&route.FlagGateway == 0 {
			h.mac, h.ok = linkAddr(rt)
			return
		}
		h.via, h.gw = true, rt.Gateway
		if h.grt = heldGatewayRoute(l.routes, rt, h.gw); h.grt != nil {
			h.mac, h.ok = linkAddr(h.grt)
		}
	})
	return h
}

// linkDst is the link-layer address a packet to dst out of ifp takes
// with no neighbor: none at all for a tunnel device, whose output
// re-enters the outer IP layer, or the one a multicast or broadcast
// destination maps to.
func (l *Layer[A]) linkDst(ifp *netif.Interface, dst A) (inet.LinkAddr, bool) {
	if ifp.Flags()&netif.FlagTunnel != 0 {
		return inet.LinkAddr{}, true
	}
	return l.fam.LinkDst(dst)
}

// Transmit sends a packet carrying its IP header out of ifp.  A tunnel
// device needs no link-layer address, and a multicast or broadcast
// destination maps to one.  Otherwise the next hop is dst, or the
// gateway of a gateway route, whose neighbor route rt holds, and the
// neighbor cache resolves it: to a reachable neighbor, through a held
// gateway route or not, that is one shared read of the table.
// Transmit consumes pkt on every path: the device or a hold queue
// takes it, or it is freed here.
func (l *Layer[A]) Transmit(ifp *netif.Interface, rt *route.Entry, dst A, pkt *mbuf.Mbuf) error {
	if mac, ok := l.linkDst(ifp, dst); ok {
		return output(ifp, mac, l.fam.EtherType, pkt)
	}
	if rt == nil {
		return l.NoRoute(pkt, l.fam.ErrNoRoute)
	}
	h := l.readHop(rt)
	return l.send(ifp, rt, dst, pkt, &h)
}

// send finishes Transmit once rt has been read into h: out at once
// when the next hop was resolved, else through the neighbor cache's
// slow path, after looking up a gateway route the read did not find
// held.
func (l *Layer[A]) send(ifp *netif.Interface, rt *route.Entry, dst A, pkt *mbuf.Mbuf, h *nextHop) error {
	if h.ok {
		return output(ifp, h.mac, l.fam.EtherType, pkt)
	}
	nextHop := dst
	if h.via {
		g, isA := h.gw.(A)
		if !isA {
			pkt.Free()
			return l.fam.ErrNoRoute
		}
		grt := h.grt
		if grt == nil {
			var ok bool
			if grt, ok = gatewayRoute(l.routes, rt, h.gw); !ok {
				return l.NoRoute(pkt, l.fam.ErrNoRoute)
			}
		}
		rt, nextHop = grt, g
	}
	mac, ok := l.resolve(ifp, rt, nextHop, pkt)
	if !ok {
		return nil
	}
	return output(ifp, mac, l.fam.EtherType, pkt)
}

// gatewayRoute is Table.GatewayRoute for the address held in gw,
// sliced in place rather than copied to the heap.
func gatewayRoute(t *route.Table, rt *route.Entry, gw any) (*route.Entry, bool) {
	switch g := gw.(type) {
	case inet.IP4:
		return t.GatewayRoute(rt, g[:])
	case inet.IP6:
		return t.GatewayRoute(rt, g[:])
	}
	return nil, false
}

// heldGatewayRoute is Table.HeldGatewayRoute for the address held in
// gw; nil when none is held for it or the held one is not current.
func heldGatewayRoute(t *route.Table, rt *route.Entry, gw any) *route.Entry {
	switch g := gw.(type) {
	case inet.IP4:
		return t.HeldGatewayRoute(rt, g[:])
	case inet.IP6:
		return t.HeldGatewayRoute(rt, g[:])
	}
	return nil
}

// Fragment cuts pkt's bytes into fragments of chunk bytes, a multiple
// of 8, the last one shorter.  Each fragment gets its own pooled buffer,
// marked MFrag, since pkt is freed on return; send writes the
// fragment's headers (off is its offset in pkt, more whether more
// follow) and sends it.  The first send error ends the loop.
func (l *Layer[A]) Fragment(pkt *mbuf.Mbuf, chunk int, send func(fm *mbuf.Mbuf, off int, more bool) error) error {
	defer pkt.Free()
	if chunk <= 0 {
		return l.fam.ErrMsgSize
	}
	payload := pkt.Bytes()
	for off := 0; off < len(payload); off += chunk {
		end := min(off+chunk, len(payload))
		fm := mbuf.Get(end - off)
		copy(fm.Bytes(), payload[off:end])
		fm.Hdr().Flags |= mbuf.MFrag
		if err := send(fm, off, end < len(payload)); err != nil {
			return err
		}
	}
	return nil
}
