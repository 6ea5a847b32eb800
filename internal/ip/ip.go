// Package ip is the half of the BSD IP layer that does not depend on
// the protocol family: the interface registry, loopback and protocol
// switch, the local-address set, path MTU, the forwarding lookup,
// transmit, the output fragment loop, the reassembly quotas and the
// neighbor cache that ARP and Neighbor Discovery share.  ipv4.Layer
// and ipv6.Layer each embed a Layer and keep what differs by protocol:
// header codecs, options and extension headers, Output's header build,
// ICMP errors, the reassembly input arm, the ARP or ND wire codec and
// solicit, and what a router does with an oversized packet (§2.1-2.2).
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
	"bsd6/internal/reasm"
	"bsd6/internal/route"
	"bsd6/internal/stat"
)

// Addr is a family's address type.
type Addr interface {
	inet.IP4 | inet.IP6
	IsLoopback() bool
	String() string
}

// Family is what a protocol family gives the shared layer when it is
// built; nothing in it may be nil.
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

	// The family's counters and drop reasons the shared paths charge:
	// a packet to a neighbor that lingers rejected is NoRouteReason, one
	// over a full hold queue HoldFullReason.
	Stats                                   *Stats
	ReasmOverflowReason, ReasmTimeoutReason stat.Reason
	NoRouteReason, HoldFullReason           stat.Reason
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

// Reassembly quota defaults: a datagram ceiling (BSD's
// ip_maxfragpackets descendant) and a per-source share of it, so one
// spoofed source cannot own the whole queue.
const (
	DefaultReasmMaxDatagrams = 256
	DefaultReasmMaxPerSource = 16
)

// Layer is the family-independent state and paths of one IP layer.
type Layer[A Addr] struct {
	fam    Family[A]
	mu     sync.RWMutex
	routes *route.Table
	ifaces map[string]*netif.Interface
	lo     *netif.Interface
	protos map[uint8]proto.TransportInput
	ctls   map[uint8]proto.CtlInput
	frags  *reasm.Queue[FragKey[A]]
	ident  uint32
	local  atomic.Pointer[localSet[A]]
	fwd    route.ShardedCache // the forwarding path's held routes

	// Forwarding enables router behavior.
	Forwarding bool
	// Drops is the stack-wide drop sink (reason counters and flight
	// recorder) the stack assembly shares; nil counts nothing.
	Drops *stat.Recorder
}

// NewLayer builds the shared layer of family fam over the routing
// table.
func NewLayer[A Addr](rt *route.Table, fam Family[A]) *Layer[A] {
	l := &Layer[A]{
		fam:    fam,
		routes: rt,
		ifaces: make(map[string]*netif.Interface),
		protos: make(map[uint8]proto.TransportInput),
		ctls:   make(map[uint8]proto.CtlInput),
		frags:  reasm.NewQueue[FragKey[A]](30 * time.Second),
	}
	l.frags.MaxDatagrams = DefaultReasmMaxDatagrams
	l.frags.MaxPerSource = DefaultReasmMaxPerSource
	l.frags.SourceOf = func(k FragKey[A]) any { return k.Src }
	l.frags.OnEvict = func(k FragKey[A], _ *reasm.Buffer) {
		fam.Stats.ReasmOverflow.Inc()
		fam.Stats.ReasmFails.Inc()
		l.Drops.DropNote(fam.ReasmOverflowReason, k.Src.String()+">"+k.Dst.String())
	}
	return l
}

// AddInterface registers an interface; the first loopback registered
// becomes the local-delivery path.
func (l *Layer[A]) AddInterface(ifp *netif.Interface) {
	l.mu.Lock()
	l.ifaces[ifp.Name] = ifp
	if ifp.Loopback() && l.lo == nil {
		l.lo = ifp
	}
	l.mu.Unlock()
	netif.BumpAddrGen()
}

// Interface returns a registered interface by name.
func (l *Layer[A]) Interface(name string) *netif.Interface {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.ifaces[name]
}

// Interfaces returns all registered interfaces.
func (l *Layer[A]) Interfaces() []*netif.Interface {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make([]*netif.Interface, 0, len(l.ifaces))
	for _, ifp := range l.ifaces {
		out = append(out, ifp)
	}
	return out
}

// Loopback returns the local-delivery interface, or nil.
func (l *Layer[A]) Loopback() *netif.Interface {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.lo
}

// Register installs a transport protocol's input and control-input
// entries in the protocol switch.
func (l *Layer[A]) Register(p uint8, in proto.TransportInput, ctl proto.CtlInput) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if in != nil {
		l.protos[p] = in
	}
	if ctl != nil {
		l.ctls[p] = ctl
	}
}

// Proto returns a transport's input entry, or nil.
func (l *Layer[A]) Proto(p uint8) proto.TransportInput {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.protos[p]
}

// Ctl returns a transport's control-input entry, through which ICMP
// reports errors upward, or nil.
func (l *Layer[A]) Ctl(p uint8) proto.CtlInput {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.ctls[p]
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

// ForwardRoute is the router's lookup of dst, the destination's bytes:
// a repeat destination costs one generation compare on the held routes
// instead of a radix walk.  It returns nil, nil when no usable route
// exists (none, or one the reject rule refuses), and a nil interface
// when the route's interface is not registered.
func (l *Layer[A]) ForwardRoute(dst []byte) (*route.Entry, *netif.Interface) {
	rc := l.fwd.For(dst)
	rt, ok := l.routes.CacheGet(rc, l.fam.AF, dst)
	if ok {
		l.fam.Stats.FwdCacheHits.Inc()
	} else if rt, ok = l.routes.Lookup(l.fam.AF, dst); ok {
		l.routes.CacheFill(rc, l.fam.AF, dst, rt)
	}
	if !ok || l.Rejected(rt) {
		return nil, nil
	}
	return rt, l.Interface(rt.IfName)
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

// Transmit sends a packet carrying its IP header out of ifp.  A tunnel
// device needs no link-layer address: its output re-enters the outer
// IP layer.  A multicast or broadcast destination maps to one.
// Otherwise the next hop is dst, or the gateway of a gateway route,
// whose neighbor route rt holds, and the neighbor cache resolves it.
// Transmit consumes pkt on every path: the device or a hold queue
// takes it, or it is freed here.
func (l *Layer[A]) Transmit(ifp *netif.Interface, rt *route.Entry, dst A, pkt *mbuf.Mbuf) error {
	if ifp.Flags()&netif.FlagTunnel != 0 {
		return output(ifp, inet.LinkAddr{}, l.fam.EtherType, pkt)
	}
	if mac, ok := l.fam.LinkDst(dst); ok {
		return output(ifp, mac, l.fam.EtherType, pkt)
	}
	if rt == nil {
		return l.NoRoute(pkt, l.fam.ErrNoRoute)
	}
	var gw any
	var mac inet.LinkAddr
	via, ok := false, false
	l.routes.View(func() {
		if via = rt.Flags&route.FlagGateway != 0; via {
			gw = rt.Gateway
		} else {
			mac, ok = linkAddr(rt)
		}
	})
	if ok {
		return output(ifp, mac, l.fam.EtherType, pkt)
	}
	nextHop := dst
	if via {
		g, isA := gw.(A)
		if !isA {
			pkt.Free()
			return l.fam.ErrNoRoute
		}
		if rt, ok = gatewayRoute(l.routes, rt, gw); !ok {
			return l.NoRoute(pkt, l.fam.ErrNoRoute)
		}
		nextHop = g
	}
	if mac, ok = l.resolve(ifp, rt, nextHop, pkt); !ok {
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

// SetReasmLimits tunes the reassembly quotas (0 leaves a value
// unchanged; negative disables that quota).
func (l *Layer[A]) SetReasmLimits(maxDatagrams, maxPerSource int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if maxDatagrams != 0 {
		l.frags.MaxDatagrams = max(maxDatagrams, 0)
	}
	if maxPerSource != 0 {
		l.frags.MaxPerSource = max(maxPerSource, 0)
	}
}

// ReasmLimits reports the effective reassembly quotas.
func (l *Layer[A]) ReasmLimits() (maxDatagrams, maxPerSource int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.frags.MaxDatagrams, l.frags.MaxPerSource
}

// FragQueueLen returns the number of in-progress reassemblies.
func (l *Layer[A]) FragQueueLen() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.frags.Len()
}

// Reassemble adds the data of a fragment at byte offset off to its
// datagram, and returns the datagram once complete.  The first
// fragment of a datagram still incomplete keeps quote() and rcvIf for
// the Time Exceeded error a reassembly timeout sends.
func (l *Layer[A]) Reassemble(k FragKey[A], off int, more bool, data []byte, quote func() []byte, rcvIf string) ([]byte, bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	whole, done, err := l.frags.Add(k, l.routes.Now(), off, more, data)
	if err == nil && !done && off == 0 {
		if buf := l.frags.Get(k); buf != nil && buf.Ctx == nil {
			buf.Ctx, buf.CtxIf = quote(), rcvIf
		}
	}
	return whole, done, err
}

// ExpireReasm drops the reassemblies timed out by now and returns
// those whose first fragment arrived, which a Time Exceeded error
// quotes.
func (l *Layer[A]) ExpireReasm(now time.Time) []*reasm.Buffer {
	var quoted []*reasm.Buffer
	l.mu.Lock()
	n := l.frags.ExpireFunc(now, func(k FragKey[A], b *reasm.Buffer) {
		l.Drops.DropNote(l.fam.ReasmTimeoutReason, k.Src.String()+">"+k.Dst.String())
		if b.HasFirst() && b.Ctx != nil {
			quoted = append(quoted, b)
		}
	})
	l.mu.Unlock()
	l.fam.Stats.ReasmFails.Add(uint64(n))
	return quoted
}
