package ipv4

import (
	"errors"
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

// Stats counts IPv4 protocol events (netstat's ipstat).
type Stats struct {
	InReceives    stat.Counter
	InHdrErrors   stat.Counter
	InAddrErrors  stat.Counter
	InUnknownProt stat.Counter
	InDelivers    stat.Counter
	ReasmOverflow stat.Counter // datagrams evicted by a reassembly quota
	Forwarded     stat.Counter
	FwdCacheHits  stat.Counter // forwards resolved from the held-route shards
	OutRequests   stat.Counter
	OutNoRoute    stat.Counter
	OutDrops      stat.Counter
	FragsCreated  stat.Counter
	FragsReceived stat.Counter
	Reassembled   stat.Counter
	ReasmFails    stat.Counter
	ArpRequests   stat.Counter
	ArpReplies    stat.Counter
	ArpBad        stat.Counter
}

// Output errors.
var (
	ErrNoRoute = errors.New("ipv4: no route to host")
	ErrMsgSize = errors.New("ipv4: message too long (DF set)")
	ErrReject  = errors.New("ipv4: host is unreachable (rejected)")
)

// icmpQuote is how much of an offending packet, beyond its IP header,
// an ICMP error quotes.  RFC 792's 8 bytes are enough to identify a
// transport flow but not to translate errors about encapsulated
// packets: a tunnel head turning an outer frag-needed into an inner
// Packet Too Big needs the full inner IP header (and ideally its
// transport ports) from the quote.  RFC 1812 §4.3.2.3 allows quoting
// as much as fits in 576 bytes; 128 covers outer + inner + transport.
const icmpQuote = 128

type fragKey struct {
	src, dst inet.IP4
	id       uint16
	proto    uint8
}

// OutputOpts carries the per-packet options of ip_output.
type OutputOpts struct {
	TTL uint8 // 0 means the layer default
	TOS uint8
	DF  bool
	// RouteCache, when non-nil, is the caller's held route (BSD's
	// ro->ro_rt): Output validates it with one generation compare and
	// refills it on miss, skipping the radix walk for repeat sends.
	RouteCache *route.Cache
}

// Layer is the IPv4 protocol instance of one stack.
type Layer struct {
	mu     sync.RWMutex
	routes *route.Table
	ifaces map[string]*netif.Interface
	lo     *netif.Interface
	protos map[uint8]proto.TransportInput
	ctls   map[uint8]proto.CtlInput
	frags  *reasm.Queue[fragKey]
	fwd    route.ShardedCache        // forwarding fast path's held routes
	local  atomic.Pointer[localSet4] // cached unicast-destination set
	ident  uint16
	icmp   *ICMP

	// Forwarding enables router behavior.
	Forwarding bool
	// DefaultTTL is used when OutputOpts.TTL is zero.
	DefaultTTL uint8

	// Drops is the stack-wide drop observability sink; nil counts
	// nothing.
	Drops *stat.Recorder

	Stats Stats
}

// Reassembly quota defaults, mirroring the IPv6 layer's: a global
// datagram ceiling and a per-source share of it.
const (
	DefaultReasmMaxDatagrams = 256
	DefaultReasmMaxPerSource = 16
)

// NewLayer creates an IPv4 layer over the given routing table.
func NewLayer(rt *route.Table) *Layer {
	l := &Layer{
		routes:     rt,
		ifaces:     make(map[string]*netif.Interface),
		protos:     make(map[uint8]proto.TransportInput),
		ctls:       make(map[uint8]proto.CtlInput),
		frags:      reasm.NewQueue[fragKey](30 * time.Second),
		DefaultTTL: 64,
	}
	l.frags.MaxDatagrams = DefaultReasmMaxDatagrams
	l.frags.MaxPerSource = DefaultReasmMaxPerSource
	l.frags.SourceOf = func(k fragKey) any { return k.src }
	l.frags.OnEvict = func(k fragKey, _ *reasm.Buffer) {
		l.Stats.ReasmOverflow.Inc()
		l.Stats.ReasmFails.Inc()
		l.Drops.DropNote(stat.RV4ReasmOverflow, k.src.String()+">"+k.dst.String())
	}
	return l
}

// SetReasmLimits tunes the reassembly quotas (0 leaves a value
// unchanged; negative disables that quota).
func (l *Layer) SetReasmLimits(maxDatagrams, maxPerSource int) {
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
func (l *Layer) ReasmLimits() (maxDatagrams, maxPerSource int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.frags.MaxDatagrams, l.frags.MaxPerSource
}

// FragQueueLen returns the number of in-progress reassemblies.
func (l *Layer) FragQueueLen() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.frags.Len()
}

// AddInterface registers an interface with the layer. The first
// loopback registered becomes the local-delivery path.
func (l *Layer) AddInterface(ifp *netif.Interface) {
	l.mu.Lock()
	l.ifaces[ifp.Name] = ifp
	if ifp.Loopback() && l.lo == nil {
		l.lo = ifp
	}
	l.mu.Unlock()
	netif.BumpAddrGen()
}

// Interface returns a registered interface by name.
func (l *Layer) Interface(name string) *netif.Interface {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.ifaces[name]
}

// Register installs a transport protocol's input and control-input
// entries in the protocol switch.
func (l *Layer) Register(p uint8, in proto.TransportInput, ctl proto.CtlInput) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if in != nil {
		l.protos[p] = in
	}
	if ctl != nil {
		l.ctls[p] = ctl
	}
}

// Routes returns the routing table the layer uses.
func (l *Layer) Routes() *route.Table { return l.routes }

// entryFlags reads a route entry's flags under the table lock.
func (l *Layer) entryFlags(rt *route.Entry) int {
	var f int
	l.routes.View(func() { f = rt.Flags })
	return f
}

// entryMTU reads a route entry's MTU under the table lock.
func (l *Layer) entryMTU(rt *route.Entry) int {
	var m int
	l.routes.View(func() { m = rt.MTU })
	return m
}

func (l *Layer) nextID() uint16 {
	l.mu.Lock()
	l.ident++
	id := l.ident
	l.mu.Unlock()
	return id
}

// isLocal reports whether dst is one of this node's addresses.
func (l *Layer) isLocal(dst inet.IP4) bool {
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

// localSet4 mirrors the IPv6 layer's generation-stamped address set:
// one atomic load and a map probe per packet instead of walking every
// interface's address list under its lock.
type localSet4 struct {
	gen uint64
	set map[inet.IP4]struct{}
}

func (l *Layer) rebuildLocal(gen uint64) *localSet4 {
	set := make(map[inet.IP4]struct{})
	l.mu.RLock()
	for _, ifp := range l.ifaces {
		for _, a := range ifp.Addrs4() {
			set[a.Addr] = struct{}{}
		}
	}
	l.mu.RUnlock()
	c := &localSet4{gen: gen, set: set}
	l.local.Store(c)
	return c
}

// SourceFor picks the source address the stack would use toward dst.
func (l *Layer) SourceFor(dst inet.IP4) (inet.IP4, bool) {
	if l.isLocal(dst) {
		return dst, false // let Output pick; signal local
	}
	rt, ok := l.routes.Lookup(inet.AFInet, dst[:])
	if !ok {
		return inet.IP4{}, false
	}
	l.mu.Lock()
	ifp := l.ifaces[rt.IfName]
	l.mu.Unlock()
	if ifp == nil {
		return inet.IP4{}, false
	}
	return srcAddrOn(ifp)
}

// Output implements ip_output: build the header, route, fragment as
// needed, resolve the link-layer address, and transmit.
func (l *Layer) Output(pkt *mbuf.Mbuf, src, dst inet.IP4, p uint8, opts OutputOpts) error {
	l.Stats.OutRequests.Inc()
	ttl := opts.TTL
	if ttl == 0 {
		ttl = l.DefaultTTL
	}

	// Local destinations loop through the loopback interface, as BSD
	// routes them via lo0.
	if l.isLocal(dst) {
		if src.IsUnspecified() {
			src = dst
		}
		h := Header{TotalLen: HeaderLen + pkt.Len(), ID: l.nextID(), TTL: ttl, TOS: opts.TOS, Proto: p, Src: src, Dst: dst}
		h.Marshal(pkt.PrependN(HeaderLen)[:0])
		return l.loop(pkt)
	}

	rt, ok := l.routes.LookupCached(inet.AFInet, dst[:], opts.RouteCache)
	if !ok {
		l.Stats.OutNoRoute.Inc()
		pkt.Free()
		return ErrNoRoute
	}
	if l.entryFlags(rt)&route.FlagReject != 0 {
		l.Stats.OutNoRoute.Inc()
		pkt.Free()
		return ErrReject
	}
	l.mu.Lock()
	ifp := l.ifaces[rt.IfName]
	l.mu.Unlock()
	if ifp == nil {
		l.Stats.OutNoRoute.Inc()
		pkt.Free()
		return ErrNoRoute
	}
	if src.IsUnspecified() {
		s, ok := srcAddrOn(ifp)
		if !ok {
			pkt.Free()
			return ErrNoRoute
		}
		src = s
	}
	mtu := ifp.MTU()
	if rtMTU := l.entryMTU(rt); rtMTU != 0 && rtMTU < mtu {
		mtu = rtMTU
	}

	h := Header{TotalLen: HeaderLen + pkt.Len(), ID: l.nextID(), TTL: ttl, TOS: opts.TOS, DF: opts.DF, Proto: p, Src: src, Dst: dst}
	if h.TotalLen > mtu {
		if opts.DF {
			pkt.Free()
			return ErrMsgSize
		}
		return l.fragment(ifp, rt, &h, pkt, mtu)
	}
	h.Marshal(pkt.PrependN(HeaderLen)[:0])
	return l.transmit(ifp, rt, dst, pkt)
}

// loop delivers a fully-formed packet to ourselves via loopback.
// Like transmit, it consumes pkt even on error.
func (l *Layer) loop(pkt *mbuf.Mbuf) error {
	l.mu.Lock()
	lo := l.lo
	l.mu.Unlock()
	if lo == nil {
		pkt.Free()
		return ErrNoRoute
	}
	if err := lo.Output(inet.LinkAddr{}, netif.EtherTypeIPv4, pkt); err != nil {
		pkt.Free()
		return err
	}
	return nil
}

// transmit resolves the link-layer next hop and hands the frame to the
// interface. pkt already carries its IP header.  It consumes pkt on
// every path — success hands ownership to the device or the ARP hold
// queue, failure frees it here.
func (l *Layer) transmit(ifp *netif.Interface, rt *route.Entry, dst inet.IP4, pkt *mbuf.Mbuf) error {
	out := func(mac inet.LinkAddr) error {
		if err := ifp.Output(mac, netif.EtherTypeIPv4, pkt); err != nil {
			pkt.Free()
			return err
		}
		return nil
	}
	if ifp.Flags()&netif.FlagTunnel != 0 {
		// Point-to-point encapsulating device: no ARP — the device's
		// output closure wraps the packet and re-enters the outer IP
		// layer.
		return out(inet.LinkAddr{})
	}
	switch {
	case dst.IsMulticast():
		return out(inet.EthernetMulticast4(dst))
	case dst.IsBroadcast():
		return out(netif.Broadcast)
	}
	nextHop := dst
	var flags int
	var gwAny any
	l.routes.View(func() { flags, gwAny = rt.Flags, rt.Gateway })
	if flags&route.FlagGateway != 0 {
		gw, ok := gwAny.(inet.IP4)
		if !ok {
			pkt.Free()
			return ErrNoRoute
		}
		nextHop = gw
		// The gateway itself must be on-link: its neighbor route is
		// held on rt.
		grt, ok := l.routes.GatewayRoute(rt, gw[:])
		if !ok {
			l.Stats.OutNoRoute.Inc()
			pkt.Free()
			return ErrNoRoute
		}
		rt = grt
	}
	mac, ok := l.arpResolve(ifp, rt, nextHop, pkt)
	if !ok {
		return nil // queued on the ARP entry (or dropped); not an error
	}
	return out(mac)
}

// fragment splits pkt (payload only; h not yet prepended) into
// MTU-sized fragments — the router/source fragmentation that IPv6
// abolished in favor of PMTU discovery (§2.2).
func (l *Layer) fragment(ifp *netif.Interface, rt *route.Entry, h *Header, pkt *mbuf.Mbuf, mtu int) error {
	chunk := (mtu - h.HdrLen()) &^ 7
	if chunk <= 0 {
		pkt.Free()
		return ErrMsgSize
	}
	payload := pkt.Bytes()
	for off := 0; off < len(payload); off += chunk {
		end := off + chunk
		if end > len(payload) {
			end = len(payload)
		}
		fh := *h
		fh.FragOff = off
		fh.MF = end < len(payload)
		fh.TotalLen = h.HdrLen() + (end - off)
		// Each fragment gets its own pooled buffer: the parent is
		// freed (and its slab recycled) right after this loop, so the
		// in-flight fragments must not alias its bytes.
		fm := mbuf.Get(end - off)
		copy(fm.Bytes(), payload[off:end])
		fm.Hdr().Flags |= mbuf.MFrag
		fh.Marshal(fm.PrependN(fh.HdrLen())[:0])
		l.Stats.FragsCreated.Inc()
		if err := l.transmit(ifp, rt, h.Dst, fm); err != nil {
			pkt.Free()
			return err
		}
	}
	pkt.Free()
	return nil
}

// Input is ipintr: called by the stack for each received IPv4 packet.
func (l *Layer) Input(ifp *netif.Interface, pkt *mbuf.Mbuf) {
	l.Stats.InReceives.Inc()
	b := pkt.PullUp(HeaderLen)
	if b == nil {
		l.Stats.InHdrErrors.Inc()
		l.Drops.DropPkt(stat.RV4BadHeader, pkt.Bytes())
		pkt.Free()
		return
	}
	hl := int(b[0]&0xf) * 4
	if b = pkt.PullUp(hl); b == nil {
		l.Stats.InHdrErrors.Inc()
		l.Drops.DropPkt(stat.RV4BadHeader, pkt.Bytes())
		pkt.Free()
		return
	}
	h, _, err := Parse(b)
	if err != nil {
		l.Stats.InHdrErrors.Inc()
		l.Drops.DropPkt(stat.RV4BadHeader, b)
		pkt.Free()
		return
	}
	if pkt.Len() < h.TotalLen {
		l.Stats.InHdrErrors.Inc()
		l.Drops.DropPkt(stat.RV4BadHeader, b)
		pkt.Free()
		return
	}
	// Trim link-layer padding.
	if pkt.Len() > h.TotalLen {
		pkt.Adj(h.TotalLen - pkt.Len())
	}

	if l.isLocal(h.Dst) || h.Dst.IsMulticast() || h.Dst.IsBroadcast() {
		l.deliverLocal(ifp, &h, pkt)
		return
	}
	if l.Forwarding {
		l.forward(&h, pkt)
		return
	}
	l.Stats.InAddrErrors.Inc()
	l.Drops.DropPkt(stat.RV4NotForUs, pkt.Bytes())
	pkt.Free()
}

// quote copies the leading bytes of a received packet, from its IP
// header on, that an ICMP error about it carries (and the flight
// recorder keeps).  Only error paths call it: a delivered or forwarded
// packet copies nothing.
func quote(h *Header, pkt *mbuf.Mbuf) []byte {
	return pkt.CopyRange(0, min(pkt.Len(), h.HdrLen()+icmpQuote))
}

// deliverLocal strips the IP header, reassembles fragments, and runs
// the protocol switch.
func (l *Layer) deliverLocal(ifp *netif.Interface, h *Header, pkt *mbuf.Mbuf) {
	if h.MF || h.FragOff != 0 {
		l.Stats.FragsReceived.Inc()
		// Keep the leading bytes for ICMP errors before consuming.
		errCtx := quote(h, pkt)
		pkt.Adj(h.HdrLen())
		key := fragKey{h.Src, h.Dst, h.ID, h.Proto}
		l.mu.Lock()
		data, done, err := l.frags.Add(key, l.routes.Now(), h.FragOff, h.MF, pkt.CopyBytes())
		if err == nil && !done && h.FragOff == 0 {
			// Keep the first fragment's leading bytes so a reassembly
			// timeout can send Time Exceeded code 1 (RFC 792).
			if buf := l.frags.Get(key); buf != nil && buf.Ctx == nil {
				buf.Ctx = errCtx
				buf.CtxIf = ifp.Name
			}
		}
		l.mu.Unlock()
		if err != nil {
			l.Stats.ReasmFails.Inc()
			l.Drops.DropPkt(stat.RV4ReasmFail, errCtx)
			pkt.Free()
			return
		}
		if !done {
			// CopyBytes put the fragment into the reassembly buffer;
			// this path is the packet's terminal consumer.
			pkt.Free()
			return
		}
		l.Stats.Reassembled.Inc()
		flags := pkt.Hdr().Flags
		pkt.Free() // rebuilt datagram owns fresh bytes
		pkt = mbuf.NewNoCopy(data)
		pkt.Hdr().Flags = flags &^ mbuf.MFrag
		pkt.Hdr().RcvIf = ifp.Name
		// The protocol switch below sees the datagram from its
		// transport header on; a failure there quotes the first
		// fragment's header, as the reassembled header is gone.
		l.dispatch(ifp, h, pkt, errCtx)
		return
	}
	l.dispatch(ifp, h, pkt, nil)
}

// dispatch runs the protocol switch.  errCtx is the quote an ICMP
// error about the packet carries, or nil when pkt still begins with
// its IP header, which is then stripped here.
func (l *Layer) dispatch(ifp *netif.Interface, h *Header, pkt *mbuf.Mbuf, errCtx []byte) {
	l.mu.RLock()
	in := l.protos[h.Proto]
	l.mu.RUnlock()
	if in == nil {
		if errCtx == nil {
			errCtx = quote(h, pkt)
		}
		l.Stats.InUnknownProt.Inc()
		l.Drops.DropPkt(stat.RV4UnknownProt, errCtx)
		if !h.Dst.IsMulticast() && !h.Dst.IsBroadcast() {
			l.SendError(IcmpUnreach, CodeProtoUnreach, 0, errCtx)
		}
		pkt.Free()
		return
	}
	if errCtx == nil {
		pkt.Adj(h.HdrLen())
	}
	l.Stats.InDelivers.Inc()
	in(pkt, proto.Meta{
		Family: inet.AFInet,
		Src4:   h.Src, Dst4: h.Dst,
		Proto: h.Proto, Hops: h.TTL, RcvIf: ifp.Name,
	})
}

// forward implements the router path: TTL decrement, re-checksum,
// fragmentation if needed (IPv4 routers fragment; §2.1 counts this
// among the work IPv6 routers shed).
func (l *Layer) forward(h *Header, pkt *mbuf.Mbuf) {
	if h.TTL <= 1 {
		errCtx := quote(h, pkt)
		l.Drops.DropPkt(stat.RV4TTLExceeded, errCtx)
		l.SendError(IcmpTimeExceeded, 0, 0, errCtx)
		pkt.Free()
		return
	}
	// Transit routing through the held-route shards, as in the IPv6
	// forward path: hit = one generation compare, miss = radix walk
	// plus refill.
	rc := l.fwd.For(h.Dst[:])
	rt, ok := l.routes.CacheGet(rc, inet.AFInet, h.Dst[:])
	if ok {
		l.Stats.FwdCacheHits.Inc()
	} else if rt, ok = l.routes.Lookup(inet.AFInet, h.Dst[:]); ok {
		l.routes.CacheFill(rc, inet.AFInet, h.Dst[:], rt)
	}
	if !ok || l.entryFlags(rt)&route.FlagReject != 0 {
		errCtx := quote(h, pkt)
		l.Stats.OutNoRoute.Inc()
		l.Drops.DropPkt(stat.RV4NoRoute, errCtx)
		l.SendError(IcmpUnreach, CodeHostUnreach, 0, errCtx)
		pkt.Free()
		return
	}
	l.mu.Lock()
	ifp := l.ifaces[rt.IfName]
	l.mu.Unlock()
	if ifp == nil {
		l.Stats.OutNoRoute.Inc()
		l.Drops.DropPkt(stat.RV4NoRoute, quote(h, pkt))
		pkt.Free()
		return
	}
	h.TTL--
	l.Stats.Forwarded.Inc()

	mtu := ifp.MTU()
	if rtMTU := l.entryMTU(rt); rtMTU != 0 && rtMTU < mtu {
		mtu = rtMTU
	}
	if pkt.Len() > mtu { // pkt still carries the IP header here
		if h.DF {
			l.SendError(IcmpUnreach, CodeFragNeeded, mtu, quote(h, pkt))
			pkt.Free()
			return
		}
		pkt.Adj(h.HdrLen())
		if err := l.fragment(ifp, rt, h, pkt, mtu); err != nil {
			l.Stats.OutDrops.Inc()
		}
		return
	}
	// Common (non-fragmenting) case: only the TTL changed, so rewrite
	// it in the received header bytes and update the checksum
	// incrementally (RFC 1624) instead of stripping and re-marshalling
	// the header — the input path already verified the old sum.
	hb := pkt.PullUp(h.HdrLen())
	oldWord := uint16(hb[8])<<8 | uint16(hb[9]) // TTL, protocol share a column
	hb[8] = h.TTL
	ck := uint16(hb[10])<<8 | uint16(hb[11])
	ck = inet.UpdateChecksum16(ck, oldWord, uint16(hb[8])<<8|uint16(hb[9]))
	hb[10], hb[11] = byte(ck>>8), byte(ck)
	if err := l.transmit(ifp, rt, h.Dst, pkt); err != nil {
		l.Stats.OutDrops.Inc()
	}
}

// SlowTimo drives timeouts: reassembly expiry and ARP retries. The
// stack calls it every 500ms, as BSD's pr_slowtimo runs. Expired
// reassemblies whose first fragment arrived elicit Time Exceeded code
// 1, as ip_freef's caller does in BSD.
func (l *Layer) SlowTimo(now time.Time) {
	var errs [][]byte
	l.mu.Lock()
	n := l.frags.ExpireFunc(now, func(k fragKey, b *reasm.Buffer) {
		l.Drops.DropNote(stat.RV4ReasmTimeout, k.src.String()+">"+k.dst.String())
		if b.HasFirst() && b.Ctx != nil {
			errs = append(errs, b.Ctx)
		}
	})
	l.Stats.ReasmFails.Add(uint64(n))
	l.mu.Unlock()
	for _, ctx := range errs {
		l.SendError(IcmpTimeExceeded, 1, 0, ctx)
	}
	l.arpTimer(now)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
