package ipv6

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"bsd6/internal/inet"
	"bsd6/internal/ip"
	"bsd6/internal/key"
	"bsd6/internal/mbuf"
	"bsd6/internal/netif"
	"bsd6/internal/proto"
	"bsd6/internal/route"
	"bsd6/internal/stat"
)

// Stats counts IPv6 protocol events.
type Stats struct {
	ip.Stats
	InTruncated  stat.Counter
	InOptErrors  stat.Counter
	OutFrags     stat.Counter
	RouteHdrSeen stat.Counter
	FastPathHits stat.Counter
	PreparseRuns stat.Counter
}

// Output errors.
var (
	ErrNoRoute = errors.New("ipv6: no route to host")
	ErrReject  = errors.New("ipv6: host is unreachable (rejected)")
	ErrMsgSize = errors.New("ipv6: message too long")
	ErrNoSrc   = errors.New("ipv6: no usable source address")
)

// ICMPv6 error types the layer originates through ip.Layer.Error.
const (
	ErrDstUnreach   = 1 // type 1: no route (code 0), addr unreachable (code 3)
	ErrPacketTooBig = 2 // type 2: forwarding hit a smaller link MTU
	ErrTimeExceeded = 3 // type 3: hop limit exhausted
	ErrParamProblem = 4 // type 4: bad header field / unknown option or header
)

// Parameter-problem codes (type 4).
const (
	ParamErrHeader   = 0 // erroneous header field
	ParamUnknownNH   = 1 // unrecognized next-header type
	ParamUnknownOpt  = 2 // unrecognized option
	ParamHeaderChain = 3 // first fragment lacks the header chain (RFC 7112)
)

// Neighbor Discovery's timing and reject linger (§4.3), which the
// shared neighbor cache runs IPv6 neighbors with.
const (
	NDRetrans      = time.Second
	NDMaxMulticast = 3 // multicast solicits before giving up
	NDMaxUnicast   = 3 // unicast probes before declaring unreachable
	NDReachable    = 30 * time.Second
	NDRejectLinger = 20 * time.Second
)

// Security hook results (§3.4 input processing).
type SecAction int

const (
	SecDrop     SecAction = iota // packet failed security processing
	SecContinue                  // AH verified: continue the header walk
	SecReinject                  // packet rewritten (ESP): reprocess it
)

// SecInputFunc processes an AH or ESP header found at off.  hdr is the
// packet's base header, passed by value so the call allocates nothing.
// It never frees pkt.  For SecReinject it has rewritten pkt in place
// into the datagram to reprocess: the decrypted transport content
// under a rebuilt base header, or the tunneled inner datagram.
type SecInputFunc func(pkt *mbuf.Mbuf, hdr Header, p uint8, off int) SecAction

// SecOutputFunc is the ipsec_output_policy() call (§3.3), invoked by
// Output "immediately before IP fragmentation is performed". hdr has
// final source and destination; payload is the fragmentable part
// beginning with first-next-header nh.  hdr is passed by value: the
// hook gets its own copy and nothing it does to that copy reaches the
// layer, so the header stays on the caller's stack.
//
// The hook consumes payload on every path, as Output consumes its
// packet.  On success it returns the packet to send in its place,
// which is payload itself when a transform wrapped it in place, its
// first next-header, and the destination the outer header must carry:
// hdr.Dst, or a security gateway in tunnel mode, in which case the
// layer re-routes toward it.  On error (EIPSEC) it has freed payload.
// sc, when non-nil, is the caller's held security verdict (a PCB's
// key.Cache): the hook validates it with one generation compare and
// refills it after a full resolution, so steady-state sends skip the
// SA table.
type SecOutputFunc func(hdr Header, payload *mbuf.Mbuf, nh uint8, socket any, sc *key.Cache) (*mbuf.Mbuf, uint8, inet.IP6, error)

// OutputOpts carries per-packet options for Output.
type OutputOpts struct {
	HopLimit uint8  // 0 means layer default
	FlowInfo uint32 // priority + flow label
	// Extension headers to attach.
	HopOpts      []Option   // hop-by-hop options
	DstOptsList  []Option   // destination options
	RoutingAddrs []inet.IP6 // type-0 source route
	// RoutingStrict is the strict/loose bit map for RoutingAddrs: bit
	// i set means hop i must be an on-link neighbor (§4.1).
	RoutingStrict uint32
	// NoFrag makes over-MTU sends fail with ErrMsgSize instead of
	// fragmenting (TCP segments to the PMTU instead).
	NoFrag bool
	// Socket is the back pointer the security output policy examines
	// (the NRL addition to the packet header, §3.3).
	Socket any
	// IfName forces the outgoing interface (link-local / multicast
	// destinations that carry no route).
	IfName string
	// NoSecurity bypasses the security output hook. Reserved for key
	// management traffic (§6.3 describes the planned privileged
	// bypass); normal sockets cannot set it.
	NoSecurity bool
	// UnspecSource sends from the unspecified address instead of
	// selecting a source (duplicate address detection probes).
	UnspecSource bool
	// RouteCache, when non-nil, is the caller's held route (BSD's
	// ro->ro_rt): Output validates it with one generation compare
	// before falling back to ensureHostRoute's lookup-and-clone.
	RouteCache *route.Cache
	// SecCache, when non-nil, is the caller's held security verdict
	// (a PCB's key.Cache, same discipline as RouteCache): the security
	// output hook resolves policy and associations through it instead
	// of scanning the SA table per packet.
	SecCache *key.Cache
}

// base is the family-independent half of the layer.
type base = ip.Layer[inet.IP6]

// Layer is the IPv6 protocol instance of one stack.
type Layer struct {
	*base
	gmu    sync.RWMutex
	groups map[string]map[inet.IP6]int // multicast memberships per iface

	// DefaultHopLimit is used when OutputOpts.HopLimit is 0.
	DefaultHopLimit uint8

	// Solicit sends a Neighbor Solicit for target: to its
	// solicited-node group while resolving, unicast to probe a stale
	// neighbor.  icmp6 registers it; the shared neighbor cache calls it.
	Solicit func(ifp *netif.Interface, target inet.IP6, unicast bool)
	// SecIn / SecOut are the IP security hooks, registered by ipsec.
	SecIn  SecInputFunc
	SecOut SecOutputFunc
	// OnGroupChange observes multicast join/leave so ICMPv6 can send
	// group membership messages (§4.1).
	OnGroupChange func(ifName string, group inet.IP6, joined bool)

	Stats Stats
}

// NewLayer creates an IPv6 layer over the routing table.
func NewLayer(rt *route.Table) *Layer {
	l := &Layer{
		groups:          make(map[string]map[inet.IP6]int),
		DefaultHopLimit: 64,
	}
	l.base = ip.NewLayer(rt, ip.Family[inet.IP6]{
		AF:         inet.AFInet6,
		EtherType:  netif.EtherTypeIPv6,
		ErrNoRoute: ErrNoRoute,
		ErrMsgSize: ErrMsgSize,
		LocalAddrs: func(ifp *netif.Interface, add func(inet.IP6)) {
			for _, a := range ifp.Addrs6() {
				if !a.Duplicated {
					add(a.Addr)
				}
			}
		},
		LinkDst: func(dst inet.IP6) (inet.LinkAddr, bool) {
			if !dst.IsMulticast() {
				return inet.LinkAddr{}, false
			}
			return inet.EthernetMulticast(dst), true
		},
		Solicit: func(ifp *netif.Interface, target inet.IP6, unicast bool) {
			if l.Solicit != nil {
				l.Solicit(ifp, target, unicast)
			}
		},
		Neighbor: ip.NeighborTiming{
			Retrans:      NDRetrans,
			RejectWait:   NDRetrans,
			MaxMulticast: NDMaxMulticast,
			MaxUnicast:   NDMaxUnicast,
			Reachable:    NDReachable,
			RejectLinger: NDRejectLinger,
		},
		AbandonOverlap:      true,
		MaxDatagram:         HeaderLen + 65535 + FragHeaderLen,
		Stats:               &l.Stats.Stats,
		ReasmFailReason:     stat.RV6ReasmFail,
		ReasmOverlapReason:  stat.RV6ReasmOverlap,
		ReasmOverflowReason: stat.RV6ReasmOverflow,
		ReasmTimeoutReason:  stat.RV6ReasmTimeout,
		NoRouteReason:       stat.RV6NoRoute,
		HoldFullReason:      stat.RNDQueueFull,
		ResolveFailReason:   stat.RNDResolveFailed,
		ICMP: ip.ICMPFamily[inet.IP6]{
			Offender: offender,
			MaxQuote: MinMTU - HeaderLen - 8,
			GroupExempt: func(typ, code uint8) bool {
				return typ == ErrPacketTooBig || typ == ErrParamProblem && code == ParamUnknownOpt
			},
			Send: func(typ, code uint8, word uint32, data []byte, dst inet.IP6, rcvIf string) {
				l.SendICMP(typ, code, word, data, inet.IP6{}, dst, OutputOpts{IfName: rcvIf})
			},
			RateLimitedReason: stat.RICMP6RateLimited,
		},
	})
	return l
}

// AddInterface registers an interface. The first loopback becomes the
// local-delivery path. Non-loopback interfaces join the all-nodes
// link-layer multicast group — every IPv6 node is implicitly a member
// (§4.2.2: routers advertise to the all-nodes multicast address).
func (l *Layer) AddInterface(ifp *netif.Interface) {
	l.base.AddInterface(ifp)
	if !ifp.Loopback() {
		ifp.JoinGroup(inet.EthernetMulticast(inet.AllNodes))
	}
}

//
// Multicast group membership.
//

// JoinGroup joins an IPv6 multicast group on an interface, programming
// the link-layer filter and notifying the group-membership protocol.
func (l *Layer) JoinGroup(ifName string, group inet.IP6) error {
	ifp := l.Interface(ifName)
	if ifp == nil {
		return fmt.Errorf("ipv6: no interface %q", ifName)
	}
	l.gmu.Lock()
	g := l.groups[ifName]
	if g == nil {
		g = make(map[inet.IP6]int)
		l.groups[ifName] = g
	}
	g[group]++
	first := g[group] == 1
	cb := l.OnGroupChange
	l.gmu.Unlock()
	if first {
		ifp.JoinGroup(inet.EthernetMulticast(group))
		if cb != nil {
			cb(ifName, group, true)
		}
	}
	return nil
}

// LeaveGroup drops one membership reference.
func (l *Layer) LeaveGroup(ifName string, group inet.IP6) {
	ifp := l.Interface(ifName)
	l.gmu.Lock()
	g := l.groups[ifName]
	last := false
	if g != nil && g[group] > 0 {
		g[group]--
		if g[group] == 0 {
			delete(g, group)
			last = true
		}
	}
	cb := l.OnGroupChange
	l.gmu.Unlock()
	if last && ifp != nil {
		ifp.LeaveGroup(inet.EthernetMulticast(group))
		if cb != nil {
			cb(ifName, group, false)
		}
	}
}

// InGroup reports whether the node is a member of group on the
// interface (all-nodes is an implicit membership).
func (l *Layer) InGroup(ifName string, group inet.IP6) bool {
	if group == inet.AllNodes {
		return true
	}
	l.gmu.RLock()
	defer l.gmu.RUnlock()
	if g := l.groups[ifName]; g != nil {
		return g[group] > 0
	}
	return false
}

// Groups lists the groups joined on an interface.
func (l *Layer) Groups(ifName string) []inet.IP6 {
	l.gmu.RLock()
	defer l.gmu.RUnlock()
	var out []inet.IP6
	for g := range l.groups[ifName] {
		out = append(out, g)
	}
	return out
}

// SourceFor selects a source address for reaching dst, implementing
// scope matching: link-local destinations get link-local sources,
// global destinations prefer non-deprecated addresses sharing the
// longest prefix (address lifetimes steer traffic away from
// deprecated prefixes during renumbering, §4.2.2).
func (l *Layer) SourceFor(dst inet.IP6, ifp *netif.Interface) (inet.IP6, bool) {
	now := l.Routes().Now()
	wantLinkLocal := dst.IsLinkLocal() || dst.IsLinkLocalMulticast()
	var best inet.IP6
	bestScore := -1
	consider := func(cand netif.Addr6) {
		if !cand.Usable(now) || cand.Addr.IsLinkLocal() != wantLinkLocal {
			return
		}
		score := 0
		for i := 0; i < 128; i++ {
			if !inet.MatchPrefix(cand.Addr, dst, i+1) {
				break
			}
			score = i + 1
		}
		score *= 2
		if !cand.Deprecated(now) {
			score++ // prefer preferred addresses at equal prefix match
		}
		if score > bestScore {
			bestScore, best = score, cand.Addr
		}
	}
	if ifp != nil {
		ifp.EachAddr6(consider)
	} else {
		l.EachInterface(func(i *netif.Interface) { i.EachAddr6(consider) })
	}
	if bestScore < 0 {
		return inet.IP6{}, false
	}
	return best, true
}

// ensureHostRoute returns a host route for dst so there is a place to
// store the path MTU: "Host routes are automatically created for IP
// communications originating on the local machine" (§2.2).
func (l *Layer) ensureHostRoute(dst inet.IP6) (*route.Entry, bool) {
	routes := l.Routes()
	rt, ok := routes.Lookup(inet.AFInet6, dst[:])
	if !ok {
		return nil, false
	}
	var host bool
	var gw any
	var flags, mtu int
	routes.View(func() {
		host = rt.Host()
		gw, flags, mtu = rt.Gateway, rt.Flags, rt.MTU
	})
	if host {
		return rt, true
	}
	clone := &route.Entry{
		Family:  inet.AFInet6,
		Dst:     append([]byte(nil), dst[:]...),
		Plen:    128,
		Gateway: gw,
		Flags:   route.FlagUp | route.FlagHost | route.FlagDynamic | (flags & (route.FlagGateway | route.FlagLLInfo)),
		IfName:  rt.IfName,
		MTU:     mtu,
	}
	routes.Add(clone)
	return clone, true
}

//
// Output path (ipv6_output).
//

// extChain is the marshalled extension headers plus patch bookkeeping.
type extChain struct {
	unfrag      []byte // hop-by-hop + routing: stays with every fragment
	unfragPatch int    // offset in unfrag of the next-header byte to patch, -1 if none
	firstNH     uint8  // next-header value for the base header
	unfragNH    uint8  // next-header the unfrag part currently points to
}

// buildExt assembles the extension chain for opts, with payloadNH the
// protocol of the payload. Destination options join the fragmentable
// part and are returned separately (prepended to the payload).
func buildExt(opts *OutputOpts, payloadNH uint8) (extChain, []byte, uint8) {
	c := extChain{firstNH: payloadNH, unfragPatch: -1, unfragNH: payloadNH}
	fragNH := payloadNH
	var fragPart []byte
	if len(opts.DstOptsList) > 0 {
		fragPart = MarshalOptions(payloadNH, opts.DstOptsList)
		fragNH = proto.DstOpts
	}
	// Unfragmentable, built outside-in: hop-by-hop then routing.
	next := fragNH
	var routing []byte
	if len(opts.RoutingAddrs) > 0 {
		rh := &RoutingHeader{NextHdr: next, SegLeft: len(opts.RoutingAddrs), Addrs: opts.RoutingAddrs, StrictBits: opts.RoutingStrict}
		routing = rh.Marshal(nil)
		next = proto.Routing
	}
	var hbh []byte
	if len(opts.HopOpts) > 0 {
		hbh = MarshalOptions(next, opts.HopOpts)
		next = proto.HopByHop
	}
	c.unfrag = append(hbh, routing...)
	c.firstNH = next
	if len(c.unfrag) > 0 {
		// The next-header byte of the *last* unfrag header points at
		// the fragmentable part; remember it for fragment patching.
		if len(routing) > 0 {
			c.unfragPatch = len(hbh)
		} else {
			c.unfragPatch = 0
		}
		c.unfragNH = fragNH
	}
	return c, fragPart, fragNH
}

// Output sends an upper-layer packet: select source, find (or create)
// the host route, attach extension headers, run the security output
// policy, fragment end-to-end if needed, resolve the neighbor, and
// transmit (§2.2, §3.3).
//
// Output always consumes pkt, like BSD's ip_output: on success
// ownership passes to the wire (or the neighbor queue), and every
// error path frees it before returning.  Callers must not touch pkt
// after calling Output, and must not free it on error.
func (l *Layer) Output(pkt *mbuf.Mbuf, src, dst inet.IP6, nh uint8, opts OutputOpts) error {
	l.Stats.OutRequests.Inc()
	hops := opts.HopLimit
	if hops == 0 {
		hops = l.DefaultHopLimit
	}
	if dst.IsMulticast() && opts.HopLimit == 0 {
		hops = 1 // link-local scope by default
	}

	var ifp *netif.Interface
	var rt *route.Entry
	var loopLocal bool
	switch {
	case l.IsLocal(dst):
		loopLocal = true
	case dst.IsMulticast(), opts.IfName != "":
		name := opts.IfName
		if name == "" {
			// Multicast with no pinned interface: use any non-loopback.
			for _, cand := range l.Interfaces() {
				if !cand.Loopback() && cand.Up() {
					name = cand.Name
					break
				}
			}
		}
		ifp = l.Interface(name)
		if ifp == nil {
			return l.NoRoute(pkt, ErrNoRoute)
		}
		if !dst.IsMulticast() {
			// Unicast pinned to an interface still needs a neighbor
			// route for ND.  For link-local destinations the pin is
			// authoritative: a host route cloned from another
			// interface's fe80::/64 (one shared prefix route per
			// stack) must be re-pinned here, or resolution would run
			// on the wrong link.
			var ok bool
			rt, ok = l.ensureHostRoute(dst)
			if ok && dst.IsLinkLocal() {
				l.Routes().View(func() { ok = rt.IfName == ifp.Name })
			}
			if !ok {
				rt = l.Routes().Add(&route.Entry{
					Family: inet.AFInet6, Dst: append([]byte(nil), dst[:]...), Plen: 128,
					Flags: route.FlagUp | route.FlagHost | route.FlagLLInfo | route.FlagDynamic, IfName: ifp.Name,
				})
			}
		}
	default:
		var hit bool
		rt, hit = l.Routes().CacheGet(opts.RouteCache, inet.AFInet6, dst[:])
		if !hit {
			var ok bool
			rt, ok = l.ensureHostRoute(dst)
			if !ok {
				return l.NoRoute(pkt, ErrNoRoute)
			}
			l.Routes().CacheFill(opts.RouteCache, inet.AFInet6, dst[:], rt)
		}
		if ifp = l.Interface(rt.IfName); ifp == nil {
			return l.NoRoute(pkt, ErrNoRoute)
		}
	}
	if rt != nil && l.Rejected(rt) {
		return l.NoRoute(pkt, ErrReject)
	}

	if src.IsUnspecified() && !opts.UnspecSource {
		if loopLocal {
			src = dst
		} else {
			s, ok := l.SourceFor(dst, ifp)
			if !ok {
				pkt.Free()
				return ErrNoSrc
			}
			src = s
		}
	}

	// Assemble extension headers.
	chain, fragPart, fragNH := buildExt(&opts, nh)
	if len(fragPart) > 0 {
		pkt.Prepend(fragPart)
	}

	hdr := Header{FlowInfo: opts.FlowInfo, NextHdr: chain.firstNH, HopLimit: hops, Src: src, Dst: dst}

	// Security output processing, "immediately before IP fragmentation
	// is performed" (§3.3). The hook wraps the fragmentable part.
	effFragNH := fragNH
	secWrapped := false
	if l.SecOut != nil && !opts.NoSecurity {
		wrapped, newNH, secDst, err := l.SecOut(hdr, pkt, fragNH, opts.Socket, opts.SecCache)
		if err != nil {
			l.Stats.OutDrops.Inc()
			return err // the hook freed the packet
		}
		secWrapped = newNH != fragNH
		pkt = wrapped
		effFragNH = newNH
		if len(chain.unfrag) == 0 {
			hdr.NextHdr = newNH
		} else {
			chain.unfrag[chain.unfragPatch] = newNH
			chain.unfragNH = newNH
		}
		if secDst != dst {
			// Tunnel mode readdressed the outer header to a security
			// gateway: route toward it instead.
			hdr.Dst = secDst
			dst = secDst
			loopLocal = l.IsLocal(dst)
			if !loopLocal && !dst.IsMulticast() {
				var ok bool
				if rt, ok = l.ensureHostRoute(dst); !ok {
					return l.NoRoute(pkt, ErrNoRoute)
				}
				if ifp = l.Interface(rt.IfName); ifp == nil {
					return l.NoRoute(pkt, ErrNoRoute)
				}
			}
		}
	} else if len(chain.unfrag) == 0 {
		hdr.NextHdr = effFragNH
	}

	mtu := MinMTU
	if !loopLocal {
		mtu = l.PathMTU(ifp, rt)
	} else if lo := l.Loopback(); lo != nil {
		mtu = lo.MTU()
	}

	total := HeaderLen + len(chain.unfrag) + pkt.Len()
	if total-HeaderLen > 65535 {
		// The payload length field is 16 bits; without jumbograms
		// nothing larger is expressible (even reassembled).
		pkt.Free()
		return ErrMsgSize
	}
	if total <= mtu {
		hdr.PayloadLen = len(chain.unfrag) + pkt.Len()
		if len(chain.unfrag) > 0 {
			pkt.Prepend(chain.unfrag)
		}
		hdr.Marshal(pkt.PrependN(HeaderLen)[:0])
		if loopLocal {
			return l.Loop(pkt)
		}
		return l.Transmit(ifp, rt, dst, pkt)
	}
	if opts.NoFrag && !secWrapped {
		pkt.Free()
		return ErrMsgSize
	}
	// End-to-end fragmentation (§2.2: IPv6 has no intermediate
	// fragmentation; sources fragment when even the path MTU is too
	// small, e.g. large hop-by-hop option loads).  Security-wrapped
	// packets may fragment even for TCP: AH/ESP are applied
	// "immediately before any fragmentation" (§3.3), and the transport
	// cannot see the wrapping overhead.
	return l.fragmentOut(ifp, rt, hdr, chain, effFragNH, pkt, mtu, loopLocal)
}

func (l *Layer) fragmentOut(ifp *netif.Interface, rt *route.Entry, hdr Header, chain extChain, fragNH uint8, pkt *mbuf.Mbuf, mtu int, loopLocal bool) error {
	id := l.NextID()
	// Point the chain at the fragment header.
	if len(chain.unfrag) > 0 {
		chain.unfrag[chain.unfragPatch] = proto.Fragment
	} else {
		hdr.NextHdr = proto.Fragment
	}
	chunk := (mtu - HeaderLen - len(chain.unfrag) - FragHeaderLen) &^ 7
	return l.Fragment(pkt, chunk, func(fm *mbuf.Mbuf, off int, more bool) error {
		fh := FragHeader{NextHdr: fragNH, Off: off, More: more, ID: id}
		fh.Marshal(fm.PrependN(FragHeaderLen)[:0])
		if len(chain.unfrag) > 0 {
			fm.Prepend(chain.unfrag)
		}
		hdr.PayloadLen = fm.Len()
		hdr.Marshal(fm.PrependN(HeaderLen)[:0])
		l.Stats.OutFrags.Inc()
		if loopLocal {
			return l.Loop(fm)
		}
		return l.Transmit(ifp, rt, hdr.Dst, fm)
	})
}

//
// Input path (ipv6_input / preparse, §2.2).
//

const maxReinject = 8 // bound on reassembly/decryption reprocessing

// Input is the per-packet entry from the network interfaces.
func (l *Layer) Input(ifp *netif.Interface, pkt *mbuf.Mbuf) {
	l.Stats.InReceives.Inc()
	l.input(ifp, pkt, 0)
}

func (l *Layer) input(ifp *netif.Interface, pkt *mbuf.Mbuf, depth int) {
	if depth > maxReinject {
		l.Stats.InHdrErrors.Inc()
		l.Drops.DropPkt(stat.RV6ReinjectLoop, pkt.Bytes())
		pkt.Free()
		return
	}
	b := pkt.PullUp(HeaderLen)
	if b == nil {
		l.Stats.InHdrErrors.Inc()
		l.Drops.DropPkt(stat.RV6BadHeader, pkt.Bytes())
		pkt.Free()
		return
	}
	h, err := Parse(b)
	if err != nil {
		l.Stats.InHdrErrors.Inc()
		l.Drops.DropPkt(stat.RV6BadHeader, b)
		pkt.Free()
		return
	}
	if pkt.Len() < HeaderLen+h.PayloadLen {
		l.Stats.InTruncated.Inc()
		l.Drops.DropPkt(stat.RV6Truncated, b)
		pkt.Free()
		return
	}
	if pkt.Len() > HeaderLen+h.PayloadLen {
		pkt.Adj(HeaderLen + h.PayloadLen - pkt.Len()) // trim link padding
	}

	// Destination check: one of ours (unicast) or a group we belong to.
	local := l.IsLocal(h.Dst)
	if !local && h.Dst.IsMulticast() {
		// All-nodes is implicit; solicited-node and other groups are
		// joined explicitly (ND joins one per configured address,
		// §4.3).  Forwarding routers in all-multicast mode see every
		// group's traffic so membership Reports reach them (§4.1).
		local = l.InGroup(ifp.Name, h.Dst) ||
			(l.Forwarding && ifp.Flags()&netif.FlagAllMulti != 0)
	}
	if !local {
		if l.Forwarding && !h.Dst.IsMulticast() {
			l.forward(ifp, &h, pkt)
			return
		}
		l.Stats.InAddrErrors.Inc()
		l.Drops.DropPkt(stat.RV6NotForUs, b)
		pkt.Free()
		return
	}
	l.process(ifp, &h, pkt, depth)
}

// process runs the pre-parse and the header walk for a locally
// destined packet.  A packet with no extension header bypasses the
// pre-parse — the optimization §2.2 and §7 say is planned — and goes
// straight to its upper-layer protocol.
func (l *Layer) process(ifp *netif.Interface, h *Header, pkt *mbuf.Mbuf, depth int) {
	if !IsExt(h.NextHdr) {
		l.Stats.FastPathHits.Inc()
		l.dispatch(ifp, h, pkt, h.NextHdr, HeaderLen, depth)
		return
	}
	b := pkt.Bytes()
	l.Stats.PreparseRuns.Inc()
	info, err := Preparse(b, false)
	if err != nil {
		if _, isOptErr := err.(*OptionError); !isOptErr {
			l.Stats.InHdrErrors.Inc()
			l.Drops.DropPkt(stat.RV6BadExtChain, b)
			if info.Truncated {
				l.paramProblem(ifp, pkt, ParamErrHeader, uint32(info.FinalOff))
			}
			pkt.Free()
			return
		}
	}

	ext := info.Ext()
	for i, rec := range ext {
		switch rec.Proto {
		case proto.HopByHop:
			if i != 0 {
				l.Drops.DropPkt(stat.RV6BadExtChain, b)
				l.paramProblem(ifp, pkt, ParamErrHeader, uint32(rec.Offset))
				pkt.Free()
				return
			}
			if !l.processOptions(ifp, h, pkt, rec) {
				return
			}
		case proto.DstOpts:
			if !l.processOptions(ifp, h, pkt, rec) {
				return
			}
		case proto.Routing:
			done, cont := l.processRouting(ifp, h, pkt, rec)
			if done {
				return
			}
			_ = cont
		case proto.Fragment:
			l.processFragment(ifp, h, pkt, rec, depth)
			return
		case proto.AH:
			if l.SecIn == nil {
				l.Stats.InUnknownProt.Inc()
				l.Drops.DropPkt(stat.RV6UnknownProt, b)
				l.paramProblem(ifp, pkt, ParamUnknownNH, uint32(rec.Offset))
				pkt.Free()
				return
			}
			if l.SecIn(pkt, *h, proto.AH, rec.Offset) == SecDrop {
				pkt.Free() // ipsec recorded the drop; the packet ends here
				return
			}
		}
	}

	l.dispatch(ifp, h, pkt, info.Final, info.FinalOff, depth)
}

// dispatch hands the upper-layer data to the protocol switch.
func (l *Layer) dispatch(ifp *netif.Interface, h *Header, pkt *mbuf.Mbuf, final uint8, off int, depth int) {
	switch final {
	case proto.NoNext:
		pkt.Free() // nothing follows the headers; terminal by definition
		return
	case proto.ESP:
		if l.SecIn == nil {
			l.Stats.InUnknownProt.Inc()
			l.Drops.DropPkt(stat.RV6UnknownProt, pkt.Bytes())
			l.paramProblem(ifp, pkt, ParamUnknownNH, uint32(off))
			pkt.Free()
			return
		}
		if l.SecIn(pkt, *h, proto.ESP, off) != SecReinject {
			pkt.Free()
			return
		}
		// Decrypted transport content or tunneled inner datagram,
		// opened in place: reprocess from the top ("After security
		// input processing is completed, the normal input processing
		// resumes", §3.4).
		l.input(ifp, pkt, depth+1)
		return
	}
	meta := proto.Meta{
		Family: inet.AFInet6,
		Src6:   h.Src, Dst6: h.Dst,
		Proto: final, Hops: h.HopLimit, FlowInfo: h.FlowInfo, RcvIf: ifp.Name,
	}
	in := l.Proto(final)
	if in == nil {
		l.Stats.InUnknownProt.Inc()
		l.Drops.DropPkt(stat.RV6UnknownProt, pkt.Bytes())
		l.paramProblem(ifp, pkt, ParamUnknownNH, uint32(off))
		pkt.Free()
		return
	}
	l.Stats.InDelivers.Inc()
	pkt.Adj(off)
	in(pkt, meta)
}

// processOptions parses a hop-by-hop or destination options header and
// applies the unknown-option action bits.  A false return is terminal
// in every caller, so the failure paths free the packet here (the
// param-problem hook quotes a copy before that).
func (l *Layer) processOptions(ifp *netif.Interface, h *Header, pkt *mbuf.Mbuf, rec HeaderRec) bool {
	b := pkt.Bytes()
	body := b[rec.Offset+2 : rec.Offset+rec.Len]
	_, err := ParseOptions(body, nil)
	if err == nil {
		return true
	}
	l.Stats.InOptErrors.Inc()
	if oe, ok := err.(*OptionError); ok {
		l.Drops.DropPkt(stat.RV6OptionDrop, b)
		switch oe.Action {
		case OptActDiscard:
		case OptActDiscardICMP:
			l.paramProblem(ifp, pkt, ParamUnknownOpt, uint32(rec.Offset+oe.Offset))
		case OptActDiscardMcst:
			if !h.Dst.IsMulticast() {
				l.paramProblem(ifp, pkt, ParamUnknownOpt, uint32(rec.Offset+oe.Offset))
			}
		}
		pkt.Free()
		return false
	}
	l.Drops.DropPkt(stat.RV6BadExtChain, b)
	l.paramProblem(ifp, pkt, ParamErrHeader, uint32(rec.Offset))
	pkt.Free()
	return false
}

// processRouting handles a type-0 routing header addressed to us:
// swap in the next hop and re-emit (§4.1 mentions strict-source-route
// errors; we reject strict hops that are not neighbors).
func (l *Layer) processRouting(ifp *netif.Interface, h *Header, pkt *mbuf.Mbuf, rec HeaderRec) (done, cont bool) {
	l.Stats.RouteHdrSeen.Inc()
	b := pkt.Bytes()
	rh, err := ParseRouting(b[rec.Offset : rec.Offset+rec.Len])
	if err != nil {
		l.Stats.InHdrErrors.Inc()
		l.Drops.DropPkt(stat.RV6RouteHdrErr, b)
		l.paramProblem(ifp, pkt, ParamErrHeader, uint32(rec.Offset))
		pkt.Free()
		return true, false
	}
	if rh.SegLeft == 0 {
		return false, true // fully traversed; continue to the payload
	}
	i := len(rh.Addrs) - rh.SegLeft
	next := rh.Addrs[i]
	if next.IsMulticast() {
		l.Drops.DropPkt(stat.RV6RouteHdrErr, b)
		l.paramProblem(ifp, pkt, ParamErrHeader, uint32(rec.Offset))
		pkt.Free()
		return true, false
	}
	// Swap dst and the current segment, decrement segments-left.
	segOff := rec.Offset + 8 + 16*i
	copy(b[segOff:segOff+16], h.Dst[:])
	copy(b[24:40], next[:])
	b[rec.Offset+3] = byte(rh.SegLeft - 1)
	if b[7] <= 1 {
		l.Drops.DropPkt(stat.RV6HopLimit, b)
		l.Error(ErrTimeExceeded, 0, 0, pkt, ifp.Name)
		pkt.Free()
		return true, false
	}
	b[7]--
	// Re-route toward the new destination.
	rt, ok := l.ensureHostRoute(next)
	if !ok {
		l.Drops.DropPkt(stat.RV6NoRoute, b)
		l.Error(ErrDstUnreach, 0, 0, pkt, ifp.Name)
		pkt.Free()
		return true, false
	}
	// Strict hops must be on-link neighbors: a set strict bit with a
	// next hop reachable only through a gateway is the "errors with
	// strict source routing" case of §4.1 (Unreachable, not-a-neighbor).
	if rh.StrictBits&(1<<uint(i)) != 0 && l.EntryFlags(rt)&route.FlagGateway != 0 {
		l.Drops.DropPkt(stat.RV6RouteHdrErr, b)
		l.Error(ErrDstUnreach, 2 /* not a neighbor */, 0, pkt, ifp.Name)
		pkt.Free()
		return true, false
	}
	oifp := l.Interface(rt.IfName)
	if oifp == nil {
		l.Stats.OutNoRoute.Inc()
		l.Drops.DropPkt(stat.RV6NoRoute, b)
		pkt.Free()
		return true, false
	}
	if err := l.Transmit(oifp, rt, next, pkt); err != nil {
		l.Stats.OutDrops.Inc()
	}
	return true, false
}

// processFragment hands a fragment to reassembly and reprocesses the
// datagram it completes, or the atomic fragment that is a datagram of
// its own (RFC 6946).
func (l *Layer) processFragment(ifp *netif.Interface, h *Header, pkt *mbuf.Mbuf, rec HeaderRec, depth int) {
	l.Stats.FragsReceived.Inc()
	b := pkt.Bytes()
	fh, err := ParseFrag(b[rec.Offset : rec.Offset+rec.Len])
	if err != nil {
		l.Stats.InHdrErrors.Inc()
		l.Drops.DropPkt(stat.RV6BadHeader, b)
		pkt.Free()
		return
	}
	dataOff := rec.Offset + FragHeaderLen
	// RFC 8200 §4.5: a fragment that is not the last must be a multiple
	// of 8 bytes long, or its successor's offset cannot meet its end;
	// the error points at the Payload Length field.  RFC 7112: the
	// first fragment must carry the whole header chain, so a filter
	// can read the upper-layer header without reassembling.
	var why stat.Reason
	switch {
	case fh.More && (len(b)-dataOff)%8 != 0:
		why = stat.RV6FragUnaligned
		l.paramProblem(ifp, pkt, ParamErrHeader, 4)
	case fh.Off == 0 && !headerChainComplete(fh.NextHdr, b[dataOff:]):
		why = stat.RV6FragHeaderChain
		l.paramProblem(ifp, pkt, ParamHeaderChain, 0)
	}
	if why != stat.ReasonNone {
		l.Stats.ReasmFails.Inc()
		l.Drops.DropPkt(why, b)
		pkt.Free()
		return
	}
	key := ip.FragKey[inet.IP6]{Src: h.Src, Dst: h.Dst, ID: fh.ID}
	if pkt, hdr := l.Reassemble(ifp, key, pkt, dataOff, fh.Off, fh.More); pkt != nil {
		l.input(ifp, unfragment(pkt, hdr), depth+1)
	}
}

// headerChainComplete reports whether the headers from nh at the start
// of b run on into the upper-layer header (ESP counts as one), so that
// a first fragment holding b carries the whole chain (RFC 7112).  A
// TCP, UDP or ICMPv6 header must be there whole, as Linux's
// ipv6_frag_thdr_truncated requires, so a filter can read its ports
// and flags; of any other protocol one byte is enough.
func headerChainComplete(nh uint8, b []byte) bool {
	off := 0
	for IsExt(nh) {
		n := extHeaderLen(nh, b[off:])
		if n < 0 || off+n > len(b) {
			return false
		}
		nh, off = b[off], off+n
	}
	switch nh {
	case proto.NoNext:
		return true
	case proto.TCP:
		return len(b)-off >= 20
	case proto.UDP:
		return len(b)-off >= 8
	case proto.ICMPv6:
		return len(b)-off >= 4
	}
	return off < len(b)
}

// unfragment takes out the fragment header that ends hdr bytes into a
// reassembled datagram, in place, as KAME's frag6_input does: the
// unfragmentable headers before it move up over it, the next-header
// byte that pointed at it takes its next header, and the payload
// length covers the datagram (RFC 8200 §4.5).
func unfragment(pkt *mbuf.Mbuf, hdr int) *mbuf.Mbuf {
	b := pkt.PullUp(hdr)
	frag := hdr - FragHeaderLen
	nh := 6
	for off := HeaderLen; off < frag; {
		nh, off = off, off+extHeaderLen(b[nh], b[off:])
	}
	b[nh] = b[frag]
	copy(b[FragHeaderLen:], b[:frag])
	pkt.Adj(FragHeaderLen)
	b = b[FragHeaderLen:]
	plen := pkt.Len() - HeaderLen
	b[4], b[5] = byte(plen>>8), byte(plen)
	pkt.Hdr().Flags &^= mbuf.MFrag
	return pkt
}

// forward is the router path: hop-limit decrement and retransmission.
// Note what is *not* here relative to IPv4's forward(): no checksum
// recomputation and no fragmentation — an over-MTU packet elicits
// Packet Too Big for the source's PMTU discovery (§2.1, §2.2).
func (l *Layer) forward(ifp *netif.Interface, h *Header, pkt *mbuf.Mbuf) {
	b := pkt.Bytes()
	if h.HopLimit <= 1 {
		l.Drops.DropPkt(stat.RV6HopLimit, b)
		l.Error(ErrTimeExceeded, 0, 0, pkt, ifp.Name)
		pkt.Free()
		return
	}
	// Routers process hop-by-hop options when present (§2.1).
	if h.NextHdr == proto.HopByHop {
		n := extHeaderLen(proto.HopByHop, b[HeaderLen:])
		if n < 0 || HeaderLen+n > len(b) {
			l.Stats.InHdrErrors.Inc()
			l.Drops.DropPkt(stat.RV6BadExtChain, b)
			pkt.Free()
			return
		}
		if !l.processOptions(ifp, h, pkt, HeaderRec{Proto: proto.HopByHop, Offset: HeaderLen, Len: n}) {
			return
		}
	}
	hop := l.ForwardRoute(h.Dst[:])
	if hop.Ifp == nil {
		l.Stats.OutNoRoute.Inc()
		l.Drops.DropPkt(stat.RV6NoRoute, b)
		if hop.Route == nil {
			l.Error(ErrDstUnreach, 0, 0, pkt, ifp.Name)
		}
		pkt.Free()
		return
	}
	mtu := hop.Ifp.MTU()
	if pkt.Len() > mtu {
		l.Drops.DropPkt(stat.RV6TooBig, b)
		l.Error(ErrPacketTooBig, 0, uint32(mtu), pkt, ifp.Name)
		pkt.Free()
		return
	}
	b[7]-- // hop limit; no checksum to fix up afterwards
	l.Stats.Forwarded.Inc()
	if err := l.Forward(&hop, h.Dst, pkt); err != nil {
		l.Stats.OutDrops.Inc()
	}
}

func (l *Layer) paramProblem(ifp *netif.Interface, pkt *mbuf.Mbuf, code uint8, ptr uint32) {
	l.Error(ErrParamProblem, code, ptr, pkt, ifp.Name)
}

// offender is the IPv6 half of ip.Layer.Error's parse: an ICMPv6
// message is an error when the high bit of its type is clear (§4).
func offender(b []byte) (o ip.Offender[inet.IP6], ok bool) {
	h, err := Parse(b)
	if err != nil {
		return o, false
	}
	o.Src, o.Group, o.Quote = h.Src, h.Dst.IsMulticast(), len(b)
	if info, err := Preparse(b, false); err == nil && info.Final == proto.ICMPv6 && info.FinalOff < len(b) {
		o.Error = b[info.FinalOff]&0x80 == 0
	}
	return o, true
}

// SendICMP sends an ICMPv6 message built by ip.BuildICMP.  The
// checksum's pseudo-header needs the final source, so an unspecified
// src is replaced by the one Output would pick toward dst, out of
// opts.IfName when it is set, unless opts.UnspecSource keeps it.
func (l *Layer) SendICMP(typ, code uint8, word uint32, data []byte, src, dst inet.IP6, opts OutputOpts) error {
	if src.IsUnspecified() && !opts.UnspecSource {
		if s, ok := l.SourceFor(dst, l.Interface(opts.IfName)); ok {
			src = s
		}
	}
	sum := inet.PseudoHeader6(src, dst, uint32(8+len(data)), proto.ICMPv6)
	return l.Output(ip.BuildICMP(typ, code, word, data, sum), src, dst, proto.ICMPv6, opts)
}

// SlowTimo drives periodic work (reassembly expiry). The paper's
// footnote said no Time Exceeded could be sent for reassembly timeouts
// because the offending packet was gone; reassembly holds fragment
// zero as it arrived, so the error goes out with code 1 (fragment
// reassembly time exceeded) quoting it exactly when it arrived, per
// RFC 2460 §4.5. Timeouts where the first fragment never showed stay
// silent — the error must quote the offender's header, which we never
// saw.
func (l *Layer) SlowTimo(now time.Time) {
	l.ExpireReasm(now, func(first *mbuf.Mbuf) {
		l.Error(ErrTimeExceeded, 1, 0, first, first.Hdr().RcvIf)
	})
}
