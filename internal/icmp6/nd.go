package icmp6

import (
	"time"

	"bsd6/internal/inet"
	"bsd6/internal/ip"
	"bsd6/internal/ipv6"
	"bsd6/internal/mbuf"
	"bsd6/internal/netif"
	"bsd6/internal/proto"
	"bsd6/internal/route"
	"bsd6/internal/stat"
)

// Neighbor Discovery (§4.3): IPv6 does not use ARP; neighbors are
// discovered with multicast Neighbor Solicits to the solicited-node
// group and unicast Neighbor Advertisements.  The link-layer mapping
// lives in a cloned host route whose Gateway is the MAC address, with
// this ndEntry as the route's LLInfo.  Neighbors that stop answering
// probes linger and are marked RTF_REJECT, like ARP in 4.4-Lite BSD.

// ND option types.
const (
	optSrcLLAddr  = 1
	optTgtLLAddr  = 2
	optPrefixInfo = 3
	optMTU        = 5
)

// Neighbor reachability states.
type NDState int

const (
	NDIncomplete NDState = iota // resolution in progress
	NDReachable                 // confirmed recently
	NDStale                     // usable, confirmation aged out
	NDProbe                     // unicast re-confirmation in progress
)

func (s NDState) String() string {
	switch s {
	case NDIncomplete:
		return "incomplete"
	case NDReachable:
		return "reachable"
	case NDStale:
		return "stale"
	case NDProbe:
		return "probe"
	}
	return "?"
}

// ND timing parameters.
const (
	ndRetrans      = time.Second
	ndMaxMulticast = 3 // multicast solicits before giving up
	ndMaxUnicast   = 3 // unicast probes before declaring unreachable
	ndReachable    = 30 * time.Second
	ndRejectLinger = 20 * time.Second
)

// ndEntry is the LLInfo of a neighbor host route.
type ndEntry struct {
	ip.HoldQueue // packets awaiting resolution
	state        NDState
	confirmed    time.Time // when reachability was last confirmed
	tries        int
	lastSent     time.Time
	isRouter     bool
}

// EvictPinned implements route.NeighborPin: entries for routers
// learned via Router Discovery are never evicted by the neighbor-cache
// cap — losing the default router to a cache flood would cut off all
// off-link traffic.
func (e *ndEntry) EvictPinned() bool { return e.isRouter }

// NeighborAddr extracts the IPv6 address of a neighbor route.
func neighborAddr(rt *route.Entry) inet.IP6 {
	var a inet.IP6
	copy(a[:], rt.Dst)
	return a
}

// Resolve is installed as the ipv6.Layer's ResolveFunc.
func (m *Module) Resolve(ifp *netif.Interface, rt *route.Entry, nextHop inet.IP6, pkt *mbuf.Mbuf) (inet.LinkAddr, bool) {
	if rt == nil {
		return inet.LinkAddr{}, false
	}
	var mac inet.LinkAddr
	// Fast path: a reachable neighbor needs no state transition, so
	// the per-packet cost is one read lock and no clock read.  As in
	// BSD, REACHABLE ages to STALE on ndTimer's one-second tick, not
	// per packet: past ndReachable the entry is used until the tick,
	// and the first packet after it starts the unicast probe.  Every
	// other case falls through to the write path below.
	fresh := false
	m.l.Routes().View(func() {
		e, _ := rt.LLInfo.(*ndEntry)
		if mv, ok := rt.Gateway.(inet.LinkAddr); ok && e != nil &&
			rt.Flags&route.FlagReject == 0 && e.state == NDReachable {
			mac, fresh = mv, true
		}
	})
	if fresh {
		return mac, true
	}
	now := m.l.Routes().Now()
	result := 0 // 0: unresolved, 1: resolved, 2: resolved + probe
	needSend := false
	m.l.Routes().Mutate(func() {
		e, _ := rt.LLInfo.(*ndEntry)
		if mv, ok := rt.Gateway.(inet.LinkAddr); ok && e != nil && rt.Flags&route.FlagReject == 0 {
			switch e.state {
			case NDReachable, NDProbe:
				mac, result = mv, 1
				return
			case NDStale:
				// Optimistically use the stale mapping and start
				// probing, unless an upper-layer confirmation arrives
				// first.
				e.state = NDProbe
				e.tries = 0
				e.lastSent = now
				mac, result = mv, 2
				return
			}
		}
		if rt.Flags&route.FlagReject != 0 {
			if now.Before(rt.Expire) {
				result = 3 // linger, fail fast
				return
			}
			rt.Flags &^= route.FlagReject
			e = nil
		}
		if e == nil {
			e = &ndEntry{state: NDIncomplete}
			rt.LLInfo = e
		}
		if !e.Hold(pkt) {
			result = 4 // queue full: drop the arriving packet
		}
		if now.Sub(e.lastSent) >= ndRetrans {
			needSend = true
			e.lastSent = now
			e.tries++
		}
	})
	switch result {
	case 1:
		return mac, true
	case 2:
		m.sendNS(ifp, nextHop, nextHop, false) // unicast probe
		return mac, true
	case 3:
		// Unreachable neighbor lingering with RTF_REJECT: the caller
		// believes the packet was queued, so this path owns it.
		m.l.Drops.DropNote(stat.RV6NoRoute, nextHop.String())
		pkt.Free()
		return inet.LinkAddr{}, false
	case 4:
		m.l.Drops.DropNote(stat.RNDQueueFull, nextHop.String())
		pkt.Free()
		return inet.LinkAddr{}, false
	}
	if needSend {
		m.sendNS(ifp, nextHop, inet.SolicitedNode(nextHop), true)
	}
	return inet.LinkAddr{}, false
}

// sendNS emits a Neighbor Solicit for target. multicast selects the
// solicited-node destination form; dad sends from the unspecified
// address (collision detection, §4.2.1/§4.3).
func (m *Module) sendNS(ifp *netif.Interface, target, dst inet.IP6, includeSrcLL bool) error {
	body := make([]byte, 4+16)
	copy(body[4:], target[:])
	src := inet.IP6{}
	if ll, ok := ifp.LinkLocal6(m.l.Routes().Now()); ok {
		src = ll
	}
	if includeSrcLL && !src.IsUnspecified() {
		body = append(body, optSrcLLAddr, 1)
		body = append(body, ifp.HW[:]...)
	}
	m.Stats.OutNS.Inc()
	return m.sendCtl(TypeNeighborSolicit, 0, body, src, dst, 255, ifp.Name)
}

// sendDadNS emits the duplicate-address-detection solicit: source is
// the unspecified address, destination the target's solicited-node
// group.
func (m *Module) sendDadNS(ifp *netif.Interface, target inet.IP6) error {
	body := make([]byte, 4+16)
	copy(body[4:], target[:])
	m.Stats.OutNS.Inc()
	pkt := buildMsg(TypeNeighborSolicit, 0, body, inet.IP6{}, inet.SolicitedNode(target))
	return m.l.Output(pkt, inet.IP6{}, inet.SolicitedNode(target), proto.ICMPv6, ipv6.OutputOpts{HopLimit: 255, IfName: ifp.Name, NoSecurity: true, UnspecSource: true})
}

// sendNA emits a Neighbor Advertisement for target to dst.
func (m *Module) sendNA(ifp *netif.Interface, target, dst inet.IP6, solicited, override bool) error {
	body := make([]byte, 4+16)
	var flags byte
	if m.isRouterIf(ifp.Name) {
		flags |= 0x80
	}
	if solicited {
		flags |= 0x40
	}
	if override {
		flags |= 0x20
	}
	body[0] = flags
	copy(body[4:], target[:])
	body = append(body, optTgtLLAddr, 1)
	body = append(body, ifp.HW[:]...)
	m.Stats.OutNA.Inc()
	return m.sendCtl(TypeNeighborAdvert, 0, body, target, dst, 255, ifp.Name)
}

// parseNDOpts walks the TLV options after an ND message body.
func parseNDOpts(b []byte) map[byte][]byte {
	opts := make(map[byte][]byte)
	for len(b) >= 2 {
		t := b[0]
		n := int(b[1]) * 8
		if n == 0 || n > len(b) {
			return nil // malformed
		}
		opts[t] = b[2:n]
		b = b[n:]
	}
	return opts
}

// nsInput handles a received Neighbor Solicit: answer for our own
// addresses, detect DAD collisions, and learn the soliciter's
// link-layer address.
func (m *Module) nsInput(body []byte, meta *proto.Meta) {
	if len(body) < 20 {
		m.Stats.InErrors.Inc()
		m.l.Drops.DropNote(stat.RICMP6Short, meta.Src6.String())
		return
	}
	var target inet.IP6
	copy(target[:], body[4:20])
	opts := parseNDOpts(body[20:])
	ifp := m.l.Interface(meta.RcvIf)
	if ifp == nil {
		return
	}

	// DAD collision, receiver side: an NS for an address we hold
	// tentative, sent from the unspecified address, means another node
	// is trying to claim it at the same time.
	if meta.Src6.IsUnspecified() {
		if m.dadCollision(ifp, target) {
			return
		}
		// Plain DAD probe for an address we own: defend it.
		if ifp.HasAddr6(target) {
			m.sendNA(ifp, target, inet.AllNodes, false, true)
		}
		return
	}

	if ll, ok := opts[optSrcLLAddr]; ok && len(ll) >= 6 {
		var mac inet.LinkAddr
		copy(mac[:], ll)
		m.learnNeighbor(ifp, meta.Src6, mac, false)
	}
	if !ifp.HasAddr6(target) {
		return
	}
	// Unicast advertisement back to the soliciter (§4.3: "enough
	// information is known to send a unicast Neighbor Advertisement").
	m.sendNA(ifp, target, meta.Src6, true, true)
}

// naInput handles a Neighbor Advertisement: complete a resolution, or
// detect that our tentative address is already in use.
func (m *Module) naInput(body []byte, meta *proto.Meta) {
	if len(body) < 20 {
		m.Stats.InErrors.Inc()
		m.l.Drops.DropNote(stat.RICMP6Short, meta.Src6.String())
		return
	}
	flags := body[0]
	var target inet.IP6
	copy(target[:], body[4:20])
	opts := parseNDOpts(body[20:])
	ifp := m.l.Interface(meta.RcvIf)
	if ifp == nil {
		return
	}
	// DAD collision, prober side: someone advertises our tentative
	// address.
	if m.dadCollision(ifp, target) {
		return
	}
	var mac inet.LinkAddr
	haveMac := false
	if ll, ok := opts[optTgtLLAddr]; ok && len(ll) >= 6 {
		copy(mac[:], ll)
		haveMac = true
	}
	if !haveMac {
		return
	}
	m.learnNeighborNA(ifp, target, mac, flags&0x80 != 0, flags&0x40 != 0)
}

// learnNeighbor refreshes a neighbor entry from a solicit's source
// link-layer option (creates the host route if a cloning on-link
// prefix exists for it).
func (m *Module) learnNeighbor(ifp *netif.Interface, addr inet.IP6, mac inet.LinkAddr, confirm bool) {
	rts := m.l.Routes()
	rt, ok := rts.Lookup(inet.AFInet6, addr[:])
	if !ok {
		return
	}
	eligible, rePin := false, false
	rts.View(func() {
		host := rt.Host() && rt.Flags&route.FlagLLInfo != 0
		eligible = host && rt.IfName == ifp.Name
		// A link-local neighbor cloned onto the wrong link: the
		// shared radix holds one fe80::/64 per stack, so on a
		// multi-interface node the clone inherits whichever
		// interface added that prefix route last.  ND just heard
		// the neighbor on ifp — that observation, not the radix, is
		// authoritative for link-local scope.
		rePin = host && !eligible && addr.IsLinkLocal() &&
			rt.Flags&route.FlagDynamic != 0
	})
	if rePin {
		rt = rts.Add(&route.Entry{
			Family: inet.AFInet6, Dst: append([]byte(nil), addr[:]...), Plen: 128,
			Flags:  route.FlagUp | route.FlagHost | route.FlagLLInfo | route.FlagDynamic,
			IfName: ifp.Name,
		})
		eligible = true
	}
	if !eligible {
		return
	}
	m.updateEntry(ifp, rt, mac, confirm)
}

// learnNeighborNA installs the advertised mapping.
func (m *Module) learnNeighborNA(ifp *netif.Interface, target inet.IP6, mac inet.LinkAddr, isRouter, solicited bool) {
	rt, ok := m.l.Routes().Lookup(inet.AFInet6, target[:])
	if !ok {
		return
	}
	eligible := false
	m.l.Routes().View(func() {
		eligible = rt.Host() && rt.Flags&route.FlagLLInfo != 0
	})
	if !eligible {
		return
	}
	m.updateEntry(ifp, rt, mac, solicited)
	m.l.Routes().Mutate(func() {
		if e, _ := rt.LLInfo.(*ndEntry); e != nil {
			e.isRouter = isRouter
		}
	})
}

func (m *Module) updateEntry(ifp *netif.Interface, rt *route.Entry, mac inet.LinkAddr, confirm bool) {
	now := m.l.Routes().Now()
	var flush []*mbuf.Mbuf
	m.l.Routes().Mutate(func() {
		e, _ := rt.LLInfo.(*ndEntry)
		if e == nil {
			e = &ndEntry{}
			rt.LLInfo = e
		}
		prev, hadMac := rt.Gateway.(inet.LinkAddr)
		rt.Gateway = mac
		rt.Flags &^= route.FlagReject
		rt.Expire = now.Add(ndReachable)
		if confirm || !hadMac || prev != mac {
			e.state = NDReachable
			e.confirmed = now
		} else if e.state == NDIncomplete {
			e.state = NDStale
		}
		e.tries = 0
		flush = e.Take()
	})
	ip.Send(ifp, mac, netif.EtherTypeIPv6, flush)
}

// Confirm records upper-layer reachability confirmation (§4.3: "Upper-
// level protocols (e.g. TCP) can also be used to provide reachability
// confirmation").
func (m *Module) Confirm(dst inet.IP6) {
	rt, ok := m.l.Routes().Lookup(inet.AFInet6, dst[:])
	if !ok {
		return
	}
	var gw inet.IP6
	viaGateway := false
	m.l.Routes().View(func() {
		if rt.Flags&route.FlagGateway != 0 {
			if g, ok2 := rt.Gateway.(inet.IP6); ok2 {
				gw, viaGateway = g, true
			}
		}
	})
	if viaGateway {
		if grt, ok3 := m.l.Routes().Lookup(inet.AFInet6, gw[:]); ok3 {
			rt = grt
		}
	}
	now := m.l.Routes().Now()
	m.l.Routes().Mutate(func() {
		if e, _ := rt.LLInfo.(*ndEntry); e != nil && e.state != NDIncomplete {
			e.state = NDReachable
			e.confirmed = now
			e.tries = 0
			rt.Expire = now.Add(ndReachable)
		}
	})
}

// NeighborState reports the reachability state of a neighbor, for
// netstat -r style display.
func (m *Module) NeighborState(dst inet.IP6) (NDState, bool) {
	rt, ok := m.l.Routes().Lookup(inet.AFInet6, dst[:])
	if !ok {
		return 0, false
	}
	var st NDState
	found := false
	m.l.Routes().View(func() {
		if rt.Flags&route.FlagLLInfo == 0 {
			return
		}
		if e, _ := rt.LLInfo.(*ndEntry); e != nil {
			st, found = e.state, true
		}
	})
	return st, found
}

// ndTimer drives resolution retries, probe timeouts, and RTF_REJECT
// marking for unreachable neighbors.
func (m *Module) ndTimer(now time.Time) {
	type resend struct {
		ifp     *netif.Interface
		target  inet.IP6
		unicast bool
	}
	var resends []resend
	// Snapshot candidate entries while walking (the walk holds the
	// table lock), then drive each state machine under Mutate.
	var candidates []*route.Entry
	m.l.Routes().Walk(inet.AFInet6, func(rt *route.Entry) bool {
		if _, ok := rt.LLInfo.(*ndEntry); ok {
			candidates = append(candidates, rt)
		}
		return true
	})
	for _, rt := range candidates {
		ifp := m.l.Interface(rt.IfName)
		m.l.Routes().Mutate(func() {
			e, _ := rt.LLInfo.(*ndEntry)
			if e == nil {
				return
			}
			switch e.state {
			case NDIncomplete:
				if now.Sub(e.lastSent) >= ndRetrans {
					if e.tries >= ndMaxMulticast {
						rt.Flags |= route.FlagReject
						rt.Expire = now.Add(ndRejectLinger)
						e.Drop() // resolution failed: pool the queued packets
						e.tries = 0
						m.Stats.NdTimeouts.Inc()
					} else if ifp != nil {
						e.lastSent = now
						e.tries++
						resends = append(resends, resend{ifp, neighborAddr(rt), false})
					}
				}
			case NDProbe:
				if now.Sub(e.lastSent) >= ndRetrans {
					if e.tries >= ndMaxUnicast {
						// Unreachable: linger with RTF_REJECT (§4.3).
						rt.Flags |= route.FlagReject
						rt.Expire = now.Add(ndRejectLinger)
						e.state = NDIncomplete
						e.tries = 0
						m.Stats.NdTimeouts.Inc()
					} else if ifp != nil {
						e.lastSent = now
						e.tries++
						resends = append(resends, resend{ifp, neighborAddr(rt), true})
					}
				}
			case NDReachable:
				if now.Sub(e.confirmed) > ndReachable {
					e.state = NDStale
				}
			}
		})
	}
	for _, r := range resends {
		dst := inet.SolicitedNode(r.target)
		if r.unicast {
			dst = r.target
		}
		m.sendNS(r.ifp, r.target, dst, !r.unicast)
	}
}

//
// Duplicate Address Detection (§4.2.1, §4.3): after configuring an
// address tentatively, multicast a Neighbor Solicit for it; silence
// means the address is unique.  (The paper's alpha release left this
// unimplemented and sketched the approach; this is that approach, run
// from the stack's timer rather than trapping a user process in
// ioctl.)
//

const (
	dadProbes   = 2
	dadInterval = time.Second
)

type dadState struct {
	ifName string
	sent   int
	nextAt time.Time
	done   chan struct{} // closed when DAD concludes
	dup    bool
}

// StartDAD begins duplicate address detection for a tentative address.
// The returned channel closes when DAD concludes; check the address's
// Tentative/Duplicated flags afterwards.
func (m *Module) StartDAD(ifp *netif.Interface, addr inet.IP6) <-chan struct{} {
	m.Stats.DadStarted.Inc()
	// Join the solicited-node group first so a defender's NA (sent to
	// the group or all-nodes) and competing DAD probes reach us.
	m.l.JoinGroup(ifp.Name, inet.SolicitedNode(addr))
	st := &dadState{ifName: ifp.Name, done: make(chan struct{}), nextAt: m.l.Routes().Now()}
	m.mu.Lock()
	m.dad[addr] = st
	m.mu.Unlock()
	m.dadTick(m.l.Routes().Now())
	return st.done
}

// dadCollision handles evidence that addr is claimed elsewhere. It
// returns true if a DAD run was concluded as duplicate.
func (m *Module) dadCollision(ifp *netif.Interface, addr inet.IP6) bool {
	m.mu.Lock()
	st := m.dad[addr]
	if st == nil || st.ifName != ifp.Name {
		m.mu.Unlock()
		return false
	}
	delete(m.dad, addr)
	st.dup = true
	m.mu.Unlock()
	m.Stats.DadDuplicate.Inc()
	ifp.UpdateAddr6(addr, func(a *netif.Addr6) {
		a.Tentative = false
		a.Duplicated = true
	})
	close(st.done)
	return true
}

// dadTick advances every DAD run: send probes, conclude unique after
// the last quiet interval.
func (m *Module) dadTick(now time.Time) {
	type probe struct {
		ifp  *netif.Interface
		addr inet.IP6
	}
	var probes []probe
	var unique []inet.IP6
	var uniqueSt []*dadState
	m.mu.Lock()
	for addr, st := range m.dad {
		if now.Before(st.nextAt) {
			continue
		}
		if st.sent < dadProbes {
			if ifp := m.l.Interface(st.ifName); ifp != nil {
				probes = append(probes, probe{ifp, addr})
			}
			st.sent++
			st.nextAt = now.Add(dadInterval)
		} else {
			delete(m.dad, addr)
			unique = append(unique, addr)
			uniqueSt = append(uniqueSt, st)
		}
	}
	m.mu.Unlock()
	for _, p := range probes {
		m.sendDadNS(p.ifp, p.addr)
	}
	for i, addr := range unique {
		st := uniqueSt[i]
		if ifp := m.l.Interface(st.ifName); ifp != nil {
			ifp.UpdateAddr6(addr, func(a *netif.Addr6) { a.Tentative = false })
		}
		close(st.done)
	}
}

// FastTimo drives the module's one-second work: ND retransmissions,
// DAD probes, router advertisements, address lifetime expiry.
func (m *Module) FastTimo(now time.Time) {
	m.ndTimer(now)
	m.dadTick(now)
	m.raTick(now)
	m.expireTick(now)
}
