package icmp6

import (
	"time"

	"bsd6/internal/inet"
	"bsd6/internal/ip"
	"bsd6/internal/ipv6"
	"bsd6/internal/netif"
	"bsd6/internal/proto"
	"bsd6/internal/route"
	"bsd6/internal/stat"
)

// Neighbor Discovery (§4.3): IPv6 does not use ARP; neighbors are
// discovered with multicast Neighbor Solicits to the solicited-node
// group and unicast Neighbor Advertisements.  The link-layer mapping
// lives in a cloned host route whose Gateway is the MAC address and
// whose LLInfo is the ip.Neighbor that ARP entries also use; the
// shared neighbor cache in internal/ip runs its state machine, and
// this file keeps ND's messages: the solicit, the advertisement and
// their input.  Neighbors that stop answering probes linger and are
// marked RTF_REJECT, like ARP in 4.4-Lite BSD.

// ND option types.
const (
	optSrcLLAddr  = 1
	optTgtLLAddr  = 2
	optPrefixInfo = 3
	optMTU        = 5
)

// solicit is the layer's Solicit hook.  It sends a Neighbor Solicit
// for target from our link-local address: a multicast one to the
// target's solicited-node group, carrying our link-layer address, or a
// unicast probe.
func (m *Module) solicit(ifp *netif.Interface, target inet.IP6, unicast bool) {
	body := make([]byte, 4+16)
	copy(body[4:], target[:])
	src, haveSrc := ifp.LinkLocal6(m.l.Routes().Now())
	dst := target
	if !unicast {
		dst = inet.SolicitedNode(target)
		if haveSrc {
			body = append(body, optSrcLLAddr, 1)
			body = append(body, ifp.HW[:]...)
		}
	}
	m.Stats.OutNS.Inc()
	m.sendCtl(TypeNeighborSolicit, 0, body, src, dst, 255, ifp.Name)
}

// sendDadNS emits the duplicate-address-detection solicit: source is
// the unspecified address, destination the target's solicited-node
// group.
func (m *Module) sendDadNS(ifp *netif.Interface, target inet.IP6) error {
	m.Stats.OutNS.Inc()
	opts := ipv6.OutputOpts{HopLimit: 255, IfName: ifp.Name, NoSecurity: true, UnspecSource: true}
	return m.l.SendICMP(TypeNeighborSolicit, 0, 0, target[:], inet.IP6{}, inet.SolicitedNode(target), opts)
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
		m.learnNeighbor(ifp, meta.Src6, inet.LinkAddr(ll[:6]), false)
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
	// Install the advertised mapping on the target's neighbor route.
	ll := opts[optTgtLLAddr]
	if len(ll) < 6 {
		return
	}
	rt, ok := m.l.Routes().Lookup(inet.AFInet6, target[:])
	eligible := false
	if ok {
		m.l.Routes().View(func() { eligible = rt.Host() && rt.Flags&route.FlagLLInfo != 0 })
	}
	if eligible {
		m.l.Learn(ifp, rt, inet.LinkAddr(ll[:6]), flags&0x40 != 0)
		m.l.SetRouter(rt, flags&0x80 != 0)
	}
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
	m.l.Learn(ifp, rt, mac, confirm)
}

// Confirm records upper-layer reachability confirmation (§4.3: "Upper-
// level protocols (e.g. TCP) can also be used to provide reachability
// confirmation").
func (m *Module) Confirm(dst inet.IP6) { m.l.Confirm(dst) }

// NeighborState reports the reachability state of a neighbor, for
// netstat -r style display.
func (m *Module) NeighborState(dst inet.IP6) (ip.NeighborState, bool) {
	return m.l.NeighborState(dst)
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

// FastTimo drives the module's one-second work: the neighbor cache's
// timer, DAD probes, router advertisements, address lifetime expiry.
func (m *Module) FastTimo(now time.Time) {
	m.Stats.NdTimeouts.Add(uint64(m.l.NeighborTimer(now)))
	m.dadTick(now)
	m.raTick(now)
	m.expireTick(now)
}
