package icmp6

import (
	"time"

	"bsd6/internal/inet"
	"bsd6/internal/netif"
	"bsd6/internal/proto"
	"bsd6/internal/route"
	"bsd6/internal/stat"
)

// Router Discovery and stateless address autoconfiguration (§4.2):
// routers multicast periodic Router Advertisements (and answer Router
// Solicits) carrying suggested hop limits, link MTUs, and on-link
// prefixes; hosts install default routes, adopt the parameters, and —
// for prefixes flagged autonomous — prepend the advertised prefix to
// their interface token to form a globally routable address with
// lifetimes (completing the second phase of autoconfiguration).

// PrefixInfo is one advertised prefix.
type PrefixInfo struct {
	Prefix       inet.IP6
	Plen         int
	OnLink       bool          // hosts may treat destinations under it as neighbors
	Autonomous   bool          // hosts may autoconfigure an address from it
	ValidLft     time.Duration // 0 = infinite
	PreferredLft time.Duration // 0 = infinite
}

// RouterConfig configures Router Advertisement emission on one
// interface of a router.
type RouterConfig struct {
	Interval    time.Duration // period between unsolicited RAs
	Lifetime    time.Duration // default-router lifetime advertised
	CurHopLimit uint8         // suggested hop limit, 0 = unspecified
	LinkMTU     int           // suggested MTU, 0 = none
	Prefixes    []PrefixInfo
}

// EnableRouter turns on router behavior for an interface: joins the
// all-routers group and begins advertising.
func (m *Module) EnableRouter(ifName string, cfg RouterConfig) error {
	if cfg.Interval == 0 {
		cfg.Interval = 30 * time.Second
	}
	if cfg.Lifetime == 0 {
		cfg.Lifetime = 3 * cfg.Interval
	}
	if err := m.l.JoinGroup(ifName, inet.AllRouters); err != nil {
		return err
	}
	m.mu.Lock()
	m.rcfg[ifName] = &cfg
	m.raAt[ifName] = m.l.Routes().Now() // advertise immediately
	m.mu.Unlock()
	if ifp := m.l.Interface(ifName); ifp != nil {
		// Routers listen to all multicast so group Reports sent to
		// arbitrary groups reach them (§4.1).
		ifp.SetFlags(netif.FlagAllMulti|netif.FlagRouter, true)
	}
	m.l.Forwarding = true
	return nil
}

func (m *Module) isRouterIf(ifName string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rcfg[ifName] != nil
}

// lifetimeSeconds encodes a lifetime Duration for the wire (0 means
// infinite, encoded as all-ones).
func lifetimeSeconds(d time.Duration) uint32 {
	if d == 0 {
		return 0xffffffff
	}
	return uint32(d / time.Second)
}

func lifetimeDuration(s uint32) time.Duration {
	if s == 0xffffffff {
		return 0
	}
	return time.Duration(s) * time.Second
}

func put32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
}

func get32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// sendRA emits a Router Advertisement on ifName.
func (m *Module) sendRA(ifName string, dst inet.IP6) error {
	m.mu.Lock()
	cfg := m.rcfg[ifName]
	m.mu.Unlock()
	ifp := m.l.Interface(ifName)
	if cfg == nil || ifp == nil {
		return nil
	}
	body := make([]byte, 12)
	body[0] = cfg.CurHopLimit
	lt := uint16(cfg.Lifetime / time.Second)
	body[2], body[3] = byte(lt>>8), byte(lt)
	// reachable time / retrans timer left 0 (unspecified)

	// Source link-layer option.
	body = append(body, optSrcLLAddr, 1)
	body = append(body, ifp.HW[:]...)
	// MTU option (§4.2.2: "suggested MTUs on variable-MTU links").
	if cfg.LinkMTU > 0 {
		opt := make([]byte, 8)
		opt[0], opt[1] = optMTU, 1
		put32(opt[4:], uint32(cfg.LinkMTU))
		body = append(body, opt...)
	}
	// Prefix information options.
	for _, p := range cfg.Prefixes {
		opt := make([]byte, 32)
		opt[0], opt[1] = optPrefixInfo, 4
		opt[2] = byte(p.Plen)
		if p.OnLink {
			opt[3] |= 0x80
		}
		if p.Autonomous {
			opt[3] |= 0x40
		}
		put32(opt[4:], lifetimeSeconds(p.ValidLft))
		put32(opt[8:], lifetimeSeconds(p.PreferredLft))
		copy(opt[16:], p.Prefix[:])
		body = append(body, opt...)
	}
	m.Stats.OutRA.Inc()
	return m.sendCtl(TypeRouterAdvert, 0, body, inet.IP6{}, dst, 255, ifName)
}

// SendRouterSolicit asks routers on the link to advertise now
// (beginning the second phase of autoconfiguration, §4.2.1).
func (m *Module) SendRouterSolicit(ifName string) error {
	ifp := m.l.Interface(ifName)
	if ifp == nil {
		return nil
	}
	body := make([]byte, 4)
	if _, ok := ifp.LinkLocal6(m.l.Routes().Now()); ok {
		body = append(body, optSrcLLAddr, 1)
		body = append(body, ifp.HW[:]...)
	}
	m.Stats.OutRS.Inc()
	return m.sendCtl(TypeRouterSolicit, 0, body, inet.IP6{}, inet.AllRouters, 255, ifName)
}

// rsInput (router side) answers a solicit with an advertisement to
// all-nodes.
func (m *Module) rsInput(body []byte, meta *proto.Meta) {
	if !m.isRouterIf(meta.RcvIf) {
		return
	}
	if opts := parseNDOpts(body[4:]); opts != nil {
		if ll, ok := opts[optSrcLLAddr]; ok && len(ll) >= 6 && !meta.Src6.IsUnspecified() {
			if ifp := m.l.Interface(meta.RcvIf); ifp != nil {
				m.ensureNeighbor(ifp, meta.Src6, inet.LinkAddr(ll[:6]), false)
			}
		}
	}
	m.sendRA(meta.RcvIf, inet.AllNodes)
}

// raInput (host side) adopts router parameters: default route, hop
// limit, link MTU, on-link prefixes, autoconfigured addresses.
func (m *Module) raInput(body []byte, meta *proto.Meta) {
	if len(body) < 12 || !meta.Src6.IsLinkLocal() {
		m.Stats.InErrors.Inc()
		m.l.Drops.DropNote(stat.RICMP6Short, meta.Src6.String())
		return
	}
	ifp := m.l.Interface(meta.RcvIf)
	if ifp == nil {
		return
	}
	if m.isRouterIf(meta.RcvIf) {
		return // routers don't autoconfigure from peers
	}
	now := m.l.Routes().Now()
	curHop := body[0]
	routerLife := time.Duration(uint16(body[2])<<8|uint16(body[3])) * time.Second
	opts := parseNDOpts(body[12:])
	if opts == nil {
		m.Stats.InErrors.Inc()
		m.l.Drops.DropNote(stat.RICMP6Short, meta.Src6.String())
		return
	}

	// Learn the router as a neighbor, pinned against cache eviction.
	if ll, ok := opts[optSrcLLAddr]; ok && len(ll) >= 6 {
		m.ensureNeighbor(ifp, meta.Src6, inet.LinkAddr(ll[:6]), true)
	}

	// Default route via the advertising router.
	var zero inet.IP6
	if routerLife > 0 {
		m.l.Routes().Add(&route.Entry{
			Family: inet.AFInet6, Dst: zero[:], Plen: 0,
			Flags:   route.FlagUp | route.FlagGateway | route.FlagDynamic,
			Gateway: meta.Src6, IfName: ifp.Name,
			Expire: now.Add(routerLife),
		})
		m.mu.Lock()
		m.routers[meta.Src6] = now.Add(routerLife)
		m.mu.Unlock()
	} else {
		m.l.Routes().Delete(inet.AFInet6, zero[:], 0)
		m.mu.Lock()
		delete(m.routers, meta.Src6)
		m.mu.Unlock()
	}

	// Suggested hop limit (§4.2.2).
	if curHop > 0 {
		m.l.DefaultHopLimit = curHop
	}
	// Suggested MTU.
	if mb, ok := opts[optMTU]; ok && len(mb) >= 6 {
		if mtu := int(get32(mb[2:])); mtu > 0 && mtu < ifp.MTU() {
			ifp.SetMTU(mtu)
		}
	}

	// Prefix options can repeat; parseNDOpts keeps only the last of a
	// type, so rescan for all prefix options.
	for b := body[12:]; len(b) >= 2; {
		n := int(b[1]) * 8
		if n == 0 || n > len(b) {
			break
		}
		if b[0] == optPrefixInfo && n >= 32 {
			m.prefixInput(ifp, b[:n], now)
		}
		b = b[n:]
	}
}

// prefixInput applies one advertised prefix: an on-link cloning route,
// and/or an autoconfigured address (§4.2.2: "The node then takes the
// token from its link-local address, and prepends the advertised
// prefix to form an automatically configured globally routable
// address").
func (m *Module) prefixInput(ifp *netif.Interface, opt []byte, now time.Time) {
	plen := int(opt[2])
	onLink := opt[3]&0x80 != 0
	auto := opt[3]&0x40 != 0
	validLft := lifetimeDuration(get32(opt[4:]))
	prefLft := lifetimeDuration(get32(opt[8:]))
	var prefix inet.IP6
	copy(prefix[:], opt[16:32])
	if prefix.IsLinkLocal() || prefix.IsMulticast() || plen <= 0 || plen > 128 {
		return
	}

	if onLink {
		e := &route.Entry{
			Family: inet.AFInet6, Dst: append([]byte(nil), prefix[:]...), Plen: plen,
			Flags:  route.FlagUp | route.FlagCloning | route.FlagLLInfo | route.FlagDynamic,
			IfName: ifp.Name,
		}
		if validLft != 0 {
			e.Expire = now.Add(validLft)
		}
		m.l.Routes().Add(e)
	}

	if auto && plen == 64 {
		ll, ok := ifp.LinkLocal6(now)
		if !ok {
			return
		}
		addr := inet.WithPrefix(prefix, plen, ll)
		if ifp.HasAddr6(addr) {
			// Refresh lifetimes (this is how renumbering shortens the
			// old prefix's lifetime and introduces the new one).
			ifp.UpdateAddr6(addr, func(a *netif.Addr6) {
				a.Created = now
				a.ValidLft = validLft
				a.PreferredLft = prefLft
			})
			return
		}
		err := ifp.AddAddr6(netif.Addr6{
			Addr: addr, Plen: plen, Autoconf: true, Tentative: true,
			Created: now, ValidLft: validLft, PreferredLft: prefLft,
		})
		if err != nil {
			return
		}
		m.StartDAD(ifp, addr)
	}
}

// ensureNeighbor installs a resolved neighbor host route (used for
// routers learned via RA/RS options).  isRouter marks the neighbor as
// a router, which pins it against neighbor-cache eviction.
func (m *Module) ensureNeighbor(ifp *netif.Interface, addr inet.IP6, mac inet.LinkAddr, isRouter bool) {
	rt, ok := m.l.Routes().Lookup(inet.AFInet6, addr[:])
	host := false
	if ok {
		m.l.Routes().View(func() { host = rt.Host() })
	}
	if !ok || !host {
		rt = m.l.Routes().Add(&route.Entry{
			Family: inet.AFInet6, Dst: append([]byte(nil), addr[:]...), Plen: 128,
			Flags: route.FlagUp | route.FlagHost | route.FlagLLInfo | route.FlagDynamic, IfName: ifp.Name,
		})
	}
	m.l.Learn(ifp, rt, mac, false)
	if isRouter {
		m.l.SetRouter(rt, true)
	}
}

// raTick emits scheduled unsolicited advertisements.
func (m *Module) raTick(now time.Time) {
	var due []string
	m.mu.Lock()
	for name, at := range m.raAt {
		if cfg := m.rcfg[name]; cfg != nil && !now.Before(at) {
			due = append(due, name)
			m.raAt[name] = now.Add(cfg.Interval)
		}
	}
	m.mu.Unlock()
	for _, name := range due {
		m.sendRA(name, inet.AllNodes)
	}
}

// expireTick removes addresses past their valid lifetime (§4.2.2
// renumbering) and leaves their solicited-node groups.
func (m *Module) expireTick(now time.Time) {
	for _, ifp := range m.l.Interfaces() {
		for _, addr := range ifp.ExpireAddrs6(now) {
			m.l.LeaveGroup(ifp.Name, inet.SolicitedNode(addr))
		}
	}
}

// Routers lists the currently known default routers (host side).
func (m *Module) Routers(now time.Time) []inet.IP6 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []inet.IP6
	for r, exp := range m.routers {
		if now.Before(exp) {
			out = append(out, r)
		}
	}
	return out
}
