package ipv4

import (
	"time"

	"bsd6/internal/inet"
	"bsd6/internal/ip"
	"bsd6/internal/mbuf"
	"bsd6/internal/netif"
	"bsd6/internal/route"
	"bsd6/internal/stat"
)

// EtherTypeARP is the link-layer type of ARP frames.
const EtherTypeARP = 0x0806

const (
	arpRequest = 1
	arpReply   = 2

	arpMaxTries   = 5
	arpRetry      = time.Second
	arpEntryLife  = 20 * time.Minute
	arpRejectLife = 20 * time.Second
)

// arpEntry is the llinfo attached to an IPv4 neighbor host route,
// mirroring 4.4 BSD's struct llinfo_arp. The IPv6 counterpart is the
// ND machine in icmp6; the paper notes ND keeps link-layer information
// "much as 4.4BSD implements ARP entries" (§4.3).
type arpEntry struct {
	ip.HoldQueue // packets awaiting resolution
	resolved     bool
	tries        int
	lastSent     time.Time
}

// arpMarshal builds an ARP packet for IPv4-over-Ethernet.
func arpMarshal(op uint16, sha inet.LinkAddr, spa inet.IP4, tha inet.LinkAddr, tpa inet.IP4) []byte {
	b := make([]byte, 28)
	b[0], b[1] = 0, 1 // hardware: ethernet
	b[2], b[3] = 0x08, 0x00
	b[4], b[5] = 6, 4
	b[6], b[7] = byte(op>>8), byte(op)
	copy(b[8:14], sha[:])
	copy(b[14:18], spa[:])
	copy(b[18:24], tha[:])
	copy(b[24:28], tpa[:])
	return b
}

// arpResolve maps an on-link next hop to a MAC; it is the layer's
// resolver.  If unresolved it holds the packet and emits a who-has
// broadcast.  A rejected entry drops the packet while the reject
// lingers and resolves afresh after it, as 4.4 BSD's arpresolve does;
// transmit reports neither as an error.
func (l *Layer) arpResolve(ifp *netif.Interface, rt *route.Entry, _ int, _ any, nextHop inet.IP4, pkt *mbuf.Mbuf) (inet.LinkAddr, bool, error) {
	// ARP entry state (route fields + llinfo) lives under the routing
	// table lock, as in BSD where splnet guards both.  Fast path: a
	// resolved entry needs no state transition and no clock, so the
	// per-packet cost is one shared lock, as in ND's Resolve.
	routes := l.Routes()
	var mac inet.LinkAddr
	resolved := false
	routes.View(func() {
		mac, resolved = arpResolved(rt)
	})
	if resolved {
		return mac, true, nil
	}
	now := routes.Now()
	rejected, held, needSend := false, false, false
	routes.Mutate(func() {
		if mac, resolved = arpResolved(rt); resolved {
			return // resolved since the fast path looked
		}
		if rt.Flags&route.FlagReject != 0 {
			if now.Before(rt.Expire) {
				rejected = true
				return
			}
			rt.Flags &^= route.FlagReject // retry after the reject lingered
			rt.LLInfo = nil
		}
		e, _ := rt.LLInfo.(*arpEntry)
		if e == nil {
			e = &arpEntry{}
			rt.LLInfo = e
		}
		held = e.Hold(pkt)
		if now.Sub(e.lastSent) >= arpRetry {
			needSend = true
			e.lastSent = now
			e.tries++
		}
	})
	switch {
	case resolved:
		return mac, true, nil
	case rejected:
		l.Stats.OutNoRoute.Inc()
		l.Drops.DropNote(stat.RV4NoRoute, nextHop.String())
		pkt.Free()
		return inet.LinkAddr{}, false, nil
	case !held:
		l.Stats.OutDrops.Inc()
		l.Drops.DropNote(stat.RArpQueueFull, nextHop.String())
		pkt.Free()
	}
	if needSend {
		src, ok := srcAddrOn(ifp)
		if !ok {
			return inet.LinkAddr{}, false, nil
		}
		req := mbuf.New(arpMarshal(arpRequest, ifp.HW, src, inet.LinkAddr{}, nextHop))
		ifp.Output(netif.Broadcast, EtherTypeARP, req)
		l.Stats.ArpRequests.Inc()
	}
	return inet.LinkAddr{}, false, nil
}

// arpResolved returns the link-layer address of a resolved, usable
// ARP entry.  The caller holds the table lock (shared or exclusive).
func arpResolved(rt *route.Entry) (inet.LinkAddr, bool) {
	m, ok := rt.Gateway.(inet.LinkAddr)
	if !ok || rt.Flags&route.FlagReject != 0 {
		return inet.LinkAddr{}, false
	}
	if e, _ := rt.LLInfo.(*arpEntry); e != nil && !e.resolved {
		return inet.LinkAddr{}, false
	}
	return m, true
}

// ArpInput processes a received ARP frame (the stack demuxes on
// EtherType and calls this).
func (l *Layer) ArpInput(ifp *netif.Interface, pkt *mbuf.Mbuf) {
	defer pkt.Free() // everything kept below is copied out
	b := pkt.PullUp(28)
	if b == nil || b[0] != 0 || b[1] != 1 || b[2] != 0x08 || b[3] != 0 || b[4] != 6 || b[5] != 4 {
		l.Stats.ArpBad.Inc()
		l.Drops.DropPkt(stat.RArpBad, pkt.Bytes())
		return
	}
	op := uint16(b[6])<<8 | uint16(b[7])
	var sha inet.LinkAddr
	var spa, tpa inet.IP4
	copy(sha[:], b[8:14])
	copy(spa[:], b[14:18])
	copy(tpa[:], b[24:28])

	// Learn/refresh the sender's mapping if we have (or want) a route.
	l.learnArp(ifp, spa, sha)

	if op == arpRequest && ifp.HasAddr4(tpa) {
		src, _ := srcAddrOn(ifp)
		_ = src
		rep := mbuf.New(arpMarshal(arpReply, ifp.HW, tpa, sha, spa))
		ifp.Output(sha, EtherTypeARP, rep)
		l.Stats.ArpReplies.Inc()
	}
}

// learnArp installs/updates the neighbor host route for spa and flushes
// any packets queued on it.
func (l *Layer) learnArp(ifp *netif.Interface, spa inet.IP4, sha inet.LinkAddr) {
	routes := l.Routes()
	rt, ok := routes.Lookup(inet.AFInet, spa[:])
	if !ok {
		return
	}
	var flush []*mbuf.Mbuf
	now := routes.Now()
	routes.Mutate(func() {
		if !rt.Host() || rt.Flags&route.FlagLLInfo == 0 || rt.IfName != ifp.Name {
			return // not an on-link neighbor of ours
		}
		rt.Gateway = sha
		rt.Flags &^= route.FlagReject
		rt.Expire = now.Add(arpEntryLife)
		if e, _ := rt.LLInfo.(*arpEntry); e != nil {
			flush = e.Take()
			e.resolved = true
			e.tries = 0
		} else {
			rt.LLInfo = &arpEntry{resolved: true}
		}
	})
	ip.Send(ifp, sha, netif.EtherTypeIPv4, flush)
}

// arpTimer retries pending resolutions and rejects entries that have
// exhausted their tries (the RTF_REJECT lingering the paper describes
// for ND has this ARP analog in BSD).
func (l *Layer) arpTimer(now time.Time) {
	type retry struct {
		ifp     *netif.Interface
		nextHop inet.IP4
	}
	var retries []retry
	drops := 0
	// Snapshot candidate entries under the walk, then process each one
	// under the same (table) lock via Mutate — the walk itself holds
	// that lock, so state seen here cannot regress.
	var candidates []*route.Entry
	routes := l.Routes()
	routes.Walk(inet.AFInet, func(rt *route.Entry) bool {
		if e, _ := rt.LLInfo.(*arpEntry); e != nil && !e.resolved {
			candidates = append(candidates, rt)
		}
		return true
	})
	for _, rt := range candidates {
		routes.Mutate(func() {
			e, _ := rt.LLInfo.(*arpEntry)
			if e == nil || e.resolved {
				return
			}
			if e.tries >= arpMaxTries {
				rt.Flags |= route.FlagReject
				rt.Expire = now.Add(arpRejectLife)
				drops += e.Drop() // resolution failed: the hold queue was their last stop
				e.tries = 0
				e.lastSent = time.Time{}
				return
			}
			if now.Sub(e.lastSent) >= arpRetry {
				e.lastSent = now
				e.tries++
				var nh inet.IP4
				copy(nh[:], rt.Dst)
				if ifp := l.Interface(rt.IfName); ifp != nil {
					retries = append(retries, retry{ifp, nh})
				}
			}
		})
	}
	l.Stats.OutDrops.Add(uint64(drops))
	for _, r := range retries {
		src, ok := srcAddrOn(r.ifp)
		if !ok {
			continue
		}
		req := mbuf.New(arpMarshal(arpRequest, r.ifp.HW, src, inet.LinkAddr{}, r.nextHop))
		r.ifp.Output(netif.Broadcast, EtherTypeARP, req)
		l.Stats.ArpRequests.Inc()
	}
}

// srcAddrOn returns the first IPv4 address on ifp.
func srcAddrOn(ifp *netif.Interface) (inet.IP4, bool) {
	addrs := ifp.Addrs4()
	if len(addrs) == 0 {
		return inet.IP4{}, false
	}
	return addrs[0].Addr, true
}
