package ipv4

import (
	"time"

	"bsd6/internal/inet"
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
	arpMaxQueue   = 8 // packets held per unresolved entry
	arpRejectLife = 20 * time.Second
)

// arpEntry is the llinfo attached to an IPv4 neighbor host route,
// mirroring 4.4 BSD's struct llinfo_arp. The IPv6 counterpart is the
// ND machine in icmp6; the paper notes ND keeps link-layer information
// "much as 4.4BSD implements ARP entries" (§4.3).
type arpEntry struct {
	resolved bool
	tries    int
	lastSent time.Time
	queue    []*mbuf.Mbuf // packets awaiting resolution
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

// arpResolve maps an on-link next hop to a MAC. If unresolved it queues
// the packet and emits a who-has broadcast; the caller is done with the
// packet either way.
func (l *Layer) arpResolve(ifp *netif.Interface, rt *route.Entry, nextHop inet.IP4, pkt *mbuf.Mbuf) (inet.LinkAddr, bool) {
	// ARP entry state (route fields + llinfo) lives under the routing
	// table lock, as in BSD where splnet guards both.  Fast path: a
	// resolved entry needs no state transition and no clock, so the
	// per-packet cost is one shared lock, as in ND's Resolve.
	var mac inet.LinkAddr
	resolved := false
	l.routes.View(func() {
		mac, resolved = arpResolved(rt)
	})
	if resolved {
		return mac, true
	}
	now := l.routes.Now()
	rejected := false
	needSend := false
	l.routes.Mutate(func() {
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
		if len(e.queue) < arpMaxQueue {
			e.queue = append(e.queue, pkt)
			pkt = nil // ownership moved to the hold queue
		} else {
			l.Stats.OutDrops.Inc()
		}
		if now.Sub(e.lastSent) >= arpRetry {
			needSend = true
			e.lastSent = now
			e.tries++
		}
	})
	if resolved {
		return mac, true
	}
	// Not handed to the device and not on the hold queue (rejected
	// entry, or queue full): the packet ends here.
	pkt.Free()
	if rejected {
		l.Stats.OutNoRoute.Inc()
		return inet.LinkAddr{}, false
	}

	if needSend {
		src, ok := srcAddrOn(ifp)
		if !ok {
			return inet.LinkAddr{}, false
		}
		req := mbuf.New(arpMarshal(arpRequest, ifp.HW, src, inet.LinkAddr{}, nextHop))
		ifp.Output(netif.Broadcast, EtherTypeARP, req)
		l.Stats.ArpRequests.Inc()
	}
	return inet.LinkAddr{}, false
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
	rt, ok := l.routes.Lookup(inet.AFInet, spa[:])
	if !ok {
		return
	}
	var flush []*mbuf.Mbuf
	now := l.routes.Now()
	l.routes.Mutate(func() {
		if !rt.Host() || rt.Flags&route.FlagLLInfo == 0 || rt.IfName != ifp.Name {
			return // not an on-link neighbor of ours
		}
		rt.Gateway = sha
		rt.Flags &^= route.FlagReject
		rt.Expire = now.Add(arpEntryLife)
		if e, _ := rt.LLInfo.(*arpEntry); e != nil {
			flush = e.queue
			e.queue = nil
			e.resolved = true
			e.tries = 0
		} else {
			rt.LLInfo = &arpEntry{resolved: true}
		}
	})
	for _, qp := range flush {
		ifp.Output(sha, netif.EtherTypeIPv4, qp)
	}
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
	var drops []*mbuf.Mbuf
	// Snapshot candidate entries under the walk, then process each one
	// under the same (table) lock via Mutate — the walk itself holds
	// that lock, so state seen here cannot regress.
	var candidates []*route.Entry
	l.routes.Walk(inet.AFInet, func(rt *route.Entry) bool {
		if e, _ := rt.LLInfo.(*arpEntry); e != nil && !e.resolved {
			candidates = append(candidates, rt)
		}
		return true
	})
	for _, rt := range candidates {
		l.routes.Mutate(func() {
			e, _ := rt.LLInfo.(*arpEntry)
			if e == nil || e.resolved {
				return
			}
			if e.tries >= arpMaxTries {
				rt.Flags |= route.FlagReject
				rt.Expire = now.Add(arpRejectLife)
				drops = append(drops, e.queue...)
				e.queue = nil
				e.tries = 0
				e.lastSent = time.Time{}
				return
			}
			if now.Sub(e.lastSent) >= arpRetry {
				e.lastSent = now
				e.tries++
				var nh inet.IP4
				copy(nh[:], rt.Dst)
				l.mu.Lock()
				ifp := l.ifaces[rt.IfName]
				l.mu.Unlock()
				if ifp != nil {
					retries = append(retries, retry{ifp, nh})
				}
			}
		})
	}
	l.Stats.OutDrops.Add(uint64(len(drops)))
	for _, d := range drops {
		d.Free() // resolution failed; the hold queue was their last stop
	}
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
