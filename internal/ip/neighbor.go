package ip

import (
	"time"

	"bsd6/internal/inet"
	"bsd6/internal/mbuf"
	"bsd6/internal/netif"
	"bsd6/internal/route"
)

// The neighbor cache (§4.3): a neighbor is a host route whose Gateway
// is its link-layer address and whose LLInfo is a Neighbor, "much as
// 4.4BSD implements ARP entries".  One state machine serves ARP and
// Neighbor Discovery; each family supplies its solicit and its timing
// (NeighborTiming) and keeps its wire codec and input.  Entry state
// lives under the routing-table lock, as in BSD where splnet guards
// the route and its llinfo together.

// MaxHold is how many packets one unresolved neighbor holds: 4.4
// BSD's la_hold, grown from one packet.
const MaxHold = 8

// NeighborState is a neighbor's reachability state.
type NeighborState int

// The neighbor states.
const (
	Incomplete NeighborState = iota // resolution in progress
	Reachable                       // confirmed recently
	Stale                           // usable, confirmation aged out
	Probe                           // unicast re-confirmation in progress
)

// String names the state as netstat -r shows it.
func (s NeighborState) String() string {
	switch s {
	case Incomplete:
		return "incomplete"
	case Reachable:
		return "reachable"
	case Stale:
		return "stale"
	case Probe:
		return "probe"
	}
	return "?"
}

// NeighborTiming is a family's neighbor-cache clock.
type NeighborTiming struct {
	Retrans      time.Duration // between two solicits
	RejectWait   time.Duration // from the last solicit to the reject or delete
	MaxMulticast int           // multicast (broadcast) solicits before the reject
	MaxUnicast   int           // unicast probes before the delete
	Reachable    time.Duration // how long a confirmation lasts; 0: for ever
	RejectLinger time.Duration // how long a neighbor that never resolved stays rejected
}

// Neighbor is the LLInfo of a neighbor host route: BSD's llinfo_arp
// and llinfo_nd6 in one.
type Neighbor struct {
	held      []*mbuf.Mbuf // packets awaiting resolution, at most MaxHold
	state     NeighborState
	tries     int       // solicits sent in this state
	lastSent  time.Time // when the last solicit went out
	confirmed time.Time // when reachability was last confirmed
	router    bool
}

// EvictPinned implements route.NeighborPin: a router's entry is never
// evicted by the neighbor-cache cap, since losing the default router
// to a cache flood would cut off all off-link traffic.
func (n *Neighbor) EvictPinned() bool { return n.router }

// ReleaseOnEvict implements route.NeighborRelease: an entry the cap
// evicts, or a route add replaces, frees the packets it held.
func (n *Neighbor) ReleaseOnEvict() { n.drop() }

// drop frees the held packets and returns how many there were.
func (n *Neighbor) drop() int {
	for _, pkt := range n.held {
		pkt.Free()
	}
	k := len(n.held)
	n.held = nil
	return k
}

// rejected is the one reject rule: rt refuses traffic while it carries
// RTF_REJECT and its linger, if it has one, has not run out at now, as
// 4.4 BSD's ether_output tests rmx_expire.  The caller holds the table
// lock.
func rejected(rt *route.Entry, now time.Time) bool {
	return rt.Flags&route.FlagReject != 0 && lingering(rt.Expire, now)
}

// lingering reports whether a reject that runs out at expire (never,
// when it is zero) still holds at now.
func lingering(expire, now time.Time) bool {
	return expire.IsZero() || now.Before(expire)
}

// Rejected applies the reject rule to rt, reading the clock only when
// rt carries RTF_REJECT.
func (l *Layer[A]) Rejected(rt *route.Entry) bool {
	var reject bool
	var expire time.Time
	l.routes.View(func() { reject, expire = rt.Flags&route.FlagReject != 0, rt.Expire })
	return reject && lingering(expire, l.routes.Now())
}

// linkAddr returns the link-layer address a packet may use through rt
// with no state change: a neighbor reachable or being probed, or a
// static neighbor route (a link-layer gateway and no entry).  The
// caller holds the table lock.
func linkAddr(rt *route.Entry) (inet.LinkAddr, bool) {
	mac, ok := rt.Gateway.(inet.LinkAddr)
	if !ok || rt.Flags&route.FlagReject != 0 {
		return inet.LinkAddr{}, false
	}
	if n, _ := rt.LLInfo.(*Neighbor); n != nil && n.state != Reachable && n.state != Probe {
		return inet.LinkAddr{}, false
	}
	return mac, true
}

// resolve maps nextHop, whose neighbor route is rt, to its link-layer
// address (arpresolve, nd6_resolve) when the caller's shared read
// found it unresolved.  A stale entry is used and probed, a rejected
// one drops pkt while its reject lingers and resolves afresh after it,
// and an unresolved one holds pkt and solicits once per Retrans until
// its tries are used up.  When it returns false it has consumed pkt.
func (l *Layer[A]) resolve(ifp *netif.Interface, rt *route.Entry, nextHop A, pkt *mbuf.Mbuf) (inet.LinkAddr, bool) {
	var mac inet.LinkAddr
	ok := false
	now := l.routes.Now()
	rej, held, probe, solicit := false, false, false, false
	l.routes.Mutate(func() {
		if mac, ok = linkAddr(rt); ok {
			return // resolved since the caller looked
		}
		n, _ := rt.LLInfo.(*Neighbor)
		if rt.Flags&route.FlagReject != 0 {
			if rej = rejected(rt, now); rej {
				return
			}
			rt.Flags &^= route.FlagReject // the linger ran out: resolve afresh
			n = nil
		}
		if n != nil && n.state == Stale {
			// Use the stale address and start probing it, unless an
			// upper-layer confirmation arrives first.  The probe sent
			// here is the first of MaxUnicast (RFC 4861 §7.3.3).
			mac, ok = rt.Gateway.(inet.LinkAddr)
			n.state, n.tries, n.lastSent = Probe, 1, now
			probe = true
			return
		}
		if n == nil {
			n = &Neighbor{}
			rt.LLInfo = n
		}
		if held = len(n.held) < MaxHold; held {
			n.held = append(n.held, pkt)
		}
		if n.tries < l.fam.Neighbor.MaxMulticast && now.Sub(n.lastSent) >= l.fam.Neighbor.Retrans {
			n.lastSent = now
			n.tries++
			solicit = true
		}
	})
	switch {
	case ok:
		if probe {
			l.fam.Solicit(ifp, nextHop, true)
		}
		return mac, true
	case rej:
		l.fam.Stats.OutNoRoute.Inc()
		l.Drops.DropNote(l.fam.NoRouteReason, nextHop.String())
		pkt.Free()
	case !held:
		l.fam.Stats.OutDrops.Inc()
		l.Drops.DropNote(l.fam.HoldFullReason, nextHop.String())
		pkt.Free()
	}
	if solicit {
		l.fam.Solicit(ifp, nextHop, false)
	}
	return inet.LinkAddr{}, false
}

// Learn records that the neighbor behind rt answers at mac, ending any
// reject, and sends the packets held for it.  confirm says the message
// proves reachability (any ARP packet, a solicited advertisement);
// without it a new or changed address is still reachable, and an
// unchanged one completes a pending resolution as stale.
func (l *Layer[A]) Learn(ifp *netif.Interface, rt *route.Entry, mac inet.LinkAddr, confirm bool) {
	now := l.routes.Now()
	var flush []*mbuf.Mbuf
	l.routes.Mutate(func() {
		n, _ := rt.LLInfo.(*Neighbor)
		if n == nil {
			n = &Neighbor{}
			rt.LLInfo = n
		}
		prev, had := rt.Gateway.(inet.LinkAddr)
		rt.Gateway = mac
		rt.Flags &^= route.FlagReject
		rt.Expire = time.Time{}
		if confirm || !had || prev != mac {
			n.state, n.confirmed = Reachable, now
		} else if n.state == Incomplete {
			n.state = Stale
		}
		n.tries = 0
		flush, n.held = n.held, nil
	})
	for _, pkt := range flush {
		output(ifp, mac, l.fam.EtherType, pkt)
	}
}

// SetRouter records whether the neighbor behind rt is a router, which
// pins its entry against the neighbor-cache cap.
func (l *Layer[A]) SetRouter(rt *route.Entry, isRouter bool) {
	l.routes.Mutate(func() {
		if n, _ := rt.LLInfo.(*Neighbor); n != nil {
			n.router = isRouter
		}
	})
}

// Confirm records upper-layer reachability confirmation of dst, or of
// the gateway dst is routed through (§4.3: "Upper-level protocols
// (e.g. TCP) can also be used to provide reachability confirmation").
func (l *Layer[A]) Confirm(dst A) {
	rt, ok := l.routes.Lookup(l.fam.AF, addrBytes(&dst))
	if !ok {
		return
	}
	var gw any
	l.routes.View(func() {
		if rt.Flags&route.FlagGateway != 0 {
			gw = rt.Gateway
		}
	})
	if grt, ok := gatewayRoute(l.routes, rt, gw); ok {
		rt = grt
	}
	now := l.routes.Now()
	l.routes.Mutate(func() {
		if n, _ := rt.LLInfo.(*Neighbor); n != nil && n.state != Incomplete {
			n.state, n.confirmed, n.tries = Reachable, now, 0
		}
	})
}

// NeighborState reports the reachability state of the neighbor dst,
// for netstat -r.
func (l *Layer[A]) NeighborState(dst A) (st NeighborState, ok bool) {
	if rt, found := l.routes.Lookup(l.fam.AF, addrBytes(&dst)); found {
		l.routes.View(func() {
			n, _ := rt.LLInfo.(*Neighbor)
			if ok = n != nil && rt.Flags&route.FlagLLInfo != 0; ok {
				st = n.state
			}
		})
	}
	return st, ok
}

// NeighborTimer is the neighbor cache's clock (arptimer, nd6_timer),
// run from the family's tick: it ages reachable entries to stale,
// re-solicits pending ones, rejects those that used up their
// multicast tries, dropping what they held under the family's
// ResolveFailReason, and deletes those whose unicast probes went
// unanswered.  A rejected entry is not solicited again until its
// linger runs out and a packet needs it, so a dead neighbor costs
// MaxMulticast solicits per linger, not one a second; a deleted one
// is solicited afresh by the next packet, so a neighbor that changed
// its link-layer address is found again at once.
// It returns how many resolutions and probes failed.
func (l *Layer[A]) NeighborTimer(now time.Time) int {
	nt := &l.fam.Neighbor
	// Collect the entries this tick may change, so that a settled
	// cache (every entry reachable and confirmed within Reachable, or
	// stale) costs no allocation.
	var entries []*route.Entry
	l.routes.Walk(l.fam.AF, func(rt *route.Entry) bool {
		n, ok := rt.LLInfo.(*Neighbor)
		if ok && rt.Flags&route.FlagReject == 0 && n.state != Stale && (n.state != Reachable || aged(n, nt, now)) {
			entries = append(entries, rt)
		}
		return true
	})
	type solicit struct {
		rt      *route.Entry
		unicast bool
	}
	type failure struct {
		rt   *route.Entry
		held int
	}
	var out []solicit
	var fails []failure
	l.routes.Mutate(func() {
		for _, rt := range entries {
			n, _ := rt.LLInfo.(*Neighbor)
			if n == nil || rt.Flags&route.FlagReject != 0 {
				// A rejected neighbor stays quiet: the first packet
				// after its linger resolves it afresh.
				continue
			}
			switch n.state {
			case Reachable:
				if aged(n, nt, now) {
					n.state = Stale
				}
				continue
			case Stale:
				continue
			}
			limit := nt.MaxMulticast
			if n.state == Probe {
				limit = nt.MaxUnicast
			}
			since := now.Sub(n.lastSent)
			switch {
			case n.tries >= limit && since >= nt.RejectWait && n.state == Probe:
				// Unanswered probes delete the neighbor (RFC 4861
				// §7.3.3, RFC 1122's unicast poll): the next packet
				// resolves it afresh, as it would a new one.
				rt.Gateway, rt.LLInfo = nil, nil
				fails = append(fails, failure{rt, 0})
			case n.tries >= limit && since >= nt.RejectWait:
				rt.Flags |= route.FlagReject
				rt.Expire = now.Add(nt.RejectLinger)
				// The hold queue was their last stop.
				fails = append(fails, failure{rt, n.drop()})
				n.state, n.tries = Incomplete, 0
			case n.tries < limit && since >= nt.Retrans:
				n.lastSent = now
				n.tries++
				out = append(out, solicit{rt, n.state == Probe})
			}
		}
	})
	for _, f := range fails {
		l.fam.Stats.OutDrops.Add(uint64(f.held))
		if f.held > 0 && l.Drops != nil {
			note := entryAddr[A](f.rt).String()
			for range f.held {
				l.Drops.DropNote(l.fam.ResolveFailReason, note)
			}
		}
	}
	for _, s := range out {
		if ifp := l.Interface(s.rt.IfName); ifp != nil {
			l.fam.Solicit(ifp, entryAddr[A](s.rt), s.unicast)
		}
	}
	return len(fails)
}

// aged reports whether n's last confirmation has outlived the
// family's Reachable time at now.  The caller holds the table lock.
func aged(n *Neighbor, nt *NeighborTiming, now time.Time) bool {
	return nt.Reachable > 0 && now.Sub(n.confirmed) > nt.Reachable
}

// entryAddr is the address a host route is for.
func entryAddr[A Addr](rt *route.Entry) A {
	var a A
	copy(addrBytes(&a), rt.Dst)
	return a
}

// addrBytes is a's bytes, for a table lookup.
func addrBytes[A Addr](a *A) []byte {
	switch p := any(a).(type) {
	case *inet.IP4:
		return p[:]
	case *inet.IP6:
		return p[:]
	}
	return nil
}
