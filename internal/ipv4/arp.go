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

// ARP is IPv4's half of the shared neighbor cache (ip.Neighbor): the
// wire codec, the input and the who-has solicit.  The paper notes ND
// keeps link-layer information "much as 4.4BSD implements ARP entries"
// (§4.3); here the two run one state machine.

// EtherTypeARP is the link-layer type of ARP frames.
const EtherTypeARP = 0x0806

const (
	arpRequest = 1
	arpReply   = 2
)

// ARP's neighbor-cache timing.  A reject comes at the first tick after
// the last try (no RejectWait).  A resolved entry goes stale after
// 4.4BSD's arpt_keep; its next use polls the neighbor at its cached
// address, as RFC 1122 §2.3.2.1's unicast poll does, and a neighbor
// that answers none of arpMaxProbes polls is deleted, so the next
// packet broadcasts for it afresh.
const (
	arpMaxTries   = 5
	arpMaxProbes  = 2 // RFC 1122's typical MAX_RETRIES
	arpRetry      = time.Second
	arpKeep       = 20 * time.Minute
	arpRejectLife = 20 * time.Second
)

var arpTiming = ip.NeighborTiming{Retrans: arpRetry, MaxMulticast: arpMaxTries, MaxUnicast: arpMaxProbes,
	Reachable: arpKeep, RejectLinger: arpRejectLife}

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

// arpSolicit sends a who-has request for target: broadcast, or, to
// poll a stale entry, unicast to the address the entry holds.
func (l *Layer) arpSolicit(ifp *netif.Interface, target inet.IP4, unicast bool) {
	src, ok := srcAddrOn(ifp)
	if !ok {
		return
	}
	dst := netif.Broadcast
	if unicast {
		rt, found := l.Routes().Lookup(inet.AFInet, target[:])
		if !found {
			return
		}
		l.Routes().View(func() { dst, found = rt.Gateway.(inet.LinkAddr) })
		if !found {
			return
		}
	}
	req := mbuf.New(arpMarshal(arpRequest, ifp.HW, src, inet.LinkAddr{}, target))
	ifp.Output(dst, EtherTypeARP, req)
	l.Stats.ArpRequests.Inc()
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

	// Learn or refresh the sender's mapping if it is an on-link
	// neighbor of ours.
	if rt, ok := l.Routes().Lookup(inet.AFInet, spa[:]); ok {
		mine := false
		l.Routes().View(func() {
			mine = rt.Host() && rt.Flags&route.FlagLLInfo != 0 && rt.IfName == ifp.Name
		})
		if mine {
			l.Learn(ifp, rt, sha, true)
		}
	}

	if op == arpRequest && ifp.HasAddr4(tpa) {
		rep := mbuf.New(arpMarshal(arpReply, ifp.HW, tpa, sha, spa))
		ifp.Output(sha, EtherTypeARP, rep)
		l.Stats.ArpReplies.Inc()
	}
}

// srcAddrOn returns the first IPv4 address on ifp.
func srcAddrOn(ifp *netif.Interface) (src inet.IP4, ok bool) {
	ifp.EachAddr4(func(a netif.Addr4) {
		if !ok {
			src, ok = a.Addr, true
		}
	})
	return src, ok
}
