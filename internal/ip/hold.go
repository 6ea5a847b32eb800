package ip

import (
	"bsd6/internal/inet"
	"bsd6/internal/mbuf"
	"bsd6/internal/netif"
)

// MaxHold is how many packets one unresolved neighbor holds.
const MaxHold = 8

// HoldQueue is the packets waiting on one unresolved neighbor: 4.4
// BSD's la_hold, grown to MaxHold packets.  ARP's and Neighbor
// Discovery's link-layer entries embed one, and mutate it under the
// routing-table lock that guards the entry.  Its ReleaseOnEvict makes
// the entry a route.NeighborRelease, so an entry the neighbor-cache
// cap evicts, or a route add replaces, returns its packets to the pool.
type HoldQueue struct {
	pkts []*mbuf.Mbuf
}

// Hold appends pkt, which the queue then owns, or reports false when
// the queue is full and the caller must drop pkt.
func (q *HoldQueue) Hold(pkt *mbuf.Mbuf) bool {
	if len(q.pkts) >= MaxHold {
		return false
	}
	q.pkts = append(q.pkts, pkt)
	return true
}

// Take empties the queue and returns its packets in arrival order, for
// Send once the neighbor is learned.
func (q *HoldQueue) Take() []*mbuf.Mbuf {
	pkts := q.pkts
	q.pkts = nil
	return pkts
}

// Drop frees the held packets, as when resolution fails, and returns
// how many there were.
func (q *HoldQueue) Drop() int {
	for _, pkt := range q.pkts {
		pkt.Free()
	}
	n := len(q.pkts)
	q.pkts = nil
	return n
}

// ReleaseOnEvict implements route.NeighborRelease.
func (q *HoldQueue) ReleaseOnEvict() { q.Drop() }

// Send transmits packets taken from a hold queue to the learned
// link-layer address, freeing any the device refuses.
func Send(ifp *netif.Interface, mac inet.LinkAddr, etherType uint16, pkts []*mbuf.Mbuf) {
	for _, pkt := range pkts {
		output(ifp, mac, etherType, pkt)
	}
}
