package mbuf

import (
	"sync"
	"sync/atomic"
)

// The slab pool: BSD keeps mbufs and clusters on free lists so the
// datapath never goes to the allocator per packet; this is the same
// idea on sync.Pool, with a few size classes instead of the fixed
// MCLBYTES geometry.  Get hands out a single-segment packet whose
// slab has Headroom bytes of leading space, so each layer's Prepend
// lands in place and the whole wire image — transport header, IP
// header, payload — lives in one allocation for its entire life.
//
// Ownership rule (see DESIGN.md): a pooled packet is owned by exactly
// one party at a time.  Whoever consumes a packet terminally — the
// transport input routine after delivering its bytes into the socket
// layer, which copies — calls Free; everyone who stores packet bytes
// beyond the call must copy them first.  Free with poisoning enabled
// (SetPoison) overwrites the slab so any aliasing survivor reads
// garbage immediately instead of corrupting silently.

// Headroom is the leading space reserved in pooled slabs for headers
// prepended below the transport layer.  It is sized for the full
// encapsulation stack a packet can accrete on one node, so Prepend
// never spills into a new segment even under nested tunnels + IPsec
// (the classic lightweight-tunnel trap: headroom sized one layer deep
// costs a reallocation per nested encap).  The budget:
//
//	inner IPv6 header                40
//	ESP tunnel mode (hdr+IV+pad+ICV) 62
//	AH                               24
//	tunnel outer #1 (v6)             40
//	tunnel outer #2 (v6)             40
//	                                ---
//	                                206  → rounded up to 256
//
// The ESP trailer (pad, pad length, next header and ICV: at most 29
// bytes, counting the 12 the AEAD seal borrows for its nonce) goes into
// the slab's trailing space instead, which Get leaves as whatever the
// size class has beyond Headroom+n.  ESP output seals in place when
// that suffices and gathers the packet into a fresh slab when it does
// not.
const Headroom = 256

// slabClasses are the pooled slab sizes. 512 covers bare ACKs and
// control packets plus headroom; 1792 an Ethernet MTU frame plus
// headroom; 9216 a jumbo/reassembled datagram; 65664 the largest UDP
// datagram before fragmentation.
var slabClasses = [...]int{512, 1792, 9216, 65664}

var slabPools [len(slabClasses)]sync.Pool

// Pool accounting: every slab handed out by getSlab is counted until
// putSlab sees it again, so a datapath that loses packets without
// freeing them shows up as monotonically growing Outstanding() — the
// leak detector the flood-soak tests assert on.
var (
	slabGets  atomic.Uint64
	slabFrees atomic.Uint64
	outBytes  atomic.Int64
)

// prependSpills counts Prepend calls on pooled packets that found too
// little leading space and fell back to allocating a new segment —
// each one is a headroom budget miss.  The encap no-realloc tests
// assert this stays zero through two levels of tunnel encapsulation.
var prependSpills atomic.Uint64

// PrependSpills returns the cumulative count of pooled-packet Prepend
// operations that could not land in the slab's leading space.
func PrependSpills() uint64 { return prependSpills.Load() }

// Outstanding returns the bytes of slab memory currently handed out
// and not yet freed, the live-mbuf gauge (BSD's mbstat m_mbufs in
// spirit).  Steady traffic holds it near zero between packets; growth
// proportional to traffic volume means a drop path lost a Free.
func Outstanding() int64 { return outBytes.Load() }

// PoolStats returns the monotonic slab get/free counters alongside the
// Outstanding gauge, for snapshots and leak audits.
func PoolStats() (gets, frees uint64, outstanding int64) {
	return slabGets.Load(), slabFrees.Load(), outBytes.Load()
}

var poison atomic.Bool

// SetPoison toggles poison-on-free: every freed slab is overwritten
// with 0xDB so use-after-free aliasing shows up as corrupt packets
// (and checksum failures) instead of silent flakiness. Debug/test use.
func SetPoison(on bool) { poison.Store(on) }

// Get returns a packet of length n in a single pooled segment with
// Headroom bytes of leading space. The contents are uninitialized —
// callers overwrite all n bytes. Free returns the slab to its pool.
func Get(n int) *Mbuf {
	total := n + Headroom
	h := getSlab(total)
	m := &Mbuf{}
	seg := &m.seg0
	seg.data = (*h)[Headroom : Headroom+n]
	seg.slab = h
	seg.off = Headroom
	m.head, m.tail = seg, seg
	m.hdr.Len = n
	return m
}

// getSlab returns the pool's handle on a slab of at least total bytes.
// The handle travels with the segment and goes back to the pool as is,
// so a put allocates nothing.
func getSlab(total int) *[]byte {
	for i, sz := range slabClasses {
		if total <= sz {
			slabGets.Add(1)
			outBytes.Add(int64(sz))
			if v := slabPools[i].Get(); v != nil {
				return v.(*[]byte)
			}
			slab := make([]byte, sz)
			return &slab
		}
	}
	// Oversize: plain allocation, never pooled (Free lets it GC).
	slabGets.Add(1)
	outBytes.Add(int64(total))
	slab := make([]byte, total)
	return &slab
}

// Free releases the packet's pooled slabs back to their pools and
// empties the chain. Only the packet's owner may call it, and the
// packet (and any slice into it) must not be used afterwards.
// Segments that are not pool-owned are simply dropped for the GC, so
// Free is always safe to call on any packet the caller owns.
func (m *Mbuf) Free() {
	if m == nil {
		return
	}
	releaseFrom(m.head)
	m.head, m.tail = nil, nil
	m.hdr.Len = 0
}

func putSlab(h *[]byte) {
	slab := *h
	slabFrees.Add(1)
	outBytes.Add(-int64(cap(slab)))
	if poison.Load() {
		for i := range slab {
			slab[i] = 0xDB
		}
	}
	for i, sz := range slabClasses {
		if cap(slab) == sz {
			slabPools[i].Put(h)
			return
		}
	}
}
