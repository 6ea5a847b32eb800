package ip

import (
	"slices"
	"time"

	"bsd6/internal/mbuf"
	"bsd6/internal/netif"
)

// Reassembly (§2.2): IPv4 routers fragment in the network and IPv6
// sources fragment end to end, but a receiver puts a datagram back
// together the same way in both families.  As in 4.4 BSD's ip_reass,
// each fragment stays in the mbuf it arrived in: reassembly trims
// and links mbufs and copies no payload byte.  A datagram completes
// as fragment zero's mbuf, its headers intact, with the other
// fragments' data linked behind its own, and the family rewrites
// those headers for the whole datagram.  The paper's reassembly
// timeout sent no Time Exceeded because the offending packet was gone
// (§4.1 footnote); fragment zero is held as it arrived, so here the
// error quotes it, as RFC 2460 §4.5 asks.

const (
	reasmTimeout  = 30 * time.Second // how long an incomplete datagram may wait
	maxReasmFrags = 512              // fragments one datagram may hold
)

// Reassembly quotas: a datagram ceiling (BSD's ip_maxfragpackets
// descendant) and a per-source share of it, so one spoofed source
// cannot own the whole queue.
const (
	DefaultReasmMaxDatagrams = 256
	DefaultReasmMaxPerSource = 16
)

// reass is one datagram under reassembly, BSD's struct ipq: the
// fragments held, in offset order and disjoint.
type reass[A Addr] struct {
	key     FragKey[A]
	created time.Time
	total   int // the datagram's data length, -1 until the last fragment arrives
	have    int // data bytes held
	frags   []fragment
	inline  [2]fragment // frags' storage for a datagram of two fragments
}

// fragment is one held piece of a datagram: the bytes of m after its
// first hdr are the datagram's from off on.  Only fragment zero keeps
// headers; every other piece is data alone.
type fragment struct {
	m   *mbuf.Mbuf
	off int
	hdr int
}

func (f *fragment) end() int { return f.off + f.m.Len() - f.hdr }

// verdict is what one fragment did to its datagram.
type verdict int

const (
	held       verdict = iota // what the fragment brought, if anything, is held
	complete                  // the datagram is whole
	failed                    // the fragments disagree: the datagram is abandoned
	overlapped                // fragments overlap under the IPv6 policy: abandoned
)

// add takes m, a fragment whose data follows hdr bytes of headers and
// runs from off to end, more its M flag.  A failed or overlapped
// verdict leaves m to the caller; any other consumes it.  The last
// fragment fixes the length, which no fragment may then contradict,
// and the first fragment at offset zero keeps its headers.  Under
// abandon (IPv6) any overlap but an exact duplicate abandons the
// datagram; otherwise (IPv4) a fragment is trimmed to the bytes no
// earlier fragment holds, and one that falls around a held fragment
// is split.
func (r *reass[A]) add(m *mbuf.Mbuf, hdr, off, end int, more, abandon bool) verdict {
	last := 0
	if n := len(r.frags); n > 0 {
		last = r.frags[n-1].end()
	}
	switch {
	case !more && (r.total >= 0 && r.total != end || end < last),
		more && r.total >= 0 && end > r.total,
		len(r.frags) >= maxReasmFrags:
		return failed
	}
	if !more {
		r.total = end
	}
	k := 0
	for k < len(r.frags) && r.frags[k].end() <= off {
		k++
	}
	if abandon && off < end && k < len(r.frags) && r.frags[k].off < end {
		if p := r.frags[k]; p.off != off || p.end() != end {
			return overlapped
		}
	}
	if off > 0 {
		m.Adj(hdr)
		hdr = 0
	}
	at := off
	for m != nil && k < len(r.frags) && r.frags[k].off < end {
		p := r.frags[k]
		if p.off > at {
			rest := m.Split(hdr + p.off - at)
			r.frags = slices.Insert(r.frags, k, fragment{m, at, hdr})
			r.have += p.off - at
			m, hdr, at, k = rest, 0, p.off, k+1
		}
		if p.end() >= end {
			m.Free()
			m = nil
			break
		}
		m.Adj(hdr + p.end() - at)
		hdr, at, k = 0, p.end(), k+1
	}
	if m != nil && at < end {
		r.frags = slices.Insert(r.frags, k, fragment{m, at, hdr})
		r.have += end - at
	} else {
		m.Free() // nothing new, or an empty fragment
	}
	if r.total > 0 && r.have == r.total {
		return complete
	}
	return held
}

// join links the fragments of a complete datagram into fragment
// zero's mbuf and returns it with the length of its headers.
func (r *reass[A]) join() (*mbuf.Mbuf, int) {
	whole := r.frags[0].m
	for _, f := range r.frags[1:] {
		whole.Cat(f.m)
	}
	return whole, r.frags[0].hdr
}

// free releases every fragment held.
func (r *reass[A]) free() {
	for _, f := range r.frags {
		f.m.Free()
	}
	r.frags = nil
}

// String names the datagram by its addresses, as drop notes do.
func (k FragKey[A]) String() string { return k.Src.String() + ">" + k.Dst.String() }

// Reassemble adds a fragment to its datagram: ip_reass and KAME's
// frag6_input in one.  It takes ownership of pkt, a fragment of the
// datagram k received on ifp, whose data follows hdr bytes of headers
// and begins at byte off of the datagram; more is its M flag.  Once
// the datagram is whole it returns fragment zero's mbuf with every
// other fragment's data linked behind its own, and hdr0, the length
// of fragment zero's headers; until then it returns nil, holding or
// freeing pkt.  A fragment that is a whole datagram (offset zero, no
// more) comes straight back and leaves the queue alone (RFC 6946).
// IPv4 keeps the bytes that arrived first where fragments overlap;
// IPv6 abandons the datagram (the family's AbandonOverlap).
func (l *Layer[A]) Reassemble(ifp *netif.Interface, k FragKey[A], pkt *mbuf.Mbuf, hdr, off int, more bool) (whole *mbuf.Mbuf, hdr0 int) {
	pkt.Hdr().RcvIf = ifp.Name
	if off == 0 && !more {
		return pkt, hdr
	}
	end := off + pkt.Len() - hdr
	v := failed
	var r *reass[A]
	l.mu.Lock()
	if hdr+end <= l.fam.MaxDatagram {
		r = l.reass(k)
		v = r.add(pkt, hdr, off, end, more, l.fam.AbandonOverlap)
		if v != held {
			l.unlink(r)
		}
	}
	l.mu.Unlock()
	switch v {
	case complete:
		l.fam.Stats.Reassembled.Inc()
		return r.join()
	case failed, overlapped:
		why := l.fam.ReasmFailReason
		if v == overlapped {
			why = l.fam.ReasmOverlapReason
		}
		l.fam.Stats.ReasmFails.Inc()
		l.Drops.DropPkt(why, pkt.Bytes())
		pkt.Free()
		if r != nil {
			r.free()
		}
	}
	return nil, 0
}

// reass finds k's datagram, or starts one after making room for it
// under the quotas.  The caller holds l.mu.
func (l *Layer[A]) reass(k FragKey[A]) *reass[A] {
	for _, r := range l.frags {
		if r.key == k {
			return r
		}
	}
	n, oldest := 0, -1
	for i, r := range l.frags {
		if r.key.Src == k.Src {
			if n++; oldest < 0 {
				oldest = i
			}
		}
	}
	if n >= DefaultReasmMaxPerSource {
		l.evict(l.frags[oldest])
	}
	if len(l.frags) >= DefaultReasmMaxDatagrams {
		l.evict(l.frags[0])
	}
	r := &reass[A]{key: k, created: l.routes.Now(), total: -1}
	r.frags = r.inline[:0]
	l.frags = append(l.frags, r)
	return r
}

// unlink takes r off the queue.  The caller holds l.mu.
func (l *Layer[A]) unlink(r *reass[A]) {
	if i := slices.Index(l.frags, r); i >= 0 {
		l.frags = slices.Delete(l.frags, i, i+1)
	}
}

// evict discards the datagram r on behalf of a quota: the stalest
// state goes, never the arriving fragment.  The caller holds l.mu.
func (l *Layer[A]) evict(r *reass[A]) {
	l.unlink(r)
	l.fam.Stats.ReasmOverflow.Inc()
	l.fam.Stats.ReasmFails.Inc()
	l.Drops.DropNote(l.fam.ReasmOverflowReason, r.key.String())
	r.free()
}

// ExpireReasm abandons the datagrams that have waited past the
// reassembly timeout at now, oldest first.  For each that holds
// fragment zero it calls timeExceeded with that fragment, as it
// arrived, before freeing it: the family's Time Exceeded quotes it.
func (l *Layer[A]) ExpireReasm(now time.Time, timeExceeded func(first *mbuf.Mbuf)) {
	var dead []*reass[A]
	l.mu.Lock()
	live := l.frags[:0]
	for _, r := range l.frags {
		if now.Sub(r.created) <= reasmTimeout {
			live = append(live, r)
			continue
		}
		dead = append(dead, r)
		l.Drops.DropNote(l.fam.ReasmTimeoutReason, r.key.String())
	}
	clear(l.frags[len(live):])
	l.frags = live
	l.mu.Unlock()
	l.fam.Stats.ReasmFails.Add(uint64(len(dead)))
	for _, r := range dead {
		if len(r.frags) > 0 && r.frags[0].off == 0 {
			timeExceeded(r.frags[0].m)
		}
		r.free()
	}
}

// FragQueueLen returns the number of in-progress reassemblies.
func (l *Layer[A]) FragQueueLen() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.frags)
}
