package ip

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"bsd6/internal/inet"
	"bsd6/internal/mbuf"
	"bsd6/internal/netif"
	"bsd6/internal/route"
	"bsd6/internal/stat"
)

// The reassembly tests drive Layer.Reassemble on a bare layer of each
// family's policy.  A fragment carries reasmHdr bytes of headers, each
// the fragment's mark, ahead of its data, so a test can tell whose
// headers a datagram kept.

const reasmHdr = 8

// reasmRig is a bare layer whose fragments go straight to Reassemble.
type reasmRig[A Addr] struct {
	tb       testing.TB
	l        *Layer[A]
	ifp      *netif.Interface
	now      time.Time
	stats    Stats
	drops    *stat.Recorder
	src, dst A
	fail     stat.Reason // the family's ReasmFailReason
	overlap  stat.Reason // the family's ReasmOverlapReason
	quoted   [][]byte    // what each Time Exceeded would quote
	mark     byte        // the header mark of the last datagram completed
}

func newReasmRig[A Addr](tb testing.TB, src, dst A, abandon bool, maxDatagram int) *reasmRig[A] {
	r := &reasmRig[A]{tb: tb, now: time.Unix(1_000_000, 0), src: src, dst: dst,
		fail: stat.RV4ReasmFail, overlap: stat.RV6ReasmOverlap}
	tab := route.NewTable()
	tab.Now = func() time.Time { return r.now }
	r.drops = stat.NewRecorder(0)
	r.l = NewLayer(tab, Family[A]{
		AF:                  inet.AFInet,
		ErrNoRoute:          errors.New("no route"),
		ErrMsgSize:          errors.New("too big"),
		LocalAddrs:          func(*netif.Interface, func(A)) {},
		LinkDst:             func(A) (inet.LinkAddr, bool) { return inet.LinkAddr{}, false },
		Solicit:             func(*netif.Interface, A, bool) {},
		AbandonOverlap:      abandon,
		MaxDatagram:         maxDatagram,
		Stats:               &r.stats,
		ReasmFailReason:     r.fail,
		ReasmOverlapReason:  r.overlap,
		ReasmOverflowReason: stat.RV4ReasmOverflow,
		ReasmTimeoutReason:  stat.RV4ReasmTimeout,
	})
	r.l.Drops = r.drops
	r.ifp = netif.New("r0", inet.LinkAddr{2, 0, 0, 0, 0, 0xa}, 1500)
	return r
}

// v4Rig and v6Rig are rigs with the families' policies and limits.
func v4Rig(tb testing.TB) *reasmRig[inet.IP4] {
	return newReasmRig(tb, inet.IP4{10, 0, 0, 1}, inet.IP4{10, 0, 0, 2}, false, 65535)
}

func v6Rig(tb testing.TB) *reasmRig[inet.IP6] {
	return newReasmRig(tb, inet.IP6{0: 0xfe, 1: 0x80, 15: 1}, inet.IP6{0: 0xfe, 1: 0x80, 15: 2}, true, 40+65535+8)
}

func (r *reasmRig[A]) key(id uint32) FragKey[A] { return FragKey[A]{Src: r.src, Dst: r.dst, ID: id} }

// send offers datagram k the fragment at off with data, its headers
// marked mark, and returns the datagram's data if it completed.
func (r *reasmRig[A]) send(k FragKey[A], mark byte, off int, more bool, data []byte) ([]byte, bool) {
	m := mbuf.Get(reasmHdr + len(data))
	b := m.Bytes()
	for i := range reasmHdr {
		b[i] = mark
	}
	copy(b[reasmHdr:], data)
	whole, hdr := r.l.Reassemble(r.ifp, k, m, reasmHdr, off, more)
	if whole == nil {
		return nil, false
	}
	defer whole.Free()
	got := whole.CopyBytes()
	r.mark = got[0]
	if hdr != reasmHdr || whole.Hdr().RcvIf != r.ifp.Name {
		r.tb.Fatalf("datagram with %d header bytes from %q, want %d from %q", hdr, whole.Hdr().RcvIf, reasmHdr, r.ifp.Name)
	}
	for _, c := range got[:hdr] {
		if c != got[0] {
			r.tb.Fatalf("datagram headers %x mix fragments", got[:hdr])
		}
	}
	return got[hdr:], true
}

// frag offers datagram id a fragment marked 0xff.
func (r *reasmRig[A]) frag(id uint32, off int, more bool, data string) (string, bool) {
	out, done := r.send(r.key(id), 0xff, off, more, []byte(data))
	return string(out), done
}

// expire runs the expiry d from now, recording each quote.
func (r *reasmRig[A]) expire(d time.Duration) {
	r.now = r.now.Add(d)
	r.l.ExpireReasm(r.now, func(first *mbuf.Mbuf) { r.quoted = append(r.quoted, first.CopyBytes()) })
}

func TestReasmInOrder(t *testing.T) {
	r := v4Rig(t)
	if _, done := r.frag(1, 0, true, "hello "); done {
		t.Fatal("premature completion")
	}
	if out, done := r.frag(1, 6, false, "world"); !done || out != "hello world" {
		t.Fatalf("got %q %v", out, done)
	}
}

func TestReasmOutOfOrder(t *testing.T) {
	r := v4Rig(t)
	r.frag(1, 6, false, "world")
	if out, done := r.frag(1, 0, true, "hello "); !done || out != "hello world" {
		t.Fatalf("got %q %v", out, done)
	}
}

func TestReasmHoleBlocksCompletion(t *testing.T) {
	r := v4Rig(t)
	r.frag(1, 0, true, "aa")
	if _, done := r.frag(1, 4, false, "bb"); done {
		t.Fatal("completed with a hole")
	}
	if out, done := r.frag(1, 2, true, "cc"); !done || out != "aaccbb" {
		t.Fatalf("got %q %v", out, done)
	}
}

func TestReasmOverlapFirstArrivalWins(t *testing.T) {
	r := v4Rig(t)
	r.frag(1, 0, true, "AAAA")
	r.frag(1, 2, true, "bbbb") // overlaps [2,4): dropped there
	if out, done := r.frag(1, 6, false, "cc"); !done || out != "AAAAbbcc" {
		t.Fatalf("got %q %v", out, done)
	}
}

func TestReasmOverlapConflictingData(t *testing.T) {
	// RFC 5722's attack on IPv4: a later fragment rewrites bytes an
	// earlier one supplied.  The earlier arrival wins for every
	// overlapped byte, so the attacker's bytes never reach the
	// application; a fragment that falls around a held one keeps the
	// bytes on both sides of it.
	r := v4Rig(t)
	r.frag(1, 0, true, "GOODGOOD")
	r.frag(1, 4, true, "EVILEVIL") // [4,8) conflicts, [8,12) is new
	out, done := r.frag(1, 12, false, "tail")
	if !done || out != "GOODGOODEVILtail" {
		t.Fatalf("got %q %v: overlapped bytes must keep first arrival", out, done)
	}
	r.frag(2, 4, true, "mid!")
	r.frag(2, 0, true, "0123xxxx89") // around the held [4,8)
	if out, done := r.frag(2, 10, false, "ab"); !done || out != "0123mid!89ab" {
		t.Fatalf("got %q %v", out, done)
	}
}

func TestReasmDuplicateFragment(t *testing.T) {
	r := v4Rig(t)
	r.frag(1, 0, true, "xx")
	r.frag(1, 0, true, "yy") // exact duplicate range
	if out, done := r.frag(1, 2, false, "zz"); !done || out != "xxzz" {
		t.Fatalf("got %q %v", out, done)
	}
}

func TestReasmInconsistentLength(t *testing.T) {
	r := v4Rig(t)
	r.frag(1, 4, false, "tail")
	r.frag(1, 10, false, "t2") // two finals with different ends
	r.frag(2, 4, true, "abcd")
	r.frag(2, 2, false, "ab") // a final short of data held
	r.frag(3, 2, false, "ab")
	r.frag(3, 4, true, "cd") // a fragment beyond the final end
	if got := r.stats.ReasmFails.Get(); got != 3 || r.drops.Reasons.Get(r.fail) != 3 {
		t.Fatalf("ReasmFails %d, %s %d; want 3, 3", got, r.fail, r.drops.Reasons.Get(r.fail))
	}
	if n := r.l.FragQueueLen(); n != 0 {
		t.Fatalf("%d datagrams left queued, want none", n)
	}
}

func TestReasmTooLong(t *testing.T) {
	r := v4Rig(t)
	r.frag(1, 0, true, "head")
	if _, done := r.frag(1, 65535-reasmHdr, true, "x"); done {
		t.Fatal("completed past the limit")
	}
	if got := r.stats.ReasmFails.Get(); got != 1 {
		t.Fatalf("ReasmFails %d, want 1", got)
	}
	// The refused fragment leaves the datagram it tried to join alone.
	if out, done := r.frag(1, 4, false, "tail"); !done || out != "headtail" {
		t.Fatalf("got %q %v", out, done)
	}
}

func TestReasmTooManyPieces(t *testing.T) {
	r := v4Rig(t)
	for i := 0; i <= maxReasmFrags; i++ {
		r.frag(1, 2+i*2, true, "x") // gaps keep pieces separate
	}
	if got := r.stats.ReasmFails.Get(); got != 1 || r.l.FragQueueLen() != 0 {
		t.Fatalf("ReasmFails %d, %d queued; want 1, 0", got, r.l.FragQueueLen())
	}
}

func TestReasmZeroLengthFragment(t *testing.T) {
	// An empty fragment must not corrupt state.
	r := v4Rig(t)
	r.frag(1, 2, true, "")
	r.frag(1, 0, true, "ab")
	if out, done := r.frag(1, 2, false, "cd"); !done || out != "abcd" {
		t.Fatalf("got %q %v", out, done)
	}
}

func TestReasmSingleFragmentDatagram(t *testing.T) {
	// Offset zero with no more fragments is a whole datagram: it comes
	// straight back, even with a datagram of the same key open, and
	// leaves that datagram alone (RFC 6946).
	r := v6Rig(t)
	r.frag(1, 0, true, "open")
	if out, done := r.frag(1, 0, false, "whole"); !done || out != "whole" {
		t.Fatalf("got %q %v", out, done)
	}
	if out, done := r.frag(1, 4, false, "tail"); !done || out != "opentail" {
		t.Fatalf("got %q %v", out, done)
	}
}

func TestReasmOverlapAbandonsIPv6(t *testing.T) {
	// RFC 5722 and RFC 8200 §4.5: an overlap abandons the datagram,
	// an exact duplicate drops only itself.
	r := v6Rig(t)
	r.frag(1, 0, true, "AAAAAAAA")
	r.frag(1, 0, true, "AAAAAAAA")
	if out, done := r.frag(1, 8, false, "BBBBBBBB"); !done || out != "AAAAAAAABBBBBBBB" {
		t.Fatalf("duplicate: got %q %v", out, done)
	}
	r.frag(2, 0, true, "AAAAAAAA")
	r.frag(2, 4, true, "evilevil")
	if _, done := r.frag(2, 8, false, "BBBBBBBB"); done {
		t.Fatal("overlapped datagram completed")
	}
	if got := r.drops.Reasons.Get(r.overlap); got != 1 || r.stats.ReasmFails.Get() != 1 {
		t.Fatalf("%s %d, ReasmFails %d; want 1, 1", r.overlap, got, r.stats.ReasmFails.Get())
	}
}

func TestReasmKeysIndependent(t *testing.T) {
	r := v4Rig(t)
	r.frag(1, 0, true, "a1")
	r.frag(2, 0, true, "b1")
	if n := r.l.FragQueueLen(); n != 2 {
		t.Fatalf("FragQueueLen = %d", n)
	}
	if out, done := r.frag(1, 2, false, "a2"); !done || out != "a1a2" {
		t.Fatalf("got %q %v", out, done)
	}
	if r.l.FragQueueLen() != 1 {
		t.Fatal("completed datagram not removed")
	}
}

func TestReasmExpire(t *testing.T) {
	r := v4Rig(t)
	r.frag(1, 0, true, "a")
	r.now = r.now.Add(8 * time.Second)
	r.frag(2, 0, true, "b")
	r.expire(23 * time.Second)
	if r.l.FragQueueLen() != 1 || r.stats.ReasmFails.Get() != 1 {
		t.Fatalf("%d queued, ReasmFails %d; want 1, 1", r.l.FragQueueLen(), r.stats.ReasmFails.Get())
	}
	// Fragments for an expired datagram start a new one.
	if _, done := r.frag(1, 1, false, "late"); done {
		t.Fatal("stale state survived expiry")
	}
}

func TestReasmErrorAbandonsDatagram(t *testing.T) {
	r := v4Rig(t)
	r.frag(1, 4, false, "tail")
	r.frag(1, 10, false, "bad")
	if r.l.FragQueueLen() != 0 {
		t.Fatal("errored datagram kept")
	}
}

// Property: any partition of a payload into fragments, delivered in any
// order, reassembles to the original.
func TestReasmQuickAnyOrder(t *testing.T) {
	r := v4Rig(t)
	rng := rand.New(rand.NewSource(9))
	id := uint32(0)
	f := func(data []byte) bool {
		if len(data) == 0 {
			data = []byte{0}
		}
		type frag struct {
			off  int
			more bool
			data []byte
		}
		var frags []frag
		for off := 0; off < len(data); {
			n := 1 + rng.Intn(len(data)-off)
			frags = append(frags, frag{off, off+n < len(data), data[off : off+n]})
			off += n
		}
		rng.Shuffle(len(frags), func(i, j int) { frags[i], frags[j] = frags[j], frags[i] })
		id++
		var out []byte
		var done bool
		for _, fr := range frags {
			out, done = r.send(r.key(id), 1, fr.off, fr.more, fr.data)
		}
		return done && bytes.Equal(out, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReasmTimeExceededQuotesFirst(t *testing.T) {
	// A datagram that times out with fragment zero held is quoted from
	// that fragment, headers and all; one without it is not quoted.
	r := v4Rig(t)
	r.send(r.key(1), 0xa1, 8, true, []byte("tail"))
	r.send(r.key(2), 0xb2, 8, true, []byte("tail"))
	r.send(r.key(2), 0xb3, 0, true, []byte("head"))
	r.expire(31 * time.Second)
	want := append(bytes.Repeat([]byte{0xb3}, reasmHdr), "head"...)
	if len(r.quoted) != 1 || !bytes.Equal(r.quoted[0], want) {
		t.Fatalf("quoted %x, want one quote %x", r.quoted, want)
	}
}

func TestReasmTimeExceededKeepsContext(t *testing.T) {
	// The fragment handed to timeExceeded is the packet as received,
	// still naming the interface it came in on, so the error can be
	// built and sent back that way.
	r := v4Rig(t)
	r.ifp = netif.New("a0", inet.LinkAddr{2, 0, 0, 0, 0, 0xb}, 1500)
	r.send(r.key(1), 0xc4, 0, true, []byte("original packet"))
	if r.l.FragQueueLen() != 1 {
		t.Fatalf("%d queued, want 1", r.l.FragQueueLen())
	}
	var got [][]byte
	var ifs []string
	r.now = r.now.Add(2 * time.Minute)
	r.l.ExpireReasm(r.now, func(first *mbuf.Mbuf) {
		got = append(got, first.CopyBytes())
		ifs = append(ifs, first.Hdr().RcvIf)
	})
	want := append(bytes.Repeat([]byte{0xc4}, reasmHdr), "original packet"...)
	if len(got) != 1 || !bytes.Equal(got[0], want) || ifs[0] != "a0" {
		t.Fatalf("expired %x on %q, want one %x on a0", got, ifs, want)
	}
	if r.l.FragQueueLen() != 0 {
		t.Fatal("expired datagram kept")
	}
}

func TestReasmExpireCreationOrder(t *testing.T) {
	r := v4Rig(t)
	for _, id := range []uint32{7, 3, 9, 1} {
		r.send(r.key(id), byte(id), 0, true, []byte("x"))
	}
	r.expire(2 * time.Minute)
	var marks []byte
	for _, q := range r.quoted {
		marks = append(marks, q[0])
	}
	if !bytes.Equal(marks, []byte{7, 3, 9, 1}) {
		t.Fatalf("expiry order %v, want creation order [7 3 9 1]", marks)
	}
}

func TestReasmExpireSkipsFresh(t *testing.T) {
	r := v4Rig(t)
	r.frag(1, 0, true, "old")
	r.now = r.now.Add(90 * time.Second)
	r.frag(2, 0, true, "young")
	r.expire(30 * time.Second)
	if n := r.l.FragQueueLen(); n != 1 || len(r.quoted) != 1 {
		t.Fatalf("%d queued, %d expired; want 1, 1", n, len(r.quoted))
	}
}

func TestReasmDuplicateFinalFragments(t *testing.T) {
	// Two finals with the same end are a benign duplicate...
	r := v4Rig(t)
	r.frag(1, 4, false, "tail")
	r.frag(1, 4, false, "tail")
	if r.stats.ReasmFails.Get() != 0 {
		t.Fatal("same-end duplicate final rejected")
	}
	// ...but a final that moves the end is an attack and drops the
	// whole datagram.
	r.frag(2, 8, false, "end1")
	r.frag(2, 4, false, "end2")
	if r.stats.ReasmFails.Get() != 1 || r.l.FragQueueLen() != 1 {
		t.Fatalf("ReasmFails %d, %d queued; want 1, 1", r.stats.ReasmFails.Get(), r.l.FragQueueLen())
	}
}

// openReasm opens datagram id from src with a first fragment whose
// data is the id, so an expiry's quote names the datagram.
func (r *reasmRig[A]) openReasm(src A, id uint32) {
	data := binary.BigEndian.AppendUint32(nil, id)
	r.send(FragKey[A]{Src: src, Dst: r.dst, ID: id}, 0xff, 0, true, append(data, "pad!"...))
	r.now = r.now.Add(time.Millisecond)
}

// survivors expires every open datagram and returns their ids, oldest
// first.
func (r *reasmRig[A]) survivors() []uint32 {
	r.quoted = nil
	r.expire(time.Minute)
	var ids []uint32
	for _, q := range r.quoted {
		ids = append(ids, binary.BigEndian.Uint32(q[reasmHdr:]))
	}
	return ids
}

// seq returns the ids from through to.
func seq(from, to uint32) []uint32 {
	var ids []uint32
	for id := from; id <= to; id++ {
		ids = append(ids, id)
	}
	return ids
}

// TestReasmQuotaEvictsOldestPerSource drives the per-source quota:
// when one source holds its share of datagrams, its oldest is the
// victim, and other sources are untouched.
func TestReasmQuotaEvictsOldestPerSource(t *testing.T) {
	r := v4Rig(t)
	attacker, victim := inet.IP4{10, 6, 6, 6}, inet.IP4{10, 0, 0, 9}
	const share = DefaultReasmMaxPerSource
	for id := uint32(1); id <= share; id++ {
		r.openReasm(attacker, id)
	}
	r.openReasm(victim, 1000)
	if r.stats.ReasmOverflow.Get() != 0 {
		t.Fatal("eviction before the quota was reached")
	}
	r.openReasm(attacker, share+1) // evicts the attacker's 1
	r.openReasm(attacker, share+2) // and then its 2
	want := append(seq(3, share), 1000, share+1, share+2)
	if got := r.survivors(); !slices.Equal(got, want) || r.stats.ReasmOverflow.Get() != 2 {
		t.Fatalf("survivors %v after %d evictions, want %v after 2", got, r.stats.ReasmOverflow.Get(), want)
	}
	if got := r.drops.Reasons.Get(stat.RV4ReasmOverflow); got != 2 {
		t.Fatalf("%d overflow drops noted, want 2", got)
	}
}

// TestReasmQuotaEvictsGlobalOldest drives the global quota: the victim
// is the oldest datagram whatever its source, and a completion frees a
// place without an eviction.  The datagrams come from enough sources
// that none reaches its per-source share.
func TestReasmQuotaEvictsGlobalOldest(t *testing.T) {
	r := v4Rig(t)
	const full = DefaultReasmMaxDatagrams
	const sources = full/DefaultReasmMaxPerSource + 1
	src := func(id uint32) inet.IP4 { return inet.IP4{10, 1, 0, byte(id % sources)} }
	for id := uint32(1); id <= full+1; id++ {
		r.openReasm(src(id), id)
	}
	if got := r.stats.ReasmOverflow.Get(); got != 1 {
		t.Fatalf("%d evictions opening %d datagrams, want 1", got, full+1)
	}
	if _, done := r.send(FragKey[inet.IP4]{Src: src(2), Dst: r.dst, ID: 2}, 0xff, 8, false, []byte("b")); !done {
		t.Fatal("datagram 2 did not complete")
	}
	r.openReasm(src(full+2), full+2)
	want := seq(3, full+2)
	if got := r.survivors(); !slices.Equal(got, want) || r.stats.ReasmOverflow.Get() != 1 {
		t.Fatalf("%d survivors %v... after %d evictions, want %d from 3 after 1",
			len(got), got[:min(len(got), 4)], r.stats.ReasmOverflow.Get(), len(want))
	}
}

// TestReasmLeavesNoMbufs holds reassembly to the mbuf ownership
// contract under poison: whatever ends a datagram (completion, an
// overlap, a refused fragment, a quota or the timeout), every slab
// its fragments held goes back to the pool.
func TestReasmLeavesNoMbufs(t *testing.T) {
	mbuf.SetPoison(true)
	defer mbuf.SetPoison(false)
	r4, r6 := v4Rig(t), v6Rig(t)
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"completion", func() {
			r4.frag(1, 8, false, "tailtail")
			r4.frag(1, 4, true, "overlaps")
			if out, done := r4.frag(1, 0, true, "head"); out != "headovertailtail" || !done {
				t.Errorf("completion: got %q %v", out, done)
			}
		}},
		{"overlap", func() {
			r6.frag(1, 0, true, "AAAAAAAA")
			r6.frag(1, 8, true, "BBBBBBBB")
			r6.frag(1, 4, true, "evil")
		}},
		{"refused", func() {
			r4.frag(2, 0, true, "head")
			r4.frag(2, 8, false, "tail")
			r4.frag(2, 16, false, "moved")
		}},
		{"quota", func() {
			// Past the global quota, from sources each within its
			// share, then past one source's share.
			const sources = DefaultReasmMaxDatagrams/DefaultReasmMaxPerSource + 1
			id := uint32(100)
			for ; id < 100+sources*DefaultReasmMaxPerSource; id++ {
				r4.openReasm(inet.IP4{10, 1, 0, byte(id % sources)}, id)
			}
			for range DefaultReasmMaxPerSource + 1 {
				r4.openReasm(r4.src, id)
				id++
			}
			if r4.stats.ReasmOverflow.Get() == 0 {
				t.Error("quota: no eviction")
			}
			r4.expire(time.Minute)
		}},
		{"timeout", func() {
			r6.frag(2, 0, true, "AAAAAAAA")
			r6.frag(2, 16, true, "CCCCCCCC")
			r6.expire(time.Minute)
		}},
	} {
		base := mbuf.Outstanding()
		c.run()
		if got := mbuf.Outstanding(); got != base || r4.l.FragQueueLen()+r6.l.FragQueueLen() != 0 {
			t.Errorf("%s: %d bytes outstanding, %d datagrams queued; want %d, 0",
				c.name, got, r4.l.FragQueueLen()+r6.l.FragQueueLen(), base)
		}
	}
	if len(r6.quoted) != 1 {
		t.Errorf("%d Time Exceeded quotes on IPv6, want 1 (the timeout)", len(r6.quoted))
	}
}

// reasmModel is the reassembly oracle, byte by byte: RFC 791 with the
// first arrival winning for IPv4, and RFC 8200 §4.5 with RFC 5722's
// abandon for IPv6; in both a fragment that is a whole datagram
// stands alone (RFC 6946).  The last fragment fixes the length, a
// fragment that contradicts it fails the datagram, and so does one
// past the fragment limit.
type reasmModel struct {
	abandon bool
	open    bool
	total   int
	pieces  int
	data    []byte
	owner   []int    // per byte, 1 + the index of the fragment kept there; 0: none
	ranges  [][2]int // the fragments held whole, for IPv6's exact duplicate
}

func newReasmModel(span int, abandon bool) *reasmModel {
	return &reasmModel{abandon: abandon, data: make([]byte, span), owner: make([]int, span)}
}

// add offers the model fragment idx of a train and returns its
// verdict: held (for a duplicate too), complete with the datagram's
// data and the index of the fragment whose headers it keeps, failed
// or overlapped.
func (m *reasmModel) add(idx, off int, more bool, data []byte) (verdict, []byte, int) {
	end := off + len(data)
	if off == 0 && !more {
		return complete, data, -1
	}
	if !m.open {
		m.open, m.total, m.pieces, m.ranges = true, -1, 0, m.ranges[:0]
		clear(m.owner)
	}
	last := 0
	for i := len(m.owner) - 1; i >= 0; i-- {
		if m.owner[i] != 0 {
			last = i + 1
			break
		}
	}
	if !more && (m.total >= 0 && m.total != end || end < last) || more && m.total >= 0 && end > m.total || m.pieces >= maxReasmFrags {
		m.open = false
		return failed, nil, 0
	}
	if !more {
		m.total = end
	}
	overlap := slices.ContainsFunc(m.owner[off:end], func(o int) bool { return o != 0 })
	switch {
	case m.abandon && overlap:
		if !slices.Contains(m.ranges, [2]int{off, end}) {
			m.open = false
			return overlapped, nil, 0
		}
	case m.abandon:
		m.ranges = append(m.ranges, [2]int{off, end})
		m.pieces++
		fallthrough
	default:
		for i := off; i < end; i++ {
			if m.owner[i] == 0 {
				if !m.abandon && (i == off || m.owner[i-1] != idx+1) {
					m.pieces++
				}
				m.owner[i], m.data[i] = idx+1, data[i-off]
			}
		}
	}
	if m.total <= 0 || slices.Contains(m.owner[:m.total], 0) {
		return held, nil, 0
	}
	m.open = false
	return complete, m.data[:m.total], m.owner[0] - 1
}

// first is the index of the fragment zero an open datagram holds, -1
// when it holds none, and -2 when no datagram is open.
func (m *reasmModel) first() int {
	if !m.open {
		return -2
	}
	return m.owner[0] - 1
}

// reasmCheck offers fragments to a rig and to its model.
type reasmCheck[A Addr] struct {
	r *reasmRig[A]
	m *reasmModel
}

// offer offers fragment idx of a train to both and reports how they
// disagree, if they do: in the datagram delivered, the headers it
// kept (fragment idx's are marked 0x80|idx) or the drop verdict.
func (c *reasmCheck[A]) offer(id uint32, idx, off int, more bool, data []byte) string {
	fails, overlaps := c.r.stats.ReasmFails.Get(), c.r.drops.Reasons.Get(c.r.overlap)
	out, done := c.r.send(c.r.key(id), 0x80|byte(idx), off, more, data)
	v, want, first := c.m.add(idx, off, more, data)
	if first < 0 {
		first = idx
	}
	fails, overlaps = c.r.stats.ReasmFails.Get()-fails, c.r.drops.Reasons.Get(c.r.overlap)-overlaps
	switch {
	case done != (v == complete) || done && !bytes.Equal(out, want):
		return fmt.Sprintf("delivered %x (%v), want %x (%v)", out, done, want, v == complete)
	case fails != count(v >= failed) || overlaps != count(v == overlapped):
		return fmt.Sprintf("%d failed, %d overlapped; the model's verdict is %d", fails, overlaps, v)
	case done && c.r.mark != 0x80|byte(first):
		return fmt.Sprintf("datagram kept headers %#x, want fragment %d's", c.r.mark, first)
	}
	return ""
}

// expire times out the datagram a train left open and reports how the
// rig and the model disagree: in the failure count, or in whether
// fragment zero's headers were quoted.
func (c *reasmCheck[A]) expire() string {
	fails, quotes := c.r.stats.ReasmFails.Get(), len(c.r.quoted)
	c.r.expire(time.Minute)
	first := c.m.first()
	fails, quotes = c.r.stats.ReasmFails.Get()-fails, len(c.r.quoted)-quotes
	c.m.open = false
	switch {
	case fails != count(first != -2):
		return fmt.Sprintf("%d failed at expiry, want %d", fails, count(first != -2))
	case quotes != int(count(first >= 0)):
		return fmt.Sprintf("%d quoted at expiry, want %d", quotes, count(first >= 0))
	case first >= 0 && c.r.quoted[len(c.r.quoted)-1][0] != 0x80|byte(first):
		return fmt.Sprintf("quoted headers %#x, want fragment %d's", c.r.quoted[len(c.r.quoted)-1][0], first)
	}
	return ""
}

func count(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// TestReasmExhaustiveTrains offers each family's policy every train
// of one to four fragments of a 32-byte datagram on the 8-byte grid:
// a fragment is any run of whole 8-byte cells with either M flag (20
// shapes), in any order, duplicates allowed, 168,420 trains.  Each
// fragment's outcome and each train's expiry must match the model,
// and every train must give back every slab it took, under poison.
func TestReasmExhaustiveTrains(t *testing.T) {
	mbuf.SetPoison(true)
	defer mbuf.SetPoison(false)
	type shape struct {
		lo, hi int
		more   bool
	}
	var shapes []shape
	for lo := 0; lo < 32; lo += 8 {
		for hi := lo + 8; hi <= 32; hi += 8 {
			shapes = append(shapes, shape{lo, hi, false}, shape{lo, hi, true})
		}
	}
	var data [4][32]byte // fragment idx's bytes, by datagram offset
	for idx := range data {
		for i := range data[idx] {
			data[idx][i] = byte(idx<<5 | i)
		}
	}
	exhaust := func(name string, offer func(idx int, s shape) string, expire func() string) {
		start := time.Now()
		trains := 0
		var train []shape
		var walk func()
		walk = func() {
			if len(train) > 0 {
				trains++
				base := mbuf.Outstanding()
				for idx, s := range train {
					if why := offer(idx, s); why != "" {
						t.Fatalf("%s train %v, fragment %d: %s", name, train, idx, why)
					}
				}
				if why := expire(); why != "" {
					t.Fatalf("%s train %v: %s", name, train, why)
				}
				if got := mbuf.Outstanding(); got != base {
					t.Fatalf("%s train %v: %d bytes outstanding after it, want %d", name, train, got, base)
				}
			}
			if len(train) == 4 {
				return
			}
			for _, s := range shapes {
				train = append(train, s)
				walk()
				train = train[:len(train)-1]
			}
		}
		walk()
		if trains != 168_420 {
			t.Fatalf("%s: %d trains, want 168,420", name, trains)
		}
		t.Logf("%s: %d trains in %v", name, trains, time.Since(start).Round(time.Millisecond))
	}
	c4 := &reasmCheck[inet.IP4]{v4Rig(t), newReasmModel(32, false)}
	c6 := &reasmCheck[inet.IP6]{v6Rig(t), newReasmModel(32, true)}
	exhaust("IPv4", func(idx int, s shape) string {
		return c4.offer(1, idx, s.lo, s.more, data[idx][s.lo:s.hi])
	}, c4.expire)
	exhaust("IPv6", func(idx int, s shape) string {
		return c6.offer(1, idx, s.lo, s.more, data[idx][s.lo:s.hi])
	}, c6.expire)
}

// FuzzReasmInsert interprets the input as a train of fragments of one
// datagram and offers each to both families' policies and to their
// models: what completes must be exactly the model's bytes (for IPv4
// the earliest fragment to claim each offset, the property RFC 5722
// overlap attacks try to break), at exactly the announced length,
// and each fragment the model abandons a datagram for must abandon
// it under the same verdict.  When the train ends the datagrams left
// open expire and every slab comes back.
//
// Each 4-byte chunk encodes one fragment: 13-bit offset, 6-bit
// length (1..64), a more bit, and a byte seed for the payload.
func FuzzReasmInsert(f *testing.F) {
	f.Add([]byte{0, 0, 23, 1, 0, 24 >> 8, 24, 7, 0xff})
	f.Add([]byte{0, 8, 63, 2, 0, 0, 63, 0})
	f.Add([]byte{0x1f, 0xff, 63, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const span = 1<<13 + 64 // max offset + max fragment length
		c4 := &reasmCheck[inet.IP4]{v4Rig(t), newReasmModel(span, false)}
		c6 := &reasmCheck[inet.IP6]{v6Rig(t), newReasmModel(span, true)}
		base := mbuf.Outstanding()
		for i := 0; i+4 <= len(ops) && i < 4*256; i += 4 {
			off := int(uint16(ops[i])<<8|uint16(ops[i+1])) & 0x1fff
			n := 1 + int(ops[i+2]&0x3f)
			more := ops[i+3]&1 != 0
			data := make([]byte, n)
			for j := range data {
				data[j] = ops[i+3] + byte(j)
			}
			if why := c4.offer(1, i/4, off, more, data); why != "" {
				t.Fatalf("IPv4 fragment %d: %s", i/4, why)
			}
			if why := c6.offer(1, i/4, off, more, data); why != "" {
				t.Fatalf("IPv6 fragment %d: %s", i/4, why)
			}
		}
		for _, why := range []string{c4.expire(), c6.expire()} {
			if why != "" {
				t.Fatal(why)
			}
		}
		if got := mbuf.Outstanding(); got != base {
			t.Fatalf("%d bytes outstanding after the train, want %d", got, base)
		}
	})
}
