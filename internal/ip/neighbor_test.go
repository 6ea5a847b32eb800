package ip

import (
	"bytes"
	"errors"
	"slices"
	"testing"
	"time"

	"bsd6/internal/inet"
	"bsd6/internal/mbuf"
	"bsd6/internal/netif"
	"bsd6/internal/route"
	"bsd6/internal/stat"
	"bsd6/internal/vclock"
)

// The neighbor machine's table tests run every case with ARP's and
// Neighbor Discovery's timing, on a bare layer with one neighbor route
// and an interface that records what it sends.  The timings mirror
// ipv4's arp* and ipv6's ND* constants, which this package cannot
// import; the ipv4 and icmp6 suites run the families' own.

var nbrMAC = inet.LinkAddr{2, 0, 0, 0, 0, 0xb}

var neighborFamilies = []struct {
	name string
	rig  func(tb testing.TB) nbrRig
}{
	{"ARP", func(tb testing.TB) nbrRig {
		nt := NeighborTiming{Retrans: time.Second, MaxMulticast: 5, MaxUnicast: 2,
			Reachable: 20 * time.Minute, RejectLinger: 20 * time.Second}
		return newRig(tb, inet.AFInet, nt, stat.RArpResolveFailed, 500*time.Millisecond, inet.IP4{10, 0, 0, 2})
	}},
	{"ND", func(tb testing.TB) nbrRig {
		nt := NeighborTiming{Retrans: time.Second, RejectWait: time.Second, MaxMulticast: 3, MaxUnicast: 3,
			Reachable: 30 * time.Second, RejectLinger: 20 * time.Second}
		return newRig(tb, inet.AFInet6, nt, stat.RNDResolveFailed, time.Second, inet.IP6{0: 0xfe, 1: 0x80, 15: 2})
	}},
}

// rigLog is what a rig records, whatever its address family.
type rigLog struct {
	nt       NeighborTiming
	tickLen  time.Duration // how often the family runs NeighborTimer
	clk      *vclock.Virtual
	tab      *route.Table
	rt       *route.Entry // the neighbor's host route
	stats    Stats
	drops    *stat.Recorder
	failWhy  stat.Reason // the family's ResolveFailReason
	solicits []bool      // the unicast flag of each solicit
	sent     []byte      // the first payload byte of each frame sent
	failed   int         // resolutions NeighborTimer reported failed
}

// nbrRig drives one neighbor of a rig.
type nbrRig interface {
	log() *rigLog
	send(seq byte)        // transmit a one-byte datagram to the neighbor
	tick()                // advance one family tick and run the timer
	timer()               // run the timer now
	learn(confirm bool)   // the neighbor answers at nbrMAC
	confirm()             // an upper layer confirms the neighbor
	state() NeighborState // the neighbor's state
	rejected() bool       // the reject rule refuses the neighbor now
	known() bool          // the route holds a neighbor entry
	addNeighbors(n int)   // n more neighbor routes are added
	resolveFast()         // the resolver's reachable path, for benchmarks
	failResolution(t *testing.T)
}

type rig[A Addr] struct {
	rigLog
	tb  testing.TB
	l   *Layer[A]
	ifp *netif.Interface
	nbr A
}

func newRig[A Addr](tb testing.TB, af inet.Family, nt NeighborTiming, failWhy stat.Reason, tick time.Duration, nbr A) *rig[A] {
	r := &rig[A]{tb: tb, nbr: nbr}
	r.nt, r.tickLen, r.failWhy = nt, tick, failWhy
	r.drops = stat.NewRecorder(0)
	r.clk = vclock.NewVirtual(time.Unix(1_000_000, 0))
	r.tab = route.NewTable()
	r.tab.Now = r.clk.Now
	r.l = NewLayer(r.tab, Family[A]{
		AF:         af,
		EtherType:  0x88b5,
		ErrNoRoute: errors.New("no route"),
		ErrMsgSize: errors.New("too big"),
		LocalAddrs: func(*netif.Interface, func(A)) {},
		LinkDst:    func(A) (inet.LinkAddr, bool) { return inet.LinkAddr{}, false },
		Solicit: func(_ *netif.Interface, target A, unicast bool) {
			if target != r.nbr {
				tb.Errorf("solicit for %v, want %v", target, r.nbr)
			}
			r.solicits = append(r.solicits, unicast)
		},
		Neighbor:          nt,
		Stats:             &r.stats,
		ResolveFailReason: failWhy,
	})
	r.l.Drops = r.drops
	r.ifp = netif.New("t0", inet.LinkAddr{2, 0, 0, 0, 0, 0xa}, 1500)
	r.ifp.SetFlags(netif.FlagUp, true)
	r.ifp.SetOutput(func(fr netif.Frame) error {
		if fr.Dst != nbrMAC {
			tb.Errorf("frame to %v, want %v", fr.Dst, nbrMAC)
		}
		r.sent = append(r.sent, fr.Payload.Bytes()[0])
		fr.Payload.Free()
		return nil
	})
	r.l.AddInterface(r.ifp)
	r.rt = r.addRoute(nbr)
	return r
}

func (r *rig[A]) addRoute(a A) *route.Entry {
	dst := append([]byte(nil), addrBytes(&a)...)
	return r.tab.Add(&route.Entry{Family: r.l.fam.AF, Dst: dst, Plen: 8 * len(dst),
		Flags: route.FlagUp | route.FlagHost | route.FlagLLInfo | route.FlagDynamic, IfName: r.ifp.Name})
}

func (r *rig[A]) log() *rigLog { return &r.rigLog }

func (r *rig[A]) send(seq byte) {
	pkt := mbuf.Get(1)
	pkt.Bytes()[0] = seq
	if err := r.l.Transmit(r.ifp, r.rt, r.nbr, pkt); err != nil {
		r.tb.Fatal(err)
	}
}

func (r *rig[A]) tick() {
	r.clk.Advance(r.tickLen)
	r.timer()
}

func (r *rig[A]) timer() { r.failed += r.l.NeighborTimer(r.clk.Now()) }

func (r *rig[A]) learn(confirm bool) { r.l.Learn(r.ifp, r.rt, nbrMAC, confirm) }
func (r *rig[A]) confirm()           { r.l.Confirm(r.nbr) }
func (r *rig[A]) rejected() bool     { return r.l.Rejected(r.rt) }

func (r *rig[A]) known() bool {
	_, ok := r.l.NeighborState(r.nbr)
	return ok
}

func (r *rig[A]) state() NeighborState {
	st, ok := r.l.NeighborState(r.nbr)
	if !ok {
		r.tb.Fatal("no neighbor entry")
	}
	return st
}

func (r *rig[A]) addNeighbors(n int) {
	for i := 1; i <= n; i++ {
		other := r.nbr
		b := addrBytes(&other)
		b[1] ^= 0xff
		b[2], b[3] = byte(i>>8), byte(i)
		r.addRoute(other)
	}
}

func (r *rig[A]) resolveFast() {
	if h := r.l.readHop(r.rt); !h.ok {
		r.tb.Fatal("reachable neighbor did not resolve")
	}
}

// failResolution sends one datagram to the silent neighbor and ticks
// until the entry is rejected.
func (r *rig[A]) failResolution(t *testing.T) {
	t.Helper()
	r.send(0)
	for i := 0; !r.rejected(); i++ {
		if i == 100 {
			t.Fatal("resolution never failed")
		}
		r.tick()
	}
}

// stale learns the neighbor and ages it to stale on the timer tick.
func stale(t *testing.T, r nbrRig) {
	t.Helper()
	g := r.log()
	r.learn(true)
	g.clk.Advance(g.nt.Reachable)
	r.tick()
	if st := r.state(); st != Stale {
		t.Fatalf("state %v after the reachable time, want stale", st)
	}
}

var neighborCases = []struct {
	name string
	run  func(t *testing.T, r nbrRig)
}{
	{"IncompleteRejectsAfterMaxTries", func(t *testing.T, r nbrRig) {
		// A datagram every tick, each just ahead of the timer: traffic
		// must not stretch the tries.
		g := r.log()
		sends := 0
		for ; !r.rejected(); sends++ {
			if sends == 100 {
				t.Fatal("resolution never failed")
			}
			r.send(byte(sends))
			r.timer()
			g.clk.Advance(g.tickLen)
		}
		if len(g.solicits) != g.nt.MaxMulticast || slices.Contains(g.solicits, true) {
			t.Fatalf("solicits %v, want %d multicast", g.solicits, g.nt.MaxMulticast)
		}
		if st := r.state(); st != Incomplete || g.failed != 1 || g.stats.OutDrops.Get() != uint64(sends) {
			t.Fatalf("state %v, %d failed, %d of %d datagrams dropped; want incomplete, 1, all",
				st, g.failed, g.stats.OutDrops.Get(), sends)
		}
		// The hold queue kept the first MaxHold of them; the rest were
		// dropped as it overflowed.
		held := min(sends, MaxHold)
		if got := g.drops.Reasons.Get(g.failWhy); got != uint64(held) {
			t.Fatalf("%s = %d, want %d: every held datagram the failure frees carries the reason",
				g.failWhy, got, held)
		}
	}},
	{"SilentWhileRejected", func(t *testing.T, r nbrRig) {
		g := r.log()
		r.failResolution(t)
		n, sends, expire := len(g.solicits), 0, g.rt.Expire
		for g.clk.Now().Add(g.tickLen).Before(expire) {
			r.tick()
			r.send(1)
			sends++
		}
		if len(g.solicits) != n || len(g.sent) != 0 || !r.rejected() {
			t.Fatalf("%d solicits and %d frames in the linger, rejected %v; want none, none, true",
				len(g.solicits)-n, len(g.sent), r.rejected())
		}
		if got := g.stats.OutNoRoute.Get(); got != uint64(sends) {
			t.Fatalf("%d sends refused in the linger, want %d", got, sends)
		}
	}},
	{"ResolvesAfreshAfterLinger", func(t *testing.T, r nbrRig) {
		g := r.log()
		r.failResolution(t)
		g.clk.Advance(g.rt.Expire.Sub(g.clk.Now()))
		n := len(g.solicits)
		r.send(7)
		if r.rejected() || r.state() != Incomplete || len(g.solicits) != n+1 || g.solicits[n] {
			t.Fatalf("after the linger: rejected %v, state %v, solicits %v; want a fresh multicast solicit",
				r.rejected(), r.state(), g.solicits[n:])
		}
		r.learn(true)
		if !bytes.Equal(g.sent, []byte{7}) {
			t.Fatalf("sent %v, want the datagram held after the linger", g.sent)
		}
	}},
	{"ReachableAgesOnTick", func(t *testing.T, r nbrRig) {
		g := r.log()
		r.learn(true)
		g.clk.Advance(g.nt.Reachable + time.Minute)
		r.send(1)
		if len(g.sent) != 1 || len(g.solicits) != 0 || r.state() != Reachable {
			t.Fatalf("before the tick: %d sent, %d solicits, state %v; want 1, 0, reachable",
				len(g.sent), len(g.solicits), r.state())
		}
		r.tick()
		if st := r.state(); st != Stale {
			t.Fatalf("state %v after the tick, want stale", st)
		}
	}},
	{"StaleProbesOnFirstUse", func(t *testing.T, r nbrRig) {
		g := r.log()
		stale(t, r)
		r.send(1)
		r.send(2)
		if !bytes.Equal(g.sent, []byte{1, 2}) || !slices.Equal(g.solicits, []bool{true}) || r.state() != Probe {
			t.Fatalf("sent %v, solicits %v, state %v; want both sent, one unicast probe, probe",
				g.sent, g.solicits, r.state())
		}
	}},
	{"ProbeFailureDeletes", func(t *testing.T, r nbrRig) {
		g := r.log()
		stale(t, r)
		r.send(1)
		for i := 0; r.known(); i++ {
			if i == 100 {
				t.Fatal("probe never failed")
			}
			r.tick()
		}
		// The probe that starts it is the first of MaxUnicast.
		if len(g.solicits) != g.nt.MaxUnicast || slices.Contains(g.solicits, false) {
			t.Fatalf("solicits %v, want %d unicast", g.solicits, g.nt.MaxUnicast)
		}
		if r.rejected() || g.failed != 1 {
			t.Fatalf("rejected %v, %d failed; want deleted, not rejected, 1", r.rejected(), g.failed)
		}
		// The next datagram resolves the neighbor afresh by multicast
		// (ARP: broadcast), and its answer sends it.
		r.send(2)
		if r.state() != Incomplete || len(g.solicits) != g.nt.MaxUnicast+1 || g.solicits[g.nt.MaxUnicast] {
			t.Fatalf("state %v, solicits %v; want incomplete and a multicast solicit", r.state(), g.solicits)
		}
		r.learn(true)
		if !bytes.Equal(g.sent, []byte{1, 2}) {
			t.Fatalf("sent %v, want the probed datagram and the one held after", g.sent)
		}
	}},
	{"Confirm", func(t *testing.T, r nbrRig) {
		g := r.log()
		r.send(1)
		r.confirm()
		if st := r.state(); st != Incomplete {
			t.Fatalf("confirmation completed a resolution: state %v", st)
		}
		r.learn(true)
		g.clk.Advance(g.nt.Reachable)
		r.tick()
		r.confirm()
		r.send(2)
		if st := r.state(); st != Reachable || len(g.solicits) != 1 || !bytes.Equal(g.sent, []byte{1, 2}) {
			t.Fatalf("state %v, solicits %v, sent %v; want reachable, the first only, both",
				st, g.solicits, g.sent)
		}
	}},
	{"HeldQueueFlushedInOrder", func(t *testing.T, r nbrRig) {
		g := r.log()
		for seq := byte(0); seq <= MaxHold; seq++ {
			r.send(seq)
		}
		if len(g.sent) != 0 || len(g.solicits) != 1 || g.stats.OutDrops.Get() != 1 {
			t.Fatalf("%d sent, %d solicits, %d dropped; want 0, 1, 1 (the one past MaxHold)",
				len(g.sent), len(g.solicits), g.stats.OutDrops.Get())
		}
		r.learn(true)
		if want := []byte{0, 1, 2, 3, 4, 5, 6, 7}; !bytes.Equal(g.sent, want) {
			t.Fatalf("flushed %v, want %v", g.sent, want)
		}
	}},
	{"EvictionFreesHeld", func(t *testing.T, r nbrRig) {
		g := r.log()
		base := mbuf.Outstanding()
		for seq := byte(0); seq < 3; seq++ {
			r.send(seq)
		}
		if mbuf.Outstanding() == base {
			t.Fatal("nothing held")
		}
		r.addNeighbors(route.DefaultNDCacheMax) // the last one evicts the oldest
		if g.tab.NbrEvictions.Get() != 1 || mbuf.Outstanding() != base {
			t.Fatalf("%d evictions, %d bytes still held; want 1, 0",
				g.tab.NbrEvictions.Get(), mbuf.Outstanding()-base)
		}
	}},
}

func TestNeighborMachine(t *testing.T) {
	for _, fam := range neighborFamilies {
		for _, tc := range neighborCases {
			t.Run(fam.name+"/"+tc.name, func(t *testing.T) { tc.run(t, fam.rig(t)) })
		}
	}
}

// BenchmarkResolveReachable is the resolver's fast path, the read a
// send makes of its route: a reachable neighbor costs one shared lock,
// no clock read and no allocation.
func BenchmarkResolveReachable(b *testing.B) {
	for _, fam := range neighborFamilies {
		b.Run(fam.name, func(b *testing.B) {
			r := fam.rig(b)
			r.learn(true)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.resolveFast()
			}
		})
	}
}
