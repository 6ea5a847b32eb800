// Package netif implements network interfaces and the simulated links
// that connect stacks.
//
// This is the substitution boundary of the reproduction: where the NRL
// implementation sat on real Ethernet drivers in SPARC and i486
// machines, we provide an in-process Hub that moves link-layer frames
// between attached interfaces.  Everything above the frame boundary —
// MTUs, link-layer addressing, multicast filtering, and the interface
// address lists — behaves as the paper requires:
//
//   - every IPv6 interface carries a link-local address before any
//     other address (§4.2.1), formed from the interface token;
//   - IPv6 interface addresses carry lifetime fields to support the
//     rapid renumbering that provider-oriented addressing needs
//     (§4.2.2);
//   - interfaces maintain multicast group memberships, because IPv6
//     replaces every use of broadcast with multicast (§4.3) and
//     neighbor discovery depends on solicited-node group filtering.
//
// The Hub supports latency and loss injection so integration tests can
// exercise retransmission and reassembly-timeout paths.
package netif

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"bsd6/internal/inet"
	"bsd6/internal/mbuf"
	"bsd6/internal/stat"
	"bsd6/internal/vclock"
)

// EtherTypes for the two IP versions.
const (
	EtherTypeIPv4 = 0x0800
	EtherTypeIPv6 = 0x86dd
)

// Broadcast is the all-ones link address (IPv4's link broadcast; IPv6
// never uses it).
var Broadcast = inet.LinkAddr{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// Frame is a link-layer frame.
type Frame struct {
	Src, Dst  inet.LinkAddr
	EtherType uint16
	Payload   *mbuf.Mbuf
}

// Interface flags.
const (
	FlagUp = 1 << iota
	FlagLoopback
	FlagMulticast
	FlagPromisc
	FlagAllMulti // accept all multicast frames (router/MLD mode)
	FlagRouter   // interface belongs to a router (advertises, forwards)
	FlagTunnel   // point-to-point encapsulating device (6in4/4in6/6in6)
)

// Addr6 is an IPv6 interface address with the lifetime fields the NRL
// implementation added to support renumbering (§4.2.2), and the
// tentative/duplicated state used by duplicate address detection.
type Addr6 struct {
	Addr inet.IP6
	Plen int

	// Autoconf marks addresses formed by stateless autoconfiguration.
	Autoconf bool
	// Tentative is set while duplicate address detection is running.
	Tentative bool
	// Duplicated is set if DAD found a collision; the address must not
	// be used.
	Duplicated bool

	// Created is when the address was configured.
	Created time.Time
	// PreferredLft / ValidLft are the address lifetimes; zero means
	// infinite.  An address past its preferred lifetime is deprecated
	// (not chosen as a source); past its valid lifetime it is removed.
	PreferredLft time.Duration
	ValidLft     time.Duration
}

// Deprecated reports whether the address is past its preferred lifetime.
func (a *Addr6) Deprecated(now time.Time) bool {
	return a.PreferredLft != 0 && now.After(a.Created.Add(a.PreferredLft))
}

// Invalid reports whether the address is past its valid lifetime.
func (a *Addr6) Invalid(now time.Time) bool {
	return a.ValidLft != 0 && now.After(a.Created.Add(a.ValidLft))
}

// Usable reports whether the address may be used as a source.
func (a *Addr6) Usable(now time.Time) bool {
	return !a.Tentative && !a.Duplicated && !a.Invalid(now)
}

// Addr4 is an IPv4 interface address.
type Addr4 struct {
	Addr inet.IP4
	Plen int
}

// Stats counts interface traffic.
type Stats struct {
	InPackets  uint64
	OutPackets uint64
	InBytes    uint64
	OutBytes   uint64
	InDrops    uint64 // frames dropped by the MAC filter or down interface
	OutErrors  uint64
}

// InputFunc receives a frame accepted by the interface filter. It runs
// on the sender's goroutine (or the hub's delay goroutine); stacks
// should enqueue to their input queue rather than process inline.
type InputFunc func(ifp *Interface, fr Frame)

// addrGen versions the union of every interface's address lists.
// Any address add/remove/update bumps it, as does attaching an
// interface to an IP layer.  Per-packet consumers ("is this address
// one of ours?") cache a flat set keyed by this generation instead of
// walking the lists under each interface's lock.
var addrGen atomic.Uint64

// AddrGen returns the current address-list generation.
func AddrGen() uint64 { return addrGen.Load() }

// BumpAddrGen invalidates cached address-set views; IP layers call it
// when their interface membership changes.
func BumpAddrGen() { addrGen.Add(1) }

// Interface is a network interface (BSD's struct ifnet plus its
// address list).
//
// The fields every frame reads — flags, MTU, the input and output
// functions — are atomics, and the counters are atomic adds, so
// Output and unicast delivery take no lock, as BSD's interface code
// reads ifnet and bumps if_data directly.  The address lists and the
// multicast filter stay under mu.
type Interface struct {
	Name string
	HW   inet.LinkAddr

	// Drops is the stack-wide drop observability sink; nil counts
	// nothing.
	Drops *stat.Recorder

	mtu    atomic.Int64
	flags  atomic.Int64
	input  atomic.Pointer[InputFunc]
	output atomic.Pointer[func(Frame) error]

	mu     sync.Mutex
	v4     []Addr4
	v6     []Addr6
	groups map[inet.LinkAddr]int // multicast MAC filter, refcounted

	// encapOverhead is the bytes this device's output path prepends to
	// every packet (tunnel outer header).  The device MTU already has
	// it subtracted — inner-path MTU math needs no special casing — so
	// this field only feeds diagnostics and PMTU translation
	// arithmetic.
	encapOverhead int

	stats counters
}

// cacheLine is the padding unit that keeps independently written
// counters off one another's cache line.
const cacheLine = 64

// counters is the interface's if_data.  The transmit side's counters
// are bumped by the sender, the receive side's by whoever delivers to
// the interface (the peer's sender, on a hub), so each side has a
// cache line of its own, clear of the read-mostly fields above.
type counters struct {
	_                               [cacheLine]byte
	outPackets, outBytes, outErrors atomic.Uint64
	_                               [cacheLine - 24]byte
	inPackets, inBytes, inDrops     atomic.Uint64
	_                               [cacheLine - 24]byte
}

// New creates an interface with the given name, MAC and MTU.
func New(name string, hw inet.LinkAddr, mtu int) *Interface {
	ifp := &Interface{
		Name:   name,
		HW:     hw,
		groups: make(map[inet.LinkAddr]int),
	}
	ifp.mtu.Store(int64(mtu))
	ifp.flags.Store(FlagMulticast)
	return ifp
}

// NewLoopback creates a loopback interface: frames sent are delivered
// back to the input function with the MLoop flag set.
func NewLoopback(name string, mtu int) *Interface {
	ifp := New(name, inet.LinkAddr{}, mtu)
	ifp.SetFlags(FlagLoopback|FlagUp, true)
	ifp.SetOutput(func(fr Frame) error {
		fr.Payload.Hdr().Flags |= mbuf.MLoop
		ifp.deliver(fr, true)
		return nil
	})
	return ifp
}

// MTU returns the interface MTU.
func (ifp *Interface) MTU() int { return int(ifp.mtu.Load()) }

// SetMTU changes the interface MTU (router advertisements can suggest
// one on variable-MTU links, §4.2.2).
func (ifp *Interface) SetMTU(mtu int) { ifp.mtu.Store(int64(mtu)) }

// Flags returns the interface flags.
func (ifp *Interface) Flags() int { return int(ifp.flags.Load()) }

// SetFlags sets (on=true) or clears the given flag bits.
func (ifp *Interface) SetFlags(bits int, on bool) {
	for {
		old := ifp.flags.Load()
		nf := old &^ int64(bits)
		if on {
			nf = old | int64(bits)
		}
		if ifp.flags.CompareAndSwap(old, nf) {
			return
		}
	}
}

// Up reports whether the interface is up.
func (ifp *Interface) Up() bool { return ifp.Flags()&FlagUp != 0 }

// Loopback reports whether the interface is a loopback.
func (ifp *Interface) Loopback() bool { return ifp.Flags()&FlagLoopback != 0 }

// SetInput installs the frame input handler (the stack's "driver
// interrupt" entry).
func (ifp *Interface) SetInput(fn InputFunc) {
	if fn == nil {
		ifp.input.Store(nil)
		return
	}
	ifp.input.Store(&fn)
}

// SetOutput installs the frame transmit function.  Hub.Attach does
// this for wire-like interfaces; virtual devices (tunnels) install
// their encapsulation closure here instead of attaching to a hub.
func (ifp *Interface) SetOutput(fn func(Frame) error) {
	if fn == nil {
		ifp.output.Store(nil)
		return
	}
	ifp.output.Store(&fn)
}

// SetEncapOverhead records the per-packet encapsulation overhead of a
// virtual device (see the encapOverhead field).
func (ifp *Interface) SetEncapOverhead(n int) {
	ifp.mu.Lock()
	ifp.encapOverhead = n
	ifp.mu.Unlock()
}

// EncapOverhead returns the device's per-packet encapsulation
// overhead; zero for ordinary interfaces.
func (ifp *Interface) EncapOverhead() int {
	ifp.mu.Lock()
	defer ifp.mu.Unlock()
	return ifp.encapOverhead
}

// Deliver injects a received packet into the interface's input path as
// if it had arrived from the wire, bypassing the MAC filter (virtual
// devices have no MAC addressing).  Tunnel decapsulation re-enters the
// stack through here, so the owning stack's steering sees the packet
// arrive on the tunnel device and hashes the now-inner headers.
func (ifp *Interface) Deliver(fr Frame) {
	ifp.deliver(fr, true)
}

// Stats returns a copy of the interface counters.
func (ifp *Interface) Stats() Stats {
	c := &ifp.stats
	return Stats{
		InPackets:  c.inPackets.Load(),
		OutPackets: c.outPackets.Load(),
		InBytes:    c.inBytes.Load(),
		OutBytes:   c.outBytes.Load(),
		InDrops:    c.inDrops.Load(),
		OutErrors:  c.outErrors.Load(),
	}
}

//
// Address list management (what ifconfig(8) manipulates, §4.2).
//

// AddAddr6 adds an IPv6 address. Per §4.2.1, the first address placed
// on an interface must be a link-local address; AddAddr6 enforces that
// ordering (as the NRL ifconfig did by convention).
func (ifp *Interface) AddAddr6(a Addr6) error {
	ifp.mu.Lock()
	defer ifp.mu.Unlock()
	if len(ifp.v6) == 0 && !a.Addr.IsLinkLocal() && ifp.Flags()&(FlagLoopback|FlagTunnel) == 0 {
		return errors.New("netif: first IPv6 address on an interface must be link-local")
	}
	for _, old := range ifp.v6 {
		if old.Addr == a.Addr {
			return fmt.Errorf("netif: address %v already configured", a.Addr)
		}
	}
	ifp.v6 = append(ifp.v6, a)
	addrGen.Add(1)
	return nil
}

// RemoveAddr6 removes an IPv6 address.
func (ifp *Interface) RemoveAddr6(addr inet.IP6) bool {
	ifp.mu.Lock()
	defer ifp.mu.Unlock()
	for i, a := range ifp.v6 {
		if a.Addr == addr {
			ifp.v6 = append(ifp.v6[:i], ifp.v6[i+1:]...)
			addrGen.Add(1)
			return true
		}
	}
	return false
}

// UpdateAddr6 applies fn to the address record for addr, returning
// false if it is not configured. Used by DAD (tentative→usable or
// duplicated) and by RA processing (lifetime refresh).
func (ifp *Interface) UpdateAddr6(addr inet.IP6, fn func(*Addr6)) bool {
	ifp.mu.Lock()
	defer ifp.mu.Unlock()
	for i := range ifp.v6 {
		if ifp.v6[i].Addr == addr {
			fn(&ifp.v6[i])
			addrGen.Add(1)
			return true
		}
	}
	return false
}

// Addrs6 returns a snapshot of the IPv6 address list.
func (ifp *Interface) Addrs6() []Addr6 {
	ifp.mu.Lock()
	defer ifp.mu.Unlock()
	return append([]Addr6(nil), ifp.v6...)
}

// EachAddr6 calls fn on each IPv6 address in order without copying the
// list, as the per-packet source choice reads it.  fn runs under the
// interface lock and must not call back into ifp.
func (ifp *Interface) EachAddr6(fn func(Addr6)) {
	ifp.mu.Lock()
	defer ifp.mu.Unlock()
	for _, a := range ifp.v6 {
		fn(a)
	}
}

// HasAddr6 reports whether addr is configured (and not duplicated).
func (ifp *Interface) HasAddr6(addr inet.IP6) bool {
	ifp.mu.Lock()
	defer ifp.mu.Unlock()
	for _, a := range ifp.v6 {
		if a.Addr == addr && !a.Duplicated {
			return true
		}
	}
	return false
}

// LinkLocal6 returns the interface's usable link-local address.
func (ifp *Interface) LinkLocal6(now time.Time) (inet.IP6, bool) {
	ifp.mu.Lock()
	defer ifp.mu.Unlock()
	for i := range ifp.v6 {
		if ifp.v6[i].Addr.IsLinkLocal() && ifp.v6[i].Usable(now) {
			return ifp.v6[i].Addr, true
		}
	}
	return inet.IP6{}, false
}

// ExpireAddrs6 removes addresses past their valid lifetime and returns
// the removed addresses (the renumbering mechanism of §4.2.2).
func (ifp *Interface) ExpireAddrs6(now time.Time) []inet.IP6 {
	ifp.mu.Lock()
	defer ifp.mu.Unlock()
	var removed []inet.IP6
	kept := ifp.v6[:0]
	for _, a := range ifp.v6 {
		if a.Invalid(now) {
			removed = append(removed, a.Addr)
		} else {
			kept = append(kept, a)
		}
	}
	ifp.v6 = kept
	return removed
}

// AddAddr4 adds an IPv4 address.
func (ifp *Interface) AddAddr4(a Addr4) {
	ifp.mu.Lock()
	ifp.v4 = append(ifp.v4, a)
	ifp.mu.Unlock()
	addrGen.Add(1)
}

// Addrs4 returns a snapshot of the IPv4 address list.
func (ifp *Interface) Addrs4() []Addr4 {
	ifp.mu.Lock()
	defer ifp.mu.Unlock()
	return append([]Addr4(nil), ifp.v4...)
}

// EachAddr4 is EachAddr6 for the IPv4 address list.
func (ifp *Interface) EachAddr4(fn func(Addr4)) {
	ifp.mu.Lock()
	defer ifp.mu.Unlock()
	for _, a := range ifp.v4 {
		fn(a)
	}
}

// HasAddr4 reports whether addr is configured.
func (ifp *Interface) HasAddr4(addr inet.IP4) bool {
	ifp.mu.Lock()
	defer ifp.mu.Unlock()
	for _, a := range ifp.v4 {
		if a.Addr == addr {
			return true
		}
	}
	return false
}

//
// Multicast filter.
//

// JoinGroup adds a link-layer multicast address to the receive filter
// (refcounted, like BSD's if_addmulti).
func (ifp *Interface) JoinGroup(mac inet.LinkAddr) {
	ifp.mu.Lock()
	ifp.groups[mac]++
	ifp.mu.Unlock()
}

// LeaveGroup drops one reference on a multicast filter entry.
func (ifp *Interface) LeaveGroup(mac inet.LinkAddr) {
	ifp.mu.Lock()
	if n := ifp.groups[mac]; n > 1 {
		ifp.groups[mac] = n - 1
	} else {
		delete(ifp.groups, mac)
	}
	ifp.mu.Unlock()
}

// InGroup reports whether the filter accepts the multicast address.
func (ifp *Interface) InGroup(mac inet.LinkAddr) bool {
	ifp.mu.Lock()
	defer ifp.mu.Unlock()
	return ifp.groups[mac] > 0
}

//
// Frame I/O.
//

// ErrIfDown is returned when transmitting on a down interface.
var ErrIfDown = errors.New("netif: interface is down")

// ErrTooBig is returned when a frame payload exceeds the interface MTU;
// IP must fragment (IPv4) or report Packet Too Big (IPv6 router).
var ErrTooBig = errors.New("netif: frame exceeds interface MTU")

// Output transmits an IP packet as a frame to the given link address.
// It takes no lock: the flags, MTU and output function are atomics.
func (ifp *Interface) Output(dst inet.LinkAddr, etherType uint16, pkt *mbuf.Mbuf) error {
	out := ifp.output.Load()
	if ifp.flags.Load()&FlagUp == 0 || out == nil {
		ifp.stats.outErrors.Add(1)
		return ErrIfDown
	}
	n := pkt.Len()
	if int64(n) > ifp.mtu.Load() {
		ifp.stats.outErrors.Add(1)
		return ErrTooBig
	}
	ifp.stats.outPackets.Add(1)
	ifp.stats.outBytes.Add(uint64(n))
	return (*out)(Frame{Src: ifp.HW, Dst: dst, EtherType: etherType, Payload: pkt})
}

// deliver runs the receive filter and hands accepted frames to the
// input function. force bypasses the filter (loopback).  Only a
// multicast frame the flags do not settle takes the lock, to read the
// group filter.
func (ifp *Interface) deliver(fr Frame, force bool) {
	flags := ifp.flags.Load()
	in := ifp.input.Load()
	if flags&FlagUp == 0 || in == nil || !(force || ifp.accept(fr.Dst, flags)) {
		ifp.stats.inDrops.Add(1)
		ifp.Drops.DropPkt(stat.RLinkFiltered, fr.Payload.Bytes())
		fr.Payload.Free() // DropPkt copied what it keeps
		return
	}
	ifp.stats.inPackets.Add(1)
	ifp.stats.inBytes.Add(uint64(fr.Payload.Len()))

	hdr := fr.Payload.Hdr()
	hdr.RcvIf = ifp.Name
	if fr.Dst == Broadcast {
		hdr.Flags |= mbuf.MBcast
	} else if fr.Dst[0]&1 != 0 { // link-layer multicast bit
		hdr.Flags |= mbuf.MMcast
	}
	(*in)(ifp, fr)
}

// accept is the MAC receive filter under the given flags.
func (ifp *Interface) accept(dst inet.LinkAddr, flags int64) bool {
	if flags&FlagPromisc != 0 || dst == ifp.HW || dst == Broadcast {
		return true
	}
	if dst[0]&1 == 0 { // unicast to another station
		return false
	}
	return flags&FlagAllMulti != 0 || ifp.InGroup(dst)
}

//
// The Hub: a shared-medium link connecting interfaces.
//

// Faults configures adversarial link behavior. The zero value is a
// perfect wire. Probabilities are in [0,1); every random draw comes
// from the hub's seeded RNG, so a run is reproducible from its seed
// when the rest of the test is deterministic (single driving goroutine
// on a virtual clock).
type Faults struct {
	// Latency delays every delivery by a fixed amount; Jitter adds a
	// uniform random extra in [0, Jitter).
	Latency time.Duration
	Jitter  time.Duration

	// Loss drops frames independently with this probability.
	Loss float64

	// BurstLoss models correlated outages (Gilbert-style): with this
	// per-frame probability the link enters a bad state and eats
	// BurstLen consecutive frames (default 4 when BurstLoss > 0).
	BurstLoss float64
	BurstLen  int

	// Duplicate delivers a second copy of the frame, right after the
	// first, with this probability.
	Duplicate float64

	// Corrupt flips one random bit in the frame payload with this
	// probability (the MAC header is left intact so the receive filter
	// still applies; IP/transport checksums must catch the damage).
	Corrupt float64

	// Reorder holds a frame back an extra ReorderDelay with this
	// probability, letting later frames overtake it. ReorderDelay
	// defaults to Latency + 1ms when zero.
	Reorder      float64
	ReorderDelay time.Duration
}

// Hub is a simulated Ethernet segment. Frames transmitted by one
// attached interface are delivered to all others (subject to each
// receiver's MAC filter), optionally through a fault model: latency,
// jitter, random and burst loss, duplication, bit corruption,
// reordering, and partitions. Delayed deliveries are scheduled on the
// hub's clock, so tests on a virtual clock get bit-for-bit
// reproducible hostile-link runs.
type Hub struct {
	// cfg is the hub's configuration, copy-on-write: a setter installs
	// a changed copy under mu, and transmit loads the current one with
	// no lock, so a frame on a perfect wire takes none.
	cfg atomic.Pointer[hubConfig]

	// mu serializes configuration writers and Capture, and guards the
	// per-frame state of the fault model.
	mu       sync.Mutex
	burst    map[*Interface]int // remaining frames in a loss burst
	inflight int

	// rng is guarded by its own mutex: delayed deliveries and
	// concurrent senders all draw from it.
	rngMu sync.Mutex
	rng   *rand.Rand

	// Capture, if set, observes every frame that traverses the hub
	// (before any fault is applied), like a packet sniffer. Set it
	// before traffic flows.  It is called with the hub lock held; it
	// must not call back into the hub or transmit frames.
	Capture func(Frame)
}

// hubConfig is one version of a hub's configuration.  Its slices and
// maps are never changed once installed.
type hubConfig struct {
	ports      []*Interface
	faults     Faults                // hub-wide fault model
	linkFaults map[*Interface]Faults // per-receiver overrides
	partition  map[*Interface]int    // partition group; nil = all connected
	clock      vclock.Clock
}

// NewHub creates a hub with no latency or loss, running on the wall
// clock.
func NewHub() *Hub {
	h := &Hub{
		burst: make(map[*Interface]int),
		rng:   rand.New(rand.NewSource(1)),
	}
	h.cfg.Store(&hubConfig{clock: vclock.Real()})
	return h
}

// configure installs a copy of the configuration changed by fn.
func (h *Hub) configure(fn func(*hubConfig)) {
	h.mu.Lock()
	c := *h.cfg.Load()
	fn(&c)
	h.cfg.Store(&c)
	h.mu.Unlock()
}

// SetClock installs the clock used for delayed deliveries. Call before
// traffic flows.
func (h *Hub) SetClock(c vclock.Clock) {
	h.configure(func(cfg *hubConfig) { cfg.clock = c })
}

// SetSeed reseeds the hub's fault RNG. Safe to call concurrently with
// traffic.
func (h *Hub) SetSeed(seed int64) {
	h.rngMu.Lock()
	h.rng = rand.New(rand.NewSource(seed))
	h.rngMu.Unlock()
}

// SetFaults installs the hub-wide fault model.
func (h *Hub) SetFaults(f Faults) {
	h.configure(func(c *hubConfig) { c.faults = f })
}

// SetLinkFaults overrides the fault model for frames delivered *to*
// ifp. Pass nil to remove the override.
func (h *Hub) SetLinkFaults(ifp *Interface, f *Faults) {
	h.configure(func(c *hubConfig) {
		lf := make(map[*Interface]Faults, len(c.linkFaults)+1)
		for p, pf := range c.linkFaults {
			lf[p] = pf
		}
		if f == nil {
			delete(lf, ifp)
		} else {
			lf[ifp] = *f
		}
		c.linkFaults = lf
	})
}

// SetImpairments configures delivery latency and a loss probability in
// [0,1). seed makes the loss pattern reproducible. Kept as shorthand
// for SetFaults + SetSeed.
func (h *Hub) SetImpairments(latency time.Duration, loss float64, seed int64) {
	h.SetFaults(Faults{Latency: latency, Loss: loss})
	h.SetSeed(seed)
}

// Partition splits the hub: each group lists interfaces that can still
// reach each other; frames between different groups are dropped.
// Interfaces in no group land in an implicit group of their own.
// Calling Partition() with no arguments heals the hub.
func (h *Hub) Partition(groups ...[]*Interface) {
	var part map[*Interface]int
	if len(groups) > 0 {
		part = make(map[*Interface]int)
		for i, g := range groups {
			for _, ifp := range g {
				part[ifp] = i + 1
			}
		}
	}
	h.configure(func(c *hubConfig) { c.partition = part })
}

// Pending reports how many delayed deliveries are still in flight.
// Zero with idle senders means the segment is quiescent.
func (h *Hub) Pending() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.inflight
}

// Attach connects an interface to the hub and brings it up.
func (h *Hub) Attach(ifp *Interface) {
	h.configure(func(c *hubConfig) {
		c.ports = append(c.ports[:len(c.ports):len(c.ports)], ifp)
	})
	ifp.SetOutput(func(fr Frame) error { return h.transmit(ifp, fr) })
	ifp.SetFlags(FlagUp, true)
}

// Detach removes an interface from the hub.
func (h *Hub) Detach(ifp *Interface) {
	h.configure(func(c *hubConfig) {
		for i, p := range c.ports {
			if p == ifp {
				c.ports = append(c.ports[:i:i], c.ports[i+1:]...)
				break
			}
		}
	})
	ifp.SetFlags(FlagUp, false)
	ifp.SetOutput(nil)
}

// float draws from the hub RNG under its own lock.
func (h *Hub) float() float64 {
	h.rngMu.Lock()
	defer h.rngMu.Unlock()
	return h.rng.Float64()
}

func (h *Hub) intn(n int) int {
	h.rngMu.Lock()
	defer h.rngMu.Unlock()
	return h.rng.Intn(n)
}

func (h *Hub) transmit(src *Interface, fr Frame) error {
	if capture := h.Capture; capture != nil {
		h.mu.Lock()
		capture(fr)
		h.mu.Unlock()
	}
	cfg := h.cfg.Load()
	ports, hubFaults, linkFaults, partition, clock := cfg.ports, cfg.faults, cfg.linkFaults, cfg.partition, cfg.clock

	// First decide which deliveries survive the fault model, then hand
	// out payloads: each receiver needs its own buffer (a real wire
	// gives each NIC its own signal), but the *last* delivery can take
	// ownership of the sender's buffer instead of a deep copy — on a
	// two-node segment the common frame crosses the hub with zero
	// payload copies.
	type delivery struct {
		p       *Interface
		delay   time.Duration
		corrupt bool
	}
	// The delivery list lives on the stack for segments of up to
	// eight receivers (duplicates included); only a larger fan-out
	// grows it onto the heap.
	var stack [8]delivery
	dels := stack[:0]
	for _, p := range ports {
		if p == src {
			continue
		}
		if partition != nil && partition[src] != partition[p] {
			continue // severed by the partition
		}
		f := hubFaults
		if lf, ok := linkFaults[p]; ok {
			f = lf
		}

		// Burst loss: a link in the bad state eats frames until the
		// burst drains; entering the bad state is a per-frame draw.
		if f.BurstLoss > 0 {
			h.mu.Lock()
			if h.burst[p] > 0 {
				h.burst[p]--
				h.mu.Unlock()
				continue
			}
			h.mu.Unlock()
			if h.float() < f.BurstLoss {
				n := f.BurstLen
				if n <= 0 {
					n = 4
				}
				h.mu.Lock()
				h.burst[p] = n - 1 // this frame is the first casualty
				h.mu.Unlock()
				continue
			}
		}
		if f.Loss > 0 && h.float() < f.Loss {
			continue // the wire ate it; senders can't tell
		}

		delay := f.Latency
		if f.Jitter > 0 {
			delay += time.Duration(h.intn(int(f.Jitter)))
		}
		if f.Reorder > 0 && h.float() < f.Reorder {
			extra := f.ReorderDelay
			if extra <= 0 {
				extra = f.Latency + time.Millisecond
			}
			delay += extra
		}

		copies := 1
		if f.Duplicate > 0 && h.float() < f.Duplicate {
			copies = 2
		}
		for c := 0; c < copies; c++ {
			corrupt := f.Corrupt > 0 && h.float() < f.Corrupt
			dels = append(dels, delivery{p: p, delay: delay, corrupt: corrupt})
		}
	}
	if len(dels) == 0 {
		// Every receiver was severed or faulted away: the sender's
		// buffer has no taker, so the hub is its terminal consumer.
		fr.Payload.Free()
		return nil
	}
	for i, d := range dels {
		cp := fr
		if i < len(dels)-1 {
			cp.Payload = fr.Payload.Copy()
		}
		if d.corrupt {
			if b := cp.Payload.Bytes(); len(b) > 0 {
				bit := h.intn(len(b) * 8)
				b[bit/8] ^= 1 << (bit % 8)
			}
		}
		h.schedule(clock, d.delay, d.p, cp)
	}
	return nil
}

// schedule delivers a frame to one receiver, either inline (zero
// delay) or via the hub clock, tracking in-flight count so tests can
// detect quiescence.
func (h *Hub) schedule(clock vclock.Clock, delay time.Duration, p *Interface, fr Frame) {
	if delay <= 0 {
		p.deliver(fr, false)
		return
	}
	h.mu.Lock()
	h.inflight++
	h.mu.Unlock()
	clock.AfterFunc(delay, func() {
		p.deliver(fr, false)
		h.mu.Lock()
		h.inflight--
		h.mu.Unlock()
	})
}
