// Package core assembles the paper's system: a dual IPv4/IPv6 stack
// structured like 4.4 BSD-Lite networking with the NRL IPv6 and IP
// security additions, exposed through a BSD-sockets-style API.
//
// One Stack corresponds to one kernel: interfaces, routing table,
// IPv4, IPv6 + ICMPv6/ND, IP security + Key Engine, TCP and UDP, and
// the socket layer.  Frames from the (simulated) wire enter through a
// netisr-style input queue serviced by a dedicated goroutine, just as
// BSD drivers enqueue to the protocol input queues for the software
// interrupt level to drain — this also decouples stacks that share a
// wire, so no stack processes packets on another stack's goroutine.
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bsd6/internal/icmp6"
	"bsd6/internal/inet"
	"bsd6/internal/ipsec"
	"bsd6/internal/ipv4"
	"bsd6/internal/ipv6"
	"bsd6/internal/key"
	"bsd6/internal/mbuf"
	"bsd6/internal/netif"
	"bsd6/internal/pcb"
	"bsd6/internal/proto"
	"bsd6/internal/route"
	"bsd6/internal/stat"
	"bsd6/internal/tcp"
	"bsd6/internal/tunnel"
	"bsd6/internal/udp"
	"bsd6/internal/vclock"
)

// Stack is one node's network stack.
type Stack struct {
	Name  string
	RT    *route.Table
	V4    *ipv4.Layer
	V6    *ipv6.Layer
	ICMP4 *ipv4.ICMP
	ICMP6 *icmp6.Module
	Sec   *ipsec.Module
	Keys  *key.Engine
	Tun   *tunnel.Module
	UDP   *udp.UDP
	TCP   *tcp.TCP
	Hosts *inet.HostTable
	Lo    *netif.Interface

	// Drops is the stack-wide drop observability state: the reason
	// counter map plus the flight-recorder trace ring, shared by every
	// protocol module above.
	Drops *stat.Recorder

	// inq is the netisr input queue (4.4BSD's ipintrq): one FIFO for
	// every frame the stack receives, drained by one goroutine, so
	// frames are processed in arrival order across all flows.
	inq      ifqueue
	InqDrops stat.Counter // frames dropped because the input queue was full
	// wakeups counts the times the netisr was woken from park, the
	// one channel operation the queue costs, and frames the frames it
	// dispatched: their ratio is how many frames a wakeup took.
	wakeups, frames stat.Counter

	// MbufDrops counts frames refused by the queued-byte ceiling
	// (DefaultMbufLimit) — the backpressure that keeps a flood from
	// ballooning mbuf memory behind a slow netisr.
	MbufDrops stat.Counter
	inqBytes  atomic.Int64 // payload bytes currently queued

	// Batched datapath state: burst is the netisr's dispatch chunk;
	// gro is the receive-coalescing engine (nil on an unbatched stack)
	// and groIfp the interface of its pending super-segment.  Only the
	// netisr goroutine touches them.
	burst  int
	gro    *tcp.GRO
	groIfp *netif.Interface

	// secActive flips once any socket sets a security level; see the
	// SocketOpts hook.
	secActive atomic.Bool

	clock   vclock.Clock
	pending atomic.Int64 // frames queued or being dispatched

	mu     sync.Mutex
	ifps   []*netif.Interface
	stop   chan struct{}
	wg     sync.WaitGroup
	closed atomic.Bool

	tmu    sync.Mutex
	ttimer []vclock.Timer
}

type inputItem struct {
	ifp *netif.Interface
	fr  netif.Frame
	n   int // payload bytes charged against the mbuf ceiling
}

// ifqueue is 4.4BSD's struct ifqueue with schednetisr folded in: a
// locked slice the input side appends to (IF_ENQUEUE under splimp)
// and the netisr swaps out whole.  The netisr marks itself parked
// before it sleeps on wake, and only the enqueue that finds it parked
// sends the wakeup, so a busy netisr costs producers no channel
// operation at all.
type ifqueue struct {
	mu     sync.Mutex
	q      []inputItem
	parked bool
	wake   chan struct{} // one slot: at most one wakeup is owed
}

// Options configures stack construction.  Every resource ceiling is
// a constant in the module that enforces it, as 4.4BSD fixes
// ifqmaxlen and somaxconn in code; only the time source is chosen.
type Options struct {
	// Clock is the stack's time source. Default: the real clock. Tests
	// pass a vclock.Virtual to run protocol timers, socket deadlines
	// and route/key expiry on simulated time.
	Clock vclock.Clock
}

const (
	// DefaultMbufLimit bounds the payload bytes held in the netisr
	// input queue (4 MiB); past it, input frames are refused with
	// mbuf-limit and freed back to the pool instead of accumulating
	// behind a slow netisr.
	DefaultMbufLimit = 4 << 20
	// burstSize is the frames the netisr dispatches per chunk, the
	// unit of its GRO flush and its queue-accounting settle.
	burstSize = 32
	// inputQueueLen is the netisr queue's slot count: past it a frame
	// is dropped with netisr-queue-full, as BSD's IF_DROP does at
	// ifqmaxlen, rather than the queue growing behind a slow netisr.
	inputQueueLen = 512
)

// NewStack builds and starts a stack.
func NewStack(name string, opts Options) *Stack {
	return newStack(name, opts, false)
}

// newStack builds and starts a stack.  unbatched gives it the classic
// one-frame-per-dispatch netisr with no GRO, the reference the batched
// datapath's wire image is compared against in tests.
func newStack(name string, opts Options, unbatched bool) *Stack {
	if opts.Clock == nil {
		opts.Clock = vclock.Real()
	}
	rt := route.NewTable()
	s := &Stack{
		Name:  name,
		RT:    rt,
		Hosts: inet.NewHostTable(),
		inq:   ifqueue{wake: make(chan struct{}, 1), q: make([]inputItem, 0, burstSize)},
		stop:  make(chan struct{}),
		clock: opts.Clock,
	}
	rt.Now = s.clock.Now
	s.Drops = stat.NewRecorder(traceRingSize)
	s.Drops.Now = s.clock.Now
	rt.Drops = s.Drops
	s.V4 = ipv4.NewLayer(rt)
	s.V6 = ipv6.NewLayer(rt)
	s.V4.Drops = s.Drops
	s.V6.Drops = s.Drops
	s.ICMP4 = ipv4.AttachICMP(s.V4)
	s.ICMP6 = icmp6.Attach(s.V6)
	s.Keys = key.NewEngine()
	s.Keys.Now = s.clock.Now
	s.Sec = ipsec.Attach(s.V6, s.Keys)
	s.Tun = tunnel.Attach(s.V4, s.V6)
	s.Tun.Drops = s.Drops
	s.UDP = udp.New(s.V4, s.V6)
	s.TCP = tcp.New(s.V4, s.V6)
	s.UDP.Drops = s.Drops
	s.TCP.Drops = s.Drops

	// Wire the cross-module relationships the paper describes.
	s.UDP.InputPolicy = s.Sec.InputPolicy
	s.UDP.InputPolicyPort = s.Sec.InputPolicyPort
	s.UDP.AllowError = s.Sec.AllowError
	s.TCP.InputPolicy = s.Sec.InputPolicy
	s.TCP.InputPolicyPort = s.Sec.InputPolicyPort
	s.TCP.AllowError = s.Sec.AllowError
	s.TCP.Confirm = s.ICMP6.Confirm // §4.3: TCP confirms reachability
	s.TCP.SecOverhead = s.Sec.HdrSize
	s.ICMP6.InputPolicy = s.Sec.InputPolicy
	s.TCP.FatalOutErr = func(err error) bool { return errors.Is(err, ipsec.EIPSEC) }
	s.Sec.SocketOpts = func(so any) ipsec.SockOpts {
		// Until some socket on this stack sets a security level, the
		// per-packet policy read skips the socket lock entirely.
		if !s.secActive.Load() {
			return ipsec.SockOpts{}
		}
		if sock, ok := so.(*Socket); ok {
			return sock.SecurityOpts()
		}
		return ipsec.SockOpts{}
	}
	s.UDP.Deliver = deliverDatagram
	s.UDP.Notify = notifyDatagramErr

	// Batched datapath: burst dequeue and receive-side GRO.
	s.burst = burstSize
	if unbatched {
		s.burst = 1
	} else {
		s.gro = s.TCP.NewGRO()
	}

	// Loopback.
	s.Lo = netif.NewLoopback(name+"-lo0", 32768)
	s.Lo.Drops = s.Drops
	s.Lo.SetInput(s.enqueue)
	s.V4.AddInterface(s.Lo)
	s.V6.AddInterface(s.Lo)

	s.wg.Add(1)
	go s.netisr()

	s.startTimers()
	return s
}

// Clock returns the stack's time source.
func (s *Stack) Clock() vclock.Clock { return s.clock }

// Pending reports frames queued on (or being dispatched from) the
// netisr input queue. The same frames are counted runnable on the
// stack's clock, which is how a vclock.Driver sees them.
func (s *Stack) Pending() int { return int(s.pending.Load()) }

// Close stops the stack's goroutines.  Frames still queued for the
// netisr are freed and uncounted — from Pending, the queued-byte
// gauge and the clock's runnable count — so closing one stack of a
// world that shares a virtual clock never freezes that clock.  A
// closed stack refuses further input.
func (s *Stack) Close() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	s.tmu.Lock()
	for _, tm := range s.ttimer {
		tm.Stop()
	}
	s.tmu.Unlock()
	close(s.stop)
	s.wg.Wait()
	s.drainInq()
}

// drainInq frees every frame left on the input queue of a closed
// stack and settles its accounting.  The netisr has exited, and an
// enqueue that takes the queue lock after Close set closed refuses
// its frame, so each queued frame is released exactly once.
func (s *Stack) drainInq() {
	s.inq.mu.Lock()
	left := s.inq.q
	s.inq.q = nil
	s.inq.mu.Unlock()
	for i := range left {
		left[i].fr.Payload.Free()
		s.inqBytes.Add(-int64(left[i].n))
	}
	s.pending.Add(-int64(len(left)))
	s.clock.Runnable(-len(left))
}

// enqueue is the driver-side input hook: non-blocking, dropping on
// overflow as BSD's IF_DROP does.  Every frame joins the one FIFO, so
// the netisr sees frames in wire-arrival order across all flows, and
// the fragments of a datagram stay in order with their flow-mates.
// Two ceilings apply: the queue's slot count (RInqFull) and the
// stack-wide queued-byte ceiling (RMbufLimit) that keeps a flood of
// large frames from holding megabytes of slab memory hostage.  Either
// way a refused frame is freed here — enqueue is its terminal
// consumer, so overload backpressures the pool instead of leaking.
func (s *Stack) enqueue(ifp *netif.Interface, fr netif.Frame) {
	if s.closed.Load() {
		fr.Payload.Free() // nobody is left to process it
		return
	}
	n := fr.Payload.Len()
	if s.inqBytes.Load()+int64(n) > DefaultMbufLimit {
		s.MbufDrops.Inc()
		s.Drops.DropNote(stat.RMbufLimit, ifp.Name)
		fr.Payload.Free()
		return
	}
	// Count the frame before the netisr can see it, so its settle
	// never takes the counts below zero.
	s.pending.Add(1)
	s.clock.Runnable(1)
	s.inqBytes.Add(int64(n))
	q := &s.inq
	q.mu.Lock()
	// Checked again under the lock, which orders this append against
	// Close's drain: a frame appended after the drain would never be
	// freed.
	closed := s.closed.Load()
	if closed || len(q.q) >= inputQueueLen {
		q.mu.Unlock()
		s.pending.Add(-1)
		s.clock.Runnable(-1)
		s.inqBytes.Add(-int64(n))
		if !closed {
			s.InqDrops.Inc()
			s.Drops.DropNote(stat.RInqFull, ifp.Name)
		}
		fr.Payload.Free()
		return
	}
	q.q = append(q.q, inputItem{ifp, fr, n})
	wake := q.parked
	q.parked = false
	q.mu.Unlock()
	if wake {
		select {
		case q.wake <- struct{}{}:
		default: // the one wakeup the park is owed is already there
		}
	}
}

// netisr drains the input queue, as 4.4BSD's software interrupt
// drains ipintrq.  Each pass swaps out the whole queue under its lock,
// handing producers the slice it drained last time, and dispatches the
// frames in chunks of up to burst.  Each chunk settles the queue
// accounting once (inqBytes, pending and the clock's runnable count)
// and gives the GRO engine runs of same-flow frames to coalesce;
// pending stays raised until a chunk is dispatched, so nobody observes
// a half-processed chunk as quiescence.  The netisr parks only when a
// pass finds the queue empty, and leaves after any pass once Close has
// begun.
func (s *Stack) netisr() {
	defer s.wg.Done()
	q := &s.inq
	spare := make([]inputItem, 0, burstSize)
	for {
		q.mu.Lock()
		if len(q.q) == 0 {
			q.parked = true
			q.mu.Unlock()
			select {
			case <-s.stop:
				return
			case <-q.wake:
				s.wakeups.Inc()
			}
			continue
		}
		batch := q.q
		q.q = spare
		q.mu.Unlock()
		for off := 0; off < len(batch); {
			chunk := batch[off:min(off+s.burst, len(batch))]
			off += len(chunk)
			s.dispatchBurst(chunk)
			var bytes int64
			for i := range chunk {
				bytes += int64(chunk[i].n)
			}
			clear(chunk) // the spare must not keep the frames alive
			s.frames.Add(uint64(len(chunk)))
			s.inqBytes.Add(-bytes)
			s.pending.Add(-int64(len(chunk)))
			s.clock.Runnable(-len(chunk))
		}
		spare = batch[:0]
		select {
		case <-s.stop:
			return // Close drains what is left
		default:
		}
	}
}

// dispatchBurst feeds one drained batch through the GRO engine (when
// enabled) and on to the protocol input routines.  Order is preserved:
// a frame the engine declines first forces out whatever super-segment
// was pending, and the batch ends with a flush, so coalescing state
// never outlives the burst.  Every flushed super-segment goes through
// IP and TCP input here, synchronously, before the engine sees the
// next frame: the engine reuses its boundary record on that guarantee.
func (s *Stack) dispatchBurst(burst []inputItem) {
	if s.gro == nil || len(burst) == 1 {
		for i := range burst {
			s.dispatch(burst[i].ifp, burst[i].fr)
		}
		return
	}
	for i := range burst {
		it := &burst[i]
		var v4 bool
		switch it.fr.EtherType {
		case netif.EtherTypeIPv4:
			v4 = true
		case netif.EtherTypeIPv6:
		default:
			// Non-IP (ARP): flush ahead of it to preserve order.
			s.groFlush()
			s.dispatch(it.ifp, it.fr)
			continue
		}
		if s.groIfp != nil && s.groIfp != it.ifp {
			// The pending super-segment belongs to another interface;
			// deliver it there before this frame can be considered.
			s.groFlush()
		}
		flushed, pass := s.gro.Push(it.fr.Payload, v4)
		if flushed != nil {
			s.deliverIP(s.groIfp, flushed)
			s.groIfp = nil
		}
		if pass != nil {
			s.dispatch(it.ifp, it.fr)
		} else {
			s.groIfp = it.ifp
		}
	}
	s.groFlush()
}

// groFlush forces out the pending super-segment, if any.
func (s *Stack) groFlush() {
	if pkt := s.gro.Flush(); pkt != nil {
		s.deliverIP(s.groIfp, pkt)
	}
	s.groIfp = nil
}

// deliverIP hands a (possibly coalesced) IP packet to the right IP
// input by version nibble.
func (s *Stack) deliverIP(ifp *netif.Interface, pkt *mbuf.Mbuf) {
	b := pkt.PullUp(1)
	if b == nil {
		pkt.Free()
		return
	}
	if b[0]>>4 == 4 {
		s.V4.Input(ifp, pkt)
	} else {
		s.V6.Input(ifp, pkt)
	}
}

// InqDepths reports the instantaneous depth of the netisr queue, for
// netstat, as a one-entry slice.
func (s *Stack) InqDepths() []int {
	return []int{s.inqDepth()}
}

// inqDepth is the number of frames on the input queue.
func (s *Stack) inqDepth() int {
	s.inq.mu.Lock()
	defer s.inq.mu.Unlock()
	return len(s.inq.q)
}

func (s *Stack) dispatch(ifp *netif.Interface, fr netif.Frame) {
	switch fr.EtherType {
	case ipv4.EtherTypeARP:
		s.V4.ArpInput(ifp, fr.Payload)
	case netif.EtherTypeIPv4:
		s.V4.Input(ifp, fr.Payload)
	case netif.EtherTypeIPv6:
		s.V6.Input(ifp, fr.Payload)
	default:
		fr.Payload.Free() // unknown ethertype: nobody downstream to own it
	}
}

// startTimers schedules the BSD timeout cadence on the stack's clock:
// 200ms fast, 500ms slow, 1s for ND/autoconf/key lifetimes. Each timer
// re-arms itself after running, so on a virtual clock the cadence is
// driven entirely by whoever advances simulated time.
func (s *Stack) startTimers() {
	s.every(tcp.FastTickInterval, func(time.Time) { s.TCP.FastTimo() })
	s.every(tcp.SlowTickInterval, func(now time.Time) {
		s.TCP.SlowTimo()
		s.V4.SlowTimo(now)
		s.V6.SlowTimo(now)
	})
	s.every(time.Second, func(now time.Time) {
		s.ICMP6.FastTimo(now)
		s.Keys.SlowTimo()
	})
}

func (s *Stack) every(d time.Duration, fn func(now time.Time)) {
	s.tmu.Lock()
	idx := len(s.ttimer)
	s.ttimer = append(s.ttimer, nil)
	var arm func()
	arm = func() {
		if s.closed.Load() {
			return
		}
		fn(s.clock.Now())
		s.tmu.Lock()
		s.ttimer[idx] = s.clock.AfterFunc(d, arm)
		s.tmu.Unlock()
	}
	s.ttimer[idx] = s.clock.AfterFunc(d, arm)
	s.tmu.Unlock()
}

//
// Interface configuration (what ifconfig(8) does, §4.2).
//

// AttachLink connects the stack to a hub. The interface gets its
// link-local address immediately (pre-verified; use AttachLinkDAD for
// the full duplicate-address-detection flow) and the fe80::/64 on-link
// route.
func (s *Stack) AttachLink(hub *netif.Hub, mac inet.LinkAddr, mtu int) *netif.Interface {
	ifp := s.newLink(hub, mac, mtu)
	ll := inet.LinkLocal(mac.Token())
	ifp.AddAddr6(netif.Addr6{Addr: ll, Plen: 64})
	s.V6.JoinGroup(ifp.Name, inet.SolicitedNode(ll))
	return ifp
}

// dadPoll is how often AttachLinkDAD checks whether DAD has concluded.
const dadPoll = 100 * time.Millisecond

// AttachLinkDAD connects the stack to a hub and runs duplicate address
// detection on the link-local address (§4.2.1), returning after DAD
// concludes. ok is false if the address turned out to be a duplicate.
func (s *Stack) AttachLinkDAD(hub *netif.Hub, mac inet.LinkAddr, mtu int) (*netif.Interface, bool) {
	ifp := s.newLink(hub, mac, mtu)
	ll := inet.LinkLocal(mac.Token())
	ifp.AddAddr6(netif.Addr6{Addr: ll, Plen: 64, Tentative: true})
	// Poll on the stack's clock instead of blocking on done: a
	// sleeping poller is parked where a driven virtual clock can see
	// it, and DAD concludes only as time moves.
	done := s.ICMP6.StartDAD(ifp, ll)
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
			vclock.Sleep(s.clock, dadPoll)
		}
	}
	for _, a := range ifp.Addrs6() {
		if a.Addr == ll {
			return ifp, !a.Duplicated
		}
	}
	return ifp, false
}

func (s *Stack) newLink(hub *netif.Hub, mac inet.LinkAddr, mtu int) *netif.Interface {
	s.mu.Lock()
	name := fmt.Sprintf("%s-sim%d", s.Name, len(s.ifps))
	s.mu.Unlock()
	ifp := netif.New(name, mac, mtu)
	ifp.Drops = s.Drops
	ifp.SetInput(s.enqueue)
	hub.Attach(ifp)
	s.V4.AddInterface(ifp)
	s.V6.AddInterface(ifp)
	s.mu.Lock()
	s.ifps = append(s.ifps, ifp)
	s.mu.Unlock()
	llPrefix := inet.IP6{0: 0xfe, 1: 0x80}
	s.RT.Add(&route.Entry{
		Family: inet.AFInet6, Dst: llPrefix[:], Plen: 64,
		Flags: route.FlagUp | route.FlagCloning | route.FlagLLInfo, IfName: ifp.Name,
	})
	return ifp
}

// Interfaces lists the stack's non-loopback interfaces.
func (s *Stack) Interfaces() []*netif.Interface {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*netif.Interface(nil), s.ifps...)
}

// ConfigureV6 adds a global IPv6 address and its on-link prefix route.
func (s *Stack) ConfigureV6(ifp *netif.Interface, addr inet.IP6, plen int) error {
	if err := ifp.AddAddr6(netif.Addr6{Addr: addr, Plen: plen}); err != nil {
		return err
	}
	s.V6.JoinGroup(ifp.Name, inet.SolicitedNode(addr))
	prefix := addr
	m := inet.Mask6(plen)
	for i := range prefix {
		prefix[i] &= m[i]
	}
	s.RT.Add(&route.Entry{
		Family: inet.AFInet6, Dst: prefix[:], Plen: plen,
		Flags: route.FlagUp | route.FlagCloning | route.FlagLLInfo, IfName: ifp.Name,
	})
	return nil
}

// ConfigureV4 adds an IPv4 address and its on-link subnet route.
func (s *Stack) ConfigureV4(ifp *netif.Interface, addr inet.IP4, plen int) {
	ifp.AddAddr4(netif.Addr4{Addr: addr, Plen: plen})
	netAddr := addr
	m := inet.Mask4(plen)
	for i := range netAddr {
		netAddr[i] &= m[i]
	}
	s.RT.Add(&route.Entry{
		Family: inet.AFInet, Dst: netAddr[:], Plen: plen,
		Flags: route.FlagUp | route.FlagCloning | route.FlagLLInfo, IfName: ifp.Name,
	})
}

// DefaultRoute6 installs an IPv6 default route via gw.
func (s *Stack) DefaultRoute6(gw inet.IP6, ifName string) {
	var zero inet.IP6
	s.RT.Add(&route.Entry{
		Family: inet.AFInet6, Dst: zero[:], Plen: 0,
		Flags: route.FlagUp | route.FlagGateway | route.FlagStatic, Gateway: gw, IfName: ifName,
	})
}

// DefaultRoute4 installs an IPv4 default route via gw.
func (s *Stack) DefaultRoute4(gw inet.IP4, ifName string) {
	var zero inet.IP4
	s.RT.Add(&route.Entry{
		Family: inet.AFInet, Dst: zero[:], Plen: 0,
		Flags: route.FlagUp | route.FlagGateway | route.FlagStatic, Gateway: gw, IfName: ifName,
	})
}

// AddTunnel configures an encapsulation tunnel (6in4 / 4in6 / 6in6)
// and wires its device into the stack: decapsulated packets re-enter
// through the netisr input queue, so the GRO engine sees their inner
// headers.  Routes pointed at the returned tunnel's interface name
// send traffic through it.
func (s *Stack) AddTunnel(cfg tunnel.Config) (*tunnel.Tunnel, error) {
	t, err := s.Tun.Add(cfg)
	if err != nil {
		return nil, err
	}
	t.Ifp.SetInput(s.enqueue)
	s.mu.Lock()
	s.ifps = append(s.ifps, t.Ifp)
	s.mu.Unlock()
	return t, nil
}

// EnableRouter6 turns the stack into an advertising IPv6 router on the
// interface (§4.2.2).
func (s *Stack) EnableRouter6(ifName string, cfg icmp6.RouterConfig) error {
	return s.ICMP6.EnableRouter(ifName, cfg)
}

// SolicitRouters sends a Router Solicitation (§4.2.1 second phase).
func (s *Stack) SolicitRouters(ifName string) error {
	return s.ICMP6.SendRouterSolicit(ifName)
}

// PFKey opens a PF_KEY socket on the stack's Key Engine (§6.2).
func (s *Stack) PFKey() *key.Socket { return s.Keys.Open() }

// RouteSocket subscribes to routing messages (PF_ROUTE).
func (s *Stack) RouteSocket(buf int) chan route.Message { return s.RT.Subscribe(buf) }

// Ping6 sends an ICMPv6 echo request.
func (s *Stack) Ping6(dst inet.IP6, id, seq uint16, payload []byte) error {
	return s.ICMP6.SendEcho(dst, id, seq, payload)
}

// Ping4 sends an ICMPv4 echo request.
func (s *Stack) Ping4(dst inet.IP4, id, seq uint16, payload []byte) error {
	return s.ICMP4.SendEcho(dst, id, seq, payload)
}

// deliverDatagram is the UDP-to-socket delivery glue.
func deliverDatagram(p *pcb.PCB, data []byte, src inet.IP6, sport uint16, meta proto.Meta) {
	sock, _ := p.Socket.(*Socket)
	if sock == nil {
		return
	}
	sock.enqueueDgram(data, src, sport, meta.FlowInfo)
}

// notifyDatagramErr surfaces ICMP errors on UDP sockets.
func notifyDatagramErr(p *pcb.PCB, kind proto.CtlType, mtu int) {
	sock, _ := p.Socket.(*Socket)
	if sock == nil {
		return
	}
	sock.setError(ctlError(kind))
}

func ctlError(kind proto.CtlType) error {
	switch kind {
	case proto.CtlPortUnreach:
		return ErrConnRefused
	case proto.CtlMsgSize:
		return ErrMsgSize
	default:
		return ErrHostUnreach
	}
}
