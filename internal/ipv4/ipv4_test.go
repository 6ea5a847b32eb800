package ipv4

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"bsd6/internal/inet"
	"bsd6/internal/ip"
	"bsd6/internal/mbuf"
	"bsd6/internal/netif"
	"bsd6/internal/proto"
	"bsd6/internal/route"
	"bsd6/internal/stat"
	"bsd6/internal/vclock"
)

func TestHeaderRoundTrip(t *testing.T) {
	h := &Header{
		TOS: 0x10, TotalLen: 1234, ID: 42, DF: true, FragOff: 0,
		TTL: 63, Proto: proto.UDP,
		Src: inet.IP4{10, 0, 0, 1}, Dst: inet.IP4{10, 0, 0, 2},
	}
	wire := h.Marshal(nil)
	if len(wire) != HeaderLen {
		t.Fatalf("wire len = %d", len(wire))
	}
	got, hl, err := Parse(wire)
	if err != nil || hl != HeaderLen {
		t.Fatal(err)
	}
	if got.TOS != h.TOS || got.TotalLen != h.TotalLen || got.ID != h.ID ||
		!got.DF || got.MF || got.TTL != h.TTL || got.Proto != h.Proto ||
		got.Src != h.Src || got.Dst != h.Dst {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestHeaderOptions(t *testing.T) {
	h := &Header{TotalLen: 24, TTL: 1, Proto: 1, Options: []byte{1, 1, 1, 1}}
	wire := h.Marshal(nil)
	got, hl, err := Parse(wire)
	if err != nil || hl != 24 || !bytes.Equal(got.Options, h.Options) {
		t.Fatalf("options: %v %d %v", got, hl, err)
	}
}

func TestHeaderChecksumDetectsCorruption(t *testing.T) {
	h := &Header{TotalLen: 20, TTL: 64, Proto: 6, Src: inet.IP4{1, 2, 3, 4}}
	wire := h.Marshal(nil)
	for i := range wire {
		w := append([]byte(nil), wire...)
		w[i] ^= 0x04
		if _, _, err := Parse(w); err == nil {
			t.Fatalf("corruption at byte %d undetected", i)
		}
	}
}

func TestParseErrors(t *testing.T) {
	if _, _, err := Parse(make([]byte, 10)); err != ErrShort {
		t.Fatal("short")
	}
	h := (&Header{TotalLen: 20, TTL: 1}).Marshal(nil)
	h[0] = 0x65 // version 6
	if _, _, err := Parse(h); err != ErrVersion {
		t.Fatal("version")
	}
	h2 := (&Header{TotalLen: 20, TTL: 1}).Marshal(nil)
	h2[0] = 0x44 // IHL=4 < 5
	if _, _, err := Parse(h2); err != ErrLength {
		t.Fatal("ihl")
	}
}

func TestQuickHeaderRoundTrip(t *testing.T) {
	f := func(tos uint8, id uint16, ttl uint8, p uint8, src, dst inet.IP4, fragOff uint16, df, mf bool, payloadLen uint16) bool {
		h := &Header{
			TOS: tos, ID: id, TTL: ttl, Proto: p, Src: src, Dst: dst,
			DF: df, MF: mf, FragOff: int(fragOff%0x2000) * 8,
			// TotalLen is a 16-bit field; keep the generator in range.
			TotalLen: HeaderLen + int(payloadLen)%(65536-HeaderLen),
		}
		got, _, err := Parse(h.Marshal(nil))
		if err != nil {
			return false
		}
		return got.TOS == h.TOS && got.ID == h.ID && got.FragOff == h.FragOff &&
			got.DF == h.DF && got.MF == h.MF && got.TTL == h.TTL &&
			got.Proto == h.Proto && got.Src == h.Src && got.Dst == h.Dst &&
			got.TotalLen == h.TotalLen
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

//
// Node harness.
//

type node struct {
	name string
	rt   *route.Table
	l    *Layer
	ic   *ICMP
	ifps []*netif.Interface
}

func newNode(name string) *node {
	rt := route.NewTable()
	l := NewLayer(rt)
	ic := AttachICMP(l)
	n := &node{name: name, rt: rt, l: l, ic: ic}
	lo := netif.NewLoopback(name+"-lo", 32768)
	lo.SetInput(func(ifp *netif.Interface, fr netif.Frame) { l.Input(ifp, fr.Payload) })
	l.AddInterface(lo)
	return n
}

// join attaches the node to a hub with the given address.
func (n *node) join(hub *netif.Hub, mac inet.LinkAddr, addr inet.IP4, plen int, mtu int) *netif.Interface {
	ifp := netif.New(fmt.Sprintf("%s-eth%d", n.name, len(n.ifps)), mac, mtu)
	ifp.SetInput(func(ifp *netif.Interface, fr netif.Frame) {
		switch fr.EtherType {
		case EtherTypeARP:
			n.l.ArpInput(ifp, fr.Payload)
		case netif.EtherTypeIPv4:
			n.l.Input(ifp, fr.Payload)
		}
	})
	hub.Attach(ifp)
	ifp.AddAddr4(netif.Addr4{Addr: addr, Plen: plen})
	n.l.AddInterface(ifp)
	n.ifps = append(n.ifps, ifp)
	// On-link cloning route for the subnet.
	netAddr := addr
	m := inet.Mask4(plen)
	for i := range netAddr {
		netAddr[i] &= m[i]
	}
	n.rt.Add(&route.Entry{
		Family: inet.AFInet, Dst: netAddr[:], Plen: plen,
		Flags: route.FlagUp | route.FlagCloning | route.FlagLLInfo, IfName: ifp.Name,
	})
	return ifp
}

func (n *node) defaultVia(gw inet.IP4, ifName string) {
	var zero inet.IP4
	n.rt.Add(&route.Entry{
		Family: inet.AFInet, Dst: zero[:], Plen: 0,
		Flags: route.FlagUp | route.FlagGateway, Gateway: gw, IfName: ifName,
	})
}

var (
	addrA = inet.IP4{10, 0, 0, 1}
	addrB = inet.IP4{10, 0, 0, 2}
	macA  = inet.LinkAddr{2, 0, 0, 0, 0, 0xa}
	macB  = inet.LinkAddr{2, 0, 0, 0, 0, 0xb}
	macR1 = inet.LinkAddr{2, 0, 0, 0, 0, 1}
	macR2 = inet.LinkAddr{2, 0, 0, 0, 0, 2}
)

func twoNodes(t *testing.T) (*node, *node) {
	t.Helper()
	hub := netif.NewHub()
	a, b := newNode("a"), newNode("b")
	a.join(hub, macA, addrA, 24, 1500)
	b.join(hub, macB, addrB, 24, 1500)
	return a, b
}

// pinger collects echo replies.
type pinger struct {
	mu      sync.Mutex
	replies []uint16
}

func (p *pinger) hook(ic *ICMP) {
	ic.OnEcho = func(src inet.IP4, id, seq uint16, payload []byte) {
		p.mu.Lock()
		p.replies = append(p.replies, seq)
		p.mu.Unlock()
	}
}

func (p *pinger) count() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.replies)
}

// waitFor waits until cond holds. Hub links deliver synchronously on
// the sender's goroutine, so cond is normally true on the first check;
// the spin-yield only covers stragglers, without sleeping.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		runtime.Gosched()
	}
}

func TestPingWithARPResolution(t *testing.T) {
	a, b := twoNodes(t)
	p := &pinger{}
	p.hook(a.ic)
	// First echo triggers ARP; the packet is queued and flushed on reply.
	if err := a.ic.SendEcho(addrB, 7, 1, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first reply", func() bool { return p.count() >= 1 })
	if a.l.Stats.ArpRequests.Get() == 0 || b.l.Stats.ArpReplies.Get() == 0 {
		t.Fatal("ARP exchange did not happen")
	}
	// Second echo uses the resolved entry: no new ARP request.
	arpBefore := a.l.Stats.ArpRequests.Get()
	a.ic.SendEcho(addrB, 7, 2, []byte("payload"))
	waitFor(t, "second reply", func() bool { return p.count() >= 2 })
	if a.l.Stats.ArpRequests.Get() != arpBefore {
		t.Fatal("resolved neighbor re-ARPed")
	}
	// The neighbor is a cloned host route with a MAC gateway.
	rt, ok := a.rt.Lookup(inet.AFInet, addrB[:])
	if !ok || !rt.Host() {
		t.Fatal("no neighbor host route")
	}
	if mac, ok := rt.Gateway.(inet.LinkAddr); !ok || mac != macB {
		t.Fatalf("gateway = %v", rt.Gateway)
	}
}

// TestARPResolvedParallelSend sends from several goroutines at once
// through a resolved ARP entry while ARP replies keep refreshing it:
// the sends read the entry under the table's shared lock, learning
// rewrites it under the exclusive one, and no send re-ARPs or loses
// its packet.  Run it with -race.
func TestARPResolvedParallelSend(t *testing.T) {
	a, _ := twoNodes(t)
	p := &pinger{}
	p.hook(a.ic)
	if err := a.ic.SendEcho(addrB, 9, 0, nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first reply", func() bool { return p.count() >= 1 })
	arpBefore := a.l.Stats.ArpRequests.Get()

	const senders, each = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func(id uint16) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := a.ic.SendEcho(addrB, id, uint16(i), []byte("parallel")); err != nil {
					t.Error(err)
					return
				}
			}
		}(uint16(10 + w))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < each; i++ {
			a.l.ArpInput(a.ifps[0], mbuf.New(arpMarshal(arpReply, macB, addrB, macA, addrA)))
		}
	}()
	wg.Wait()
	waitFor(t, "every reply", func() bool { return p.count() >= 1+senders*each })
	if got := a.l.Stats.ArpRequests.Get(); got != arpBefore {
		t.Fatalf("resolved neighbor re-ARPed %d times", got-arpBefore)
	}
}

func TestPingSelfViaLoopback(t *testing.T) {
	a, _ := twoNodes(t)
	p := &pinger{}
	p.hook(a.ic)
	if err := a.ic.SendEcho(addrA, 1, 1, []byte("self")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "self reply", func() bool { return p.count() >= 1 })
	if a.ifps[0].Stats().OutPackets != 0 {
		t.Fatal("self ping left the node")
	}
}

func TestARPFailureRejectsRoute(t *testing.T) {
	a, _ := twoNodes(t)
	missing := inet.IP4{10, 0, 0, 99}
	a.ic.SendEcho(missing, 1, 1, nil)
	// Drive retries well past arpMaxTries.
	now := time.Now()
	for i := 0; i < arpMaxTries+2; i++ {
		now = now.Add(2 * arpRetry)
		a.l.SlowTimo(now)
	}
	rt, ok := a.rt.Get(inet.AFInet, missing[:], 32)
	if !ok || rt.Flags&route.FlagReject == 0 {
		t.Fatalf("unresolvable neighbor not rejected: %+v", rt)
	}
	// Sends now fail fast with ErrReject.
	err := a.l.Output(mbuf.New([]byte("x")), inet.IP4{}, missing, proto.UDP, OutputOpts{})
	if err != ErrReject {
		t.Fatalf("err = %v, want ErrReject", err)
	}
}

func TestFragmentationAndReassembly(t *testing.T) {
	hub := netif.NewHub()
	a, b := newNode("a"), newNode("b")
	a.join(hub, macA, addrA, 24, 500) // small MTU forces fragmentation
	b.join(hub, macB, addrB, 24, 500)
	p := &pinger{}
	p.hook(a.ic)
	payload := make([]byte, 1800)
	for i := range payload {
		payload[i] = byte(i)
	}
	// Echo request fragments on output; B reassembles, replies (reply
	// also fragments), A reassembles.
	if err := a.ic.SendEcho(addrB, 3, 1, payload); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "fragmented reply", func() bool { return p.count() >= 1 })
	if a.l.Stats.FragsCreated.Get() < 3 {
		t.Fatalf("FragsCreated = %d", a.l.Stats.FragsCreated.Get())
	}
	if b.l.Stats.Reassembled.Get() < 1 || a.l.Stats.Reassembled.Get() < 1 {
		t.Fatalf("reassembled: b=%d a=%d", b.l.Stats.Reassembled.Get(), a.l.Stats.Reassembled.Get())
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.replies) == 0 || p.replies[0] != 1 {
		t.Fatal("reply sequence wrong")
	}
}

func TestReassemblyTimeout(t *testing.T) {
	a, b := twoNodes(t)
	_ = a
	// Inject a lone first fragment directly into B.
	h := &Header{TotalLen: HeaderLen + 16, ID: 9, MF: true, TTL: 5, Proto: proto.UDP, Src: addrA, Dst: addrB}
	frag := mbuf.New(make([]byte, 16))
	frag.Prepend(h.Marshal(nil))
	b.l.Input(b.ifps[0], frag)
	if b.l.FragQueueLen() != 1 {
		t.Fatal("fragment not queued")
	}
	b.l.SlowTimo(time.Now().Add(time.Minute))
	if b.l.FragQueueLen() != 0 {
		t.Fatal("fragment queue not expired")
	}
	if b.l.Stats.ReasmFails.Get() == 0 {
		t.Fatal("ReasmFails not counted")
	}
}

// threeNodeNet builds A --hub1-- R --hub2-- B with R forwarding.
func threeNodeNet(t *testing.T, mtu2 int) (*node, *node, *node) {
	t.Helper()
	hub1, hub2 := netif.NewHub(), netif.NewHub()
	a, r, b := newNode("a"), newNode("r"), newNode("b")
	r.l.Forwarding = true

	rA := inet.IP4{10, 0, 0, 254}
	rB := inet.IP4{10, 0, 1, 254}
	bAddr := inet.IP4{10, 0, 1, 2}

	a.join(hub1, macA, addrA, 24, 1500)
	ifr1 := r.join(hub1, macR1, rA, 24, 1500)
	ifr2 := r.join(hub2, macR2, rB, 24, mtu2)
	b.join(hub2, macB, bAddr, 24, mtu2)

	a.defaultVia(rA, a.ifps[0].Name)
	b.defaultVia(rB, b.ifps[0].Name)
	_ = ifr1
	_ = ifr2
	return a, r, b
}

var addrB2 = inet.IP4{10, 0, 1, 2}

func TestForwarding(t *testing.T) {
	a, r, _ := threeNodeNet(t, 1500)
	p := &pinger{}
	p.hook(a.ic)
	if err := a.ic.SendEcho(addrB2, 5, 1, []byte("via router")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "forwarded reply", func() bool { return p.count() >= 1 })
	if r.l.Stats.Forwarded.Get() < 2 {
		t.Fatalf("router forwarded %d", r.l.Stats.Forwarded.Get())
	}
}

func TestRouterFragments(t *testing.T) {
	// IPv4 routers fragment in the network (§2.1): MTU 1500 then 576.
	a, r, b := threeNodeNet(t, 576)
	p := &pinger{}
	p.hook(a.ic)
	if err := a.ic.SendEcho(addrB2, 5, 1, make([]byte, 1200)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "reply through narrow link", func() bool { return p.count() >= 1 })
	if r.l.Stats.FragsCreated.Get() == 0 {
		t.Fatal("router did not fragment")
	}
	if b.l.Stats.Reassembled.Get() == 0 {
		t.Fatal("B did not reassemble")
	}
}

func TestDFElicitsFragNeeded(t *testing.T) {
	a, _, _ := threeNodeNet(t, 576)
	var gotKind proto.CtlType
	var ctlMTU int
	var mu sync.Mutex
	a.l.Register(proto.UDP, func(*mbuf.Mbuf, proto.Meta) {}, func(kind proto.CtlType, meta *proto.Meta, contents []byte, mtu int) {
		mu.Lock()
		gotKind, ctlMTU = kind, mtu
		mu.Unlock()
	})
	pkt := mbuf.New(make([]byte, 1200))
	if err := a.l.Output(pkt, inet.IP4{}, addrB2, proto.UDP, OutputOpts{DF: true}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "frag-needed", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return gotKind == proto.CtlMsgSize
	})
	mu.Lock()
	defer mu.Unlock()
	if ctlMTU != 576 {
		t.Fatalf("ctl MTU = %d", ctlMTU)
	}
}

func TestTTLExpiryElicitsTimeExceeded(t *testing.T) {
	a, _, _ := threeNodeNet(t, 1500)
	var got proto.CtlType
	var mu sync.Mutex
	a.l.Register(proto.UDP, func(*mbuf.Mbuf, proto.Meta) {}, func(kind proto.CtlType, meta *proto.Meta, contents []byte, mtu int) {
		mu.Lock()
		got = kind
		mu.Unlock()
	})
	pkt := mbuf.New(make([]byte, 32))
	if err := a.l.Output(pkt, inet.IP4{}, addrB2, proto.UDP, OutputOpts{TTL: 1}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "time exceeded", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return got == proto.CtlTimeExceed
	})
}

func TestUnknownProtocolElicitsUnreach(t *testing.T) {
	a, b := twoNodes(t)
	const mystery = 200
	var got proto.CtlType
	var mu sync.Mutex
	a.l.Register(mystery, nil, func(kind proto.CtlType, meta *proto.Meta, contents []byte, mtu int) {
		mu.Lock()
		got = kind
		mu.Unlock()
	})
	pkt := mbuf.New([]byte("mystery"))
	if err := a.l.Output(pkt, inet.IP4{}, addrB, mystery, OutputOpts{}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "proto unreach", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return got == proto.CtlUnreach
	})
	if b.l.Stats.InUnknownProt.Get() == 0 {
		t.Fatal("InUnknownProt not counted")
	}
}

func TestNoRouteError(t *testing.T) {
	a, _ := twoNodes(t)
	err := a.l.Output(mbuf.New([]byte("x")), inet.IP4{}, inet.IP4{192, 168, 9, 9}, proto.UDP, OutputOpts{})
	if err != ErrNoRoute {
		t.Fatalf("err = %v", err)
	}
	if a.l.Stats.OutNoRoute.Get() == 0 {
		t.Fatal("OutNoRoute not counted")
	}
}

func TestBadChecksumDropped(t *testing.T) {
	a, b := twoNodes(t)
	_ = a
	h := &Header{TotalLen: HeaderLen + 4, TTL: 5, Proto: proto.UDP, Src: addrA, Dst: addrB}
	wire := h.Marshal(nil)
	wire[10] ^= 0xff // corrupt checksum
	pkt := mbuf.New(wire)
	pkt.Append([]byte{1, 2, 3, 4})
	before := b.l.Stats.InHdrErrors.Get()
	b.l.Input(b.ifps[0], pkt)
	if b.l.Stats.InHdrErrors.Get() != before+1 {
		t.Fatal("bad checksum accepted")
	}
}

func TestTruncatedPacketDropped(t *testing.T) {
	_, b := twoNodes(t)
	h := &Header{TotalLen: HeaderLen + 100, TTL: 5, Proto: proto.UDP, Src: addrA, Dst: addrB}
	pkt := mbuf.New(h.Marshal(nil))
	pkt.Append([]byte{1, 2, 3}) // claims 100 payload bytes, has 3
	before := b.l.Stats.InHdrErrors.Get()
	b.l.Input(b.ifps[0], pkt)
	if b.l.Stats.InHdrErrors.Get() != before+1 {
		t.Fatal("truncated packet accepted")
	}
}

func TestNotForwardingDropsTransit(t *testing.T) {
	_, b := twoNodes(t)
	h := &Header{TotalLen: HeaderLen, TTL: 5, Proto: proto.UDP, Src: addrA, Dst: inet.IP4{172, 16, 0, 1}}
	pkt := mbuf.New(h.Marshal(nil))
	b.l.Input(b.ifps[0], pkt)
	if b.l.Stats.InAddrErrors.Get() != 1 {
		t.Fatal("transit packet not dropped on host")
	}
}

// TestARPEvictionFreesHeldPackets fills the neighbor cache past its
// cap with unresolved entries, each holding one pooled datagram: every
// entry the cap evicts must hand its held packet back to the pool, so
// only the packets of the entries still in the cache stay outstanding.
func TestARPEvictionFreesHeldPackets(t *testing.T) {
	a := newNode("a")
	a.join(netif.NewHub(), macA, addrA, 16, 1500) // room for the cap's worth of hosts
	probe := mbuf.Get(100)
	base := mbuf.Outstanding()
	probe.Free()
	per := base - mbuf.Outstanding()

	const over = 4
	before := mbuf.Outstanding()
	for i := 0; i < route.DefaultNDCacheMax+over; i++ {
		pkt := mbuf.Get(100)
		dst := inet.IP4{10, 0, byte(1 + i>>8), byte(i)}
		if err := a.l.Output(pkt, inet.IP4{}, dst, proto.UDP, OutputOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.rt.NbrEvictions.Get(); got != over {
		t.Fatalf("%d neighbor evictions, want %d", got, over)
	}
	if leak := mbuf.Outstanding() - before; leak != route.DefaultNDCacheMax*per {
		t.Fatalf("%d bytes outstanding after the evictions, want %d (the %d packets still held)",
			leak, route.DefaultNDCacheMax*per, route.DefaultNDCacheMax)
	}
}

// TestARPHoldDropsAreTyped checks that the two ways an unresolved
// neighbor drops a packet land under typed reasons: its hold queue is
// full, or its entry lingers rejected after resolution failed and a
// packet reaches it through a gateway route.
func TestARPHoldDropsAreTyped(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(1_000_000, 0))
	a := newNode("a")
	onClock(clk, a)
	a.join(netif.NewHub(), macA, addrA, 24, 1500)
	a.l.Drops = stat.NewRecorder(0)
	ghost := inet.IP4{10, 0, 0, 77}
	for i := 0; i <= ip.MaxHold; i++ {
		if err := a.l.Output(mbuf.Get(32), addrA, ghost, proto.UDP, OutputOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	if n := a.l.Drops.Reasons.Get(stat.RArpQueueFull); n != 1 {
		t.Fatalf("arp-queue-overflow = %d, want 1", n)
	}
	for i := 0; i < arpMaxTries+1; i++ {
		clk.Advance(2 * arpRetry)
		a.l.SlowTimo(clk.Now())
	}
	far := inet.IP4{192, 168, 0, 0}
	a.rt.Add(&route.Entry{Family: inet.AFInet, Dst: far[:], Plen: 16,
		Flags: route.FlagUp | route.FlagGateway, Gateway: ghost, IfName: a.ifps[0].Name})
	if err := a.l.Output(mbuf.Get(32), addrA, inet.IP4{192, 168, 1, 1}, proto.UDP, OutputOpts{}); err != nil {
		t.Fatal(err)
	}
	if n := a.l.Drops.Reasons.Get(stat.RV4NoRoute); n != 1 {
		t.Fatalf("ip4-no-route = %d, want 1", n)
	}
}

// lingerRounds checks the solicits a dead neighbor drew in 60 seconds
// of traffic: rounds of exactly tries, each starting at least the
// reject linger after the last solicit of the round before.  Resolution
// takes a few seconds and the linger 20, so 60 seconds hold three
// rounds.
func lingerRounds(t *testing.T, at []time.Time, tries int, linger time.Duration) {
	t.Helper()
	if len(at) != 3*tries {
		t.Fatalf("%d solicits in 60 s, want %d (three rounds of %d)", len(at), 3*tries, tries)
	}
	for i := tries; i < len(at); i += tries {
		if gap := at[i].Sub(at[i-1]); gap < linger {
			t.Fatalf("solicit %d came %v after the round before, within the %v linger", i+1, gap, linger)
		}
	}
}

// TestNeighborRejectLingersARP sends to a dead neighbor twice a second
// for 60 virtual seconds, ticking SlowTimo as the stack does.  A
// rejected entry broadcasts nothing until its linger runs out and a
// datagram resolves it afresh.
func TestNeighborRejectLingersARP(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(1_000_000, 0))
	hub := netif.NewHub()
	var asks []time.Time
	hub.Capture = func(fr netif.Frame) {
		if fr.EtherType == EtherTypeARP {
			asks = append(asks, clk.Now())
		}
	}
	a := newNode("a")
	onClock(clk, a)
	a.join(hub, macA, addrA, 24, 1500)
	ghost := inet.IP4{10, 0, 0, 77}
	for i := 0; i < 120; i++ {
		if err := a.l.Output(mbuf.Get(32), addrA, ghost, proto.UDP, OutputOpts{}); err != nil && err != ErrReject {
			t.Fatal(err)
		}
		a.l.SlowTimo(clk.Now())
		clk.Advance(500 * time.Millisecond)
	}
	lingerRounds(t, asks, arpMaxTries, arpRejectLife)
}

// TestNeighborResolvesAfterLingerARP fails a resolution, then brings
// the neighbor up without a word: sends are refused while the reject
// lingers, and the first datagram after it reaches the neighbor.
func TestNeighborResolvesAfterLingerARP(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(1_000_000, 0))
	hub := netif.NewHub()
	a, b := newNode("a"), newNode("b")
	onClock(clk, a, b)
	a.join(hub, macA, addrA, 24, 1500)
	send := func(seq byte) error {
		pkt := mbuf.Get(1)
		pkt.Bytes()[0] = seq
		return a.l.Output(pkt, addrA, addrB, proto.UDP, OutputOpts{})
	}
	if err := send(0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= arpMaxTries; i++ {
		clk.Advance(arpRetry)
		a.l.SlowTimo(clk.Now())
	}
	rt, ok := a.rt.Get(inet.AFInet, addrB[:], 32)
	if !ok || rt.Flags&route.FlagReject == 0 {
		t.Fatalf("failed resolution not rejected: %+v", rt)
	}
	expire := rt.Expire

	b.join(hub, macB, addrB, 24, 1500)
	var got []byte
	b.l.Register(proto.UDP, func(pkt *mbuf.Mbuf, _ proto.Meta) {
		got = append(got, pkt.Bytes()[0])
		pkt.Free()
	}, nil)
	for seq := byte(1); ; seq++ {
		clk.Advance(500 * time.Millisecond)
		a.l.SlowTimo(clk.Now())
		err := send(seq)
		if clk.Now().Before(expire) {
			if err != ErrReject || len(got) != 0 {
				t.Fatalf("send %d inside the linger: err %v, %d delivered; want ErrReject, none", seq, err, len(got))
			}
			continue
		}
		if err != nil || len(got) != 1 || got[0] != seq {
			t.Fatalf("first send after the linger (%d): err %v, delivered %v", seq, err, got)
		}
		return
	}
}

// TestARPReresolvesChangedMAC moves the neighbor to a new link-layer
// address after the keep time, with no gratuitous ARP: the stale entry
// polls the old address, the polls go unanswered, the entry is
// deleted, and the next datagram's broadcast finds the new address
// one retry after the last poll.  An entry that never aged would send
// to the old address for ever, and one rejected after its polls would
// refuse the neighbor for the whole reject linger.
func TestARPReresolvesChangedMAC(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(1_000_000, 0))
	hub := netif.NewHub()
	a, b, moved := newNode("a"), newNode("b"), newNode("b2")
	onClock(clk, a, b, moved)
	a.join(hub, macA, addrA, 24, 1500)
	b.join(hub, macB, addrB, 24, 1500)
	var got []byte
	for _, n := range []*node{b, moved} {
		n.l.Register(proto.UDP, func(pkt *mbuf.Mbuf, _ proto.Meta) {
			got = append(got, pkt.Bytes()[0])
			pkt.Free()
		}, nil)
	}
	send := func(seq byte) error {
		pkt := mbuf.Get(1)
		pkt.Bytes()[0] = seq
		return a.l.Output(pkt, addrA, addrB, proto.UDP, OutputOpts{})
	}
	if err := send(0); err != nil || !bytes.Equal(got, []byte{0}) {
		t.Fatalf("first send: err %v, delivered %v", err, got)
	}

	hub.Detach(b.ifps[0])
	macC := inet.LinkAddr{2, 0, 0, 0, 0, 0xc}
	moved.join(hub, macC, addrB, 24, 1500)
	clk.Advance(arpKeep)
	var asked []inet.LinkAddr // where a's ARP requests went
	hub.Capture = func(fr netif.Frame) {
		if fr.Src == macA && fr.EtherType == EtherTypeARP {
			asked = append(asked, fr.Dst)
		}
	}
	deadline := clk.Now().Add(arpMaxProbes*arpRetry + arpRetry)
	for seq := byte(1); len(got) == 1; seq++ {
		if clk.Now().After(deadline) {
			t.Fatalf("neighbor not re-resolved %v after the keep time", arpMaxProbes*arpRetry+arpRetry)
		}
		clk.Advance(500 * time.Millisecond)
		a.l.SlowTimo(clk.Now())
		send(seq)
	}
	rt, _ := a.rt.Get(inet.AFInet, addrB[:], 32)
	if rt.Gateway != macC {
		t.Fatalf("entry at %v, want %v", rt.Gateway, macC)
	}
	want := []inet.LinkAddr{macB, macB, netif.Broadcast} // arpMaxProbes polls, then a broadcast
	if !slices.Equal(asked, want) {
		t.Fatalf("ARP requests to %v, want %v", asked, want)
	}
}
