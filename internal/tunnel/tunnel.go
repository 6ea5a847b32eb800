// Package tunnel implements configured encapsulation tunnels — 6in4
// (RFC 4213 configured tunneling), 4in6, and v6-in-v6 (RFC 2473) — as
// virtual netif devices, the transition technologies every deployment
// of the paper's era ran to cross a core of the other protocol.
//
// A tunnel is an ordinary point-to-point interface to the rest of the
// stack: routes point prefixes at it, the IP output path resolves it
// like any link, and the forwarding path's MTU checks read its MTU.
// The device's MTU is the *inner* budget — the underlying path MTU
// minus the encapsulation overhead — so TCP MSS derivation, source
// fragmentation, and the forwarding Packet Too Big checks
// all produce correctly-sized inner packets with no tunnel-specific
// arithmetic anywhere in the IP layers.
//
// Encapsulation prepends the outer header in place (the mbuf slab
// headroom is sized for a full nested stack, see mbuf.Headroom) by
// re-entering the owning outer IP layer's Output path, so tunnel-mode
// IPsec, outer-path routing, and outer fragmentation policy all
// compose on the ordinary machinery.  Decapsulation validates the
// outer endpoints against the configured tunnels, charges typed drop
// reasons for everything it refuses, and re-enters the inner IP
// layer's input path through the tunnel device's Deliver, so the inner
// packet joins the stack's netisr queue like any received frame.
//
// Both encapsulation and decapsulation count against an RFC 2473-style
// nesting limit carried in the packet header, so a tunnel routed into
// itself (or a crafted matryoshka packet) terminates deterministically
// with a tunnel-nest-limit drop instead of recursing.
package tunnel

import (
	"errors"
	"fmt"
	"sync"

	"bsd6/internal/inet"
	"bsd6/internal/ipv4"
	"bsd6/internal/ipv6"
	"bsd6/internal/key"
	"bsd6/internal/mbuf"
	"bsd6/internal/netif"
	"bsd6/internal/proto"
	"bsd6/internal/stat"
)

// Mode selects the inner/outer protocol pairing of a tunnel.
type Mode int

// Tunnel modes: the inner protocol carried over the outer.
const (
	Mode6in4 Mode = iota // IPv6 over an IPv4 core (protocol 41)
	Mode4in6             // IPv4 over an IPv6 core (next header 4)
	Mode6in6             // IPv6 over IPv6 (RFC 2473 generic tunneling)
)

// String names the mode the way ifconfig would print it.
func (m Mode) String() string {
	switch m {
	case Mode6in4:
		return "6in4"
	case Mode4in6:
		return "4in6"
	case Mode6in6:
		return "6in6"
	}
	return "tun?"
}

// outerV4 reports whether the outer header is IPv4.
func (m Mode) outerV4() bool { return m == Mode6in4 }

// innerV6 reports whether the inner packet is IPv6.
func (m Mode) innerV6() bool { return m != Mode4in6 }

// overhead returns the encapsulation overhead in bytes: the outer
// header this tunnel prepends to every packet.
func (m Mode) overhead() int {
	if m.outerV4() {
		return ipv4.HeaderLen
	}
	return ipv6.HeaderLen
}

// innerProto returns the outer-header protocol / next-header value
// identifying the encapsulated payload.
func (m Mode) innerProto() uint8 {
	if m.innerV6() {
		return proto.IPv6
	}
	return proto.IPv4
}

// DefaultNestLimit bounds how many encapsulations (and, symmetrically,
// decapsulations) one packet may traverse on this node, in the spirit
// of RFC 2473's Tunnel Encapsulation Limit option; encapsulation
// recurses through the output path, so an encapsulation loop ends
// here rather than exhausting the goroutine stack.
const DefaultNestLimit = 4

// DefaultLinkMTU is the assumed underlying path MTU when a tunnel is
// configured without one (the classic Ethernet default).
const DefaultLinkMTU = 1500

// Config describes one configured tunnel.
type Config struct {
	// Name is the device name (e.g. "tun0").
	Name string
	// Mode selects the inner/outer pairing.
	Mode Mode
	// Local4/Remote4 are the outer endpoints for Mode6in4.
	Local4, Remote4 inet.IP4
	// Local6/Remote6 are the outer endpoints for Mode4in6 and Mode6in6.
	Local6, Remote6 inet.IP6
	// LinkMTU is the underlying (outer) path MTU; the tunnel device MTU
	// becomes LinkMTU minus the encapsulation overhead. 0 means
	// DefaultLinkMTU.
	LinkMTU int
}

// Stats are one tunnel's lifetime counters, beyond the generic netif
// interface counters.
type Stats struct {
	Encapped    uint64 // packets encapsulated onto the outer path
	Decapped    uint64 // packets decapsulated and re-entered
	InErrors    uint64 // decap validation failures (typed in drop reasons)
	PMTUUpdates uint64 // outer-path PTB/frag-needed translated inward
}

// Tunnel is one configured tunnel device.
type Tunnel struct {
	// Name is the device name.
	Name string
	// Mode is the inner/outer pairing.
	Mode Mode
	// Ifp is the virtual interface routes point at.
	Ifp *netif.Interface

	cfg Config
	mod *Module

	// sec is the tunnel's held security verdict for the outer path
	// (v6 outers only): tunnel-mode IPsec over the encapsulated flow
	// resolves through it instead of per-packet SA scans.
	sec key.Cache

	mu    sync.Mutex
	stats Stats
}

// Stats returns a copy of the tunnel's counters.
func (t *Tunnel) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// Config returns the tunnel's configuration.
func (t *Tunnel) Config() Config { return t.cfg }

// Module owns the configured tunnels of one stack and the protocol-41
// / protocol-4 decapsulation entries in both IP layers' protocol
// switches.
type Module struct {
	v4 *ipv4.Layer
	v6 *ipv6.Layer

	// Drops is the stack-wide drop observability sink; nil counts
	// nothing.
	Drops *stat.Recorder

	mu   sync.Mutex
	tuns []*Tunnel
}

// Attach creates the tunnel module and registers the encapsulation
// protocols — IPv6-in-IPv4 (41 over v4), IPv4-in-IPv6 (4 over v6),
// IPv6-in-IPv6 (41 over v6) — in the IP layers' protocol switches,
// both the input (decapsulation) and ctlinput (nested PMTU
// translation) entries.
func Attach(v4 *ipv4.Layer, v6 *ipv6.Layer) *Module {
	m := &Module{v4: v4, v6: v6}
	v4.Register(proto.IPv6, m.decapInput, m.ctlInput4)
	v6.Register(proto.IPv4, m.decapInput, m.ctlInput6)
	v6.Register(proto.IPv6, m.decapInput, m.ctlInput6)
	return m
}

// Add configures a tunnel and creates its device.  The device comes up
// with the tunnel flag set, its MTU set to the inner budget (LinkMTU
// minus encapsulation overhead), and its output wired to the
// encapsulation path; it is added to both IP layers so routes can name
// it.  The caller wires the device's input to its dispatch (the stack
// input queue, or direct dispatch in test nodes).
func (m *Module) Add(cfg Config) (*Tunnel, error) {
	if cfg.Name == "" {
		return nil, errors.New("tunnel: device name required")
	}
	if cfg.LinkMTU == 0 {
		cfg.LinkMTU = DefaultLinkMTU
	}
	if cfg.Mode.outerV4() {
		if cfg.Local4.IsUnspecified() || cfg.Remote4.IsUnspecified() {
			return nil, errors.New("tunnel: 6in4 requires both IPv4 endpoints")
		}
	} else {
		if cfg.Local6.IsUnspecified() || cfg.Remote6.IsUnspecified() {
			return nil, errors.New("tunnel: v6-outer modes require both IPv6 endpoints")
		}
	}
	overhead := cfg.Mode.overhead()
	innerMTU := cfg.LinkMTU - overhead
	if innerMTU <= 0 {
		return nil, fmt.Errorf("tunnel: link MTU %d cannot carry the %d-byte outer header", cfg.LinkMTU, overhead)
	}
	ifp := netif.New(cfg.Name, inet.LinkAddr{}, innerMTU)
	ifp.SetFlags(netif.FlagTunnel|netif.FlagUp, true)
	ifp.SetEncapOverhead(overhead)
	ifp.Drops = m.Drops
	t := &Tunnel{Name: cfg.Name, Mode: cfg.Mode, Ifp: ifp, cfg: cfg, mod: m}
	ifp.SetOutput(t.encap)
	m.v4.AddInterface(ifp)
	m.v6.AddInterface(ifp)
	m.mu.Lock()
	m.tuns = append(m.tuns, t)
	m.mu.Unlock()
	return t, nil
}

// Tunnels returns a snapshot of the configured tunnels.
func (m *Module) Tunnels() []*Tunnel {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]*Tunnel(nil), m.tuns...)
}

//
// Encapsulation (device output).
//

// encap is the tunnel device's output function: it receives the fully
// formed inner packet and re-enters the owning outer IP layer's output
// path, which prepends the outer header in the slab headroom and
// routes toward the remote endpoint (running IPsec output processing
// on the way, so tunnel-mode security composes here).
func (t *Tunnel) encap(fr netif.Frame) error {
	pkt := fr.Payload
	hdr := pkt.Hdr()
	m := t.mod

	wantEther := uint16(netif.EtherTypeIPv4)
	if t.Mode.innerV6() {
		wantEther = netif.EtherTypeIPv6
	}
	if fr.EtherType != wantEther {
		// A v4 packet routed into a v6-only tunnel (or vice versa):
		// the route is misconfigured, not the packet.
		m.Drops.DropPkt(stat.RTunAFMismatch, pkt.Bytes())
		pkt.Free()
		return nil
	}
	if int(hdr.Encap) >= DefaultNestLimit {
		m.Drops.DropPkt(stat.RTunNestLimit, pkt.Bytes())
		pkt.Free()
		return nil
	}
	hdr.Encap++

	t.mu.Lock()
	t.stats.Encapped++
	t.mu.Unlock()

	if t.Mode.outerV4() {
		// DF set on the outer header so intermediate v4 routers answer
		// an oversized outer packet with frag-needed — the signal the
		// nested-PMTU translation turns into an inner PTB — instead of
		// silently fragmenting the outer path.
		return m.v4.Output(pkt, t.cfg.Local4, t.cfg.Remote4, t.Mode.innerProto(), ipv4.OutputOpts{DF: true})
	}
	return m.v6.Output(pkt, t.cfg.Local6, t.cfg.Remote6, t.Mode.innerProto(), ipv6.OutputOpts{SecCache: &t.sec})
}

//
// Decapsulation (protocol-switch input).
//

// lookup finds the tunnel whose outer endpoints and protocol match an
// arriving encapsulated packet: the outer source must be the remote
// endpoint and the outer destination our local one.
func (m *Module) lookup(meta *proto.Meta) (*Tunnel, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	endpointHit := false
	for _, t := range m.tuns {
		var match bool
		if t.Mode.outerV4() {
			match = meta.Family == inet.AFInet && meta.Src4 == t.cfg.Remote4 && meta.Dst4 == t.cfg.Local4
		} else {
			match = meta.Family == inet.AFInet6 && meta.Src6 == t.cfg.Remote6 && meta.Dst6 == t.cfg.Local6
		}
		if !match {
			continue
		}
		endpointHit = true
		if t.Mode.innerProto() == meta.Proto {
			return t, true
		}
	}
	return nil, endpointHit
}

// decapInput is the shared protocol-switch entry for protocols 4 and
// 41: the IP layer has validated and stripped the outer header and
// positioned the packet at the inner header; meta carries the outer
// addresses.  It is a terminal consumer: every refusal frees the
// packet after charging a typed drop reason.
func (m *Module) decapInput(pkt *mbuf.Mbuf, meta proto.Meta) {
	t, endpointHit := m.lookup(&meta)
	if t == nil {
		// Encapsulated traffic from an address we have no tunnel to:
		// RFC 4213's decapsulation check. A known endpoint sending the
		// wrong inner protocol for its configured mode is charged
		// separately — that is a configuration mismatch, not an
		// unknown peer.
		if endpointHit {
			m.Drops.DropPkt(stat.RTunAFMismatch, pkt.Bytes())
		} else {
			m.Drops.DropPkt(stat.RTunNoEndpoint, pkt.Bytes())
		}
		pkt.Free()
		return
	}
	hdr := pkt.Hdr()
	if int(hdr.Encap) >= DefaultNestLimit {
		t.inError()
		m.Drops.DropPkt(stat.RTunNestLimit, pkt.Bytes())
		pkt.Free()
		return
	}
	hdr.Encap++

	// Validate the inner header before re-entry: version must match
	// the mode, and the inner source must not be a martian (an
	// attacker on the outer path must not be able to source loopback
	// or multicast traffic "from inside" the tunnel).
	ether, ok := m.checkInner(t, pkt)
	if !ok {
		pkt.Free()
		return
	}

	// Link-level state of the outer frame must not leak inward.
	hdr.Flags &^= mbuf.MBcast | mbuf.MMcast

	t.mu.Lock()
	t.stats.Decapped++
	t.mu.Unlock()

	// Re-enter the stack as if the inner packet arrived on the tunnel
	// device.  It joins the owning stack's netisr queue, where GRO sees
	// the inner headers.
	t.Ifp.Deliver(netif.Frame{EtherType: ether, Payload: pkt})
}

// checkInner validates the decapsulated packet's leading header
// against the tunnel mode and the martian rules, returning the
// EtherType for re-entry.
func (m *Module) checkInner(t *Tunnel, pkt *mbuf.Mbuf) (uint16, bool) {
	if t.Mode.innerV6() {
		b := pkt.PullUp(ipv6.HeaderLen)
		if b == nil || b[0]>>4 != 6 {
			t.inError()
			m.Drops.DropPkt(stat.RTunBadHeader, pkt.Bytes())
			return 0, false
		}
		var src inet.IP6
		copy(src[:], b[8:24])
		if src.IsMulticast() || src.IsLoopback() {
			t.inError()
			m.Drops.DropPkt(stat.RTunMartian, pkt.Bytes())
			return 0, false
		}
		return netif.EtherTypeIPv6, true
	}
	b := pkt.PullUp(ipv4.HeaderLen)
	if b == nil || b[0]>>4 != 4 {
		t.inError()
		m.Drops.DropPkt(stat.RTunBadHeader, pkt.Bytes())
		return 0, false
	}
	var src inet.IP4
	copy(src[:], b[12:16])
	if src.IsMulticast() || src.IsLoopback() || src.IsBroadcast() {
		t.inError()
		m.Drops.DropPkt(stat.RTunMartian, pkt.Bytes())
		return 0, false
	}
	return netif.EtherTypeIPv4, true
}

func (t *Tunnel) inError() {
	t.mu.Lock()
	t.stats.InErrors++
	t.mu.Unlock()
}

//
// Nested PMTU translation (protocol-switch ctlinput).
//

// ctlInput4 receives ICMPv4 errors about outer packets we sent into a
// 6in4 tunnel: a frag-needed from the v4 core means the outer path
// narrowed, so the inner path must narrow by the encap overhead more.
func (m *Module) ctlInput4(kind proto.CtlType, meta *proto.Meta, contents []byte, mtu int) {
	if kind != proto.CtlMsgSize || mtu <= 0 {
		// Old-style frag-needed without a next-hop MTU gives nothing
		// to translate; narrowing blindly would be a forgery vector.
		return
	}
	m.mu.Lock()
	var hit *Tunnel
	for _, t := range m.tuns {
		if t.Mode.outerV4() && t.cfg.Local4 == meta.Src4 && t.cfg.Remote4 == meta.Dst4 {
			hit = t
			break
		}
	}
	m.mu.Unlock()
	if hit != nil {
		m.translatePTB(hit, contents, mtu)
	}
}

// ctlInput6 receives ICMPv6 Packet Too Big about outer packets we sent
// into a v6-outer tunnel (4in6, 6in6).
func (m *Module) ctlInput6(kind proto.CtlType, meta *proto.Meta, contents []byte, mtu int) {
	if kind != proto.CtlMsgSize || mtu <= 0 {
		return
	}
	m.mu.Lock()
	var hit *Tunnel
	for _, t := range m.tuns {
		if !t.Mode.outerV4() && t.cfg.Local6 == meta.Src6 && t.cfg.Remote6 == meta.Dst6 && t.Mode.innerProto() == meta.Proto {
			hit = t
			break
		}
	}
	m.mu.Unlock()
	if hit != nil {
		m.translatePTB(hit, contents, mtu)
	}
}

// translatePTB narrows the tunnel device MTU to the new outer path MTU
// minus the encapsulation overhead, and re-emits the error in the
// *inner* protocol toward the inner source carried in the ICMP
// payload.  If the inner source is this host, the error loops back
// through loopback into the ordinary ctlinput machinery (host-route
// PMTU update, TCP MSS shrink); if it is an island host behind us, it
// routes back out — one uniform path either way.
func (m *Module) translatePTB(t *Tunnel, inner []byte, outerMTU int) {
	overhead := t.Ifp.EncapOverhead()
	innerMTU := outerMTU - overhead
	floor := ipv4.MinMTU
	if t.Mode.innerV6() {
		// Clamp at the IPv6 minimum link MTU: a forged or damaged
		// outer PTB must not push the inner path below what every
		// IPv6 link guarantees (the same rule icmp6 applies to
		// ordinary PTBs).
		floor = ipv6.MinMTU
	}
	if innerMTU < floor {
		innerMTU = floor
	}
	if innerMTU < t.Ifp.MTU() {
		t.Ifp.SetMTU(innerMTU)
	}
	t.mu.Lock()
	t.stats.PMTUUpdates++
	t.mu.Unlock()
	m.Drops.Ctl(fmt.Sprintf("tunnel %s: outer mtu %d -> inner %d", t.Name, outerMTU, innerMTU))

	if len(inner) == 0 {
		return // truncated ICMP payload: device MTU narrowed, nothing to relay
	}
	orig := mbuf.New(inner)
	if t.Mode.innerV6() {
		m.v6.Error(ipv6.ErrPacketTooBig, 0, uint32(innerMTU), orig, "")
	} else {
		m.v4.Error(ipv4.IcmpUnreach, ipv4.CodeFragNeeded, uint32(innerMTU), orig, "")
	}
	orig.Free()
}
