// Package conformance is a scenario harness for adversarial packet
// trains against the IPv4 and IPv6 reassembly paths.  Each scenario
// hand-crafts a fragment sequence — overlapping, tiny, atomic,
// duplicated, timeout-straddling — injects it into a receiver built
// from the real protocol modules, and asserts the exact outcome:
// which datagrams were accepted (byte-for-byte), which were dropped,
// and which ICMP errors came back.
//
// The whole world runs on a testnet.Sim virtual clock, so timeout
// scenarios that span 30+ seconds of protocol time execute in
// microseconds and every run is deterministic.  The scenarios double
// as RFC 5722-style overlap-attack regression tests, and the two
// families answer overlaps differently.  IPv4 keeps the first-arriving
// bytes and discards later overlaps, as 4.4 BSD's ip_reass does.  IPv6
// abandons a datagram whose fragments overlap, as RFC 5722 and RFC
// 8200 §4.5 require, and drops an exact duplicate alone.  Either way
// an attacker cannot rewrite data already held.
package conformance

import (
	"encoding/binary"
	"time"

	"bsd6/internal/icmp6"
	"bsd6/internal/inet"
	"bsd6/internal/ipv4"
	"bsd6/internal/ipv6"
	"bsd6/internal/mbuf"
	"bsd6/internal/netif"
	"bsd6/internal/proto"
	"bsd6/internal/testnet"
)

// IcmpErr is one ICMP error observed during a scenario.
type IcmpErr struct {
	Type, Code uint8
}

// Net is a two-node world: a sender ("atk") whose stack answers the
// reverse path (ND, ARP) and collects ICMP errors, and a receiver
// ("dst") whose reassembly queues are under test.  Crafted fragments
// are injected directly into the receiver's IP input, exactly as if
// they had arrived on its first hub interface; everything the
// receiver emits in response crosses the simulated link for real.
type Net struct {
	Sim  *testnet.Sim
	Hub  *netif.Hub
	A, B *testnet.Node

	// Delivered6 and Delivered4 record, in order, the payload bytes
	// the receiver's protocol switch handed to the UDP slot — one
	// entry per accepted (reassembled) datagram.
	Delivered6 [][]byte
	Delivered4 [][]byte

	// Errors6 records ICMPv6 errors received back at the sender.
	// Errors4 records ICMPv4 errors the receiver put on the wire for
	// the sender (sniffed on the hub, so the assertion covers the
	// exact type/code transmitted).
	Errors6 []IcmpErr
	Errors4 []IcmpErr
	// Params6 records the parameter field (a Parameter Problem's
	// pointer) of each ICMPv6 error the receiver put on the wire,
	// sniffed on the hub.
	Params6 []uint32

	llA, llB inet.IP6
	v4A, v4B inet.IP4
}

// NewNet assembles the two-node world on a fresh simulation.
func NewNet() *Net {
	n := &Net{Sim: testnet.NewSim()}
	n.Hub = n.Sim.NewHub()
	n.A = n.Sim.NewNode("atk")
	n.B = n.Sim.NewNode("dst")
	n.v4A = inet.IP4{10, 0, 0, 1}
	n.v4B = inet.IP4{10, 0, 0, 2}
	n.A.Join(n.Hub, testnet.MacA, 1500, n.v4A, 24)
	n.B.Join(n.Hub, testnet.MacB, 1500, n.v4B, 24)
	n.llA = n.A.LinkLocal(0)
	n.llB = n.B.LinkLocal(0)

	n.B.V6.Register(proto.UDP, func(pkt *mbuf.Mbuf, _ proto.Meta) {
		n.Delivered6 = append(n.Delivered6, pkt.CopyBytes())
		pkt.Free()
	}, nil)
	n.B.V4.Register(proto.UDP, func(pkt *mbuf.Mbuf, _ proto.Meta) {
		n.Delivered4 = append(n.Delivered4, pkt.CopyBytes())
		pkt.Free()
	}, nil)
	n.A.ICMP6.OnErrorMsg = func(typ, code uint8, _ inet.IP6, _ []byte) {
		n.Errors6 = append(n.Errors6, IcmpErr{typ, code})
	}
	n.Hub.Capture = func(fr netif.Frame) {
		if fr.EtherType == netif.EtherTypeIPv6 {
			b := fr.Payload.Bytes()
			h, err := ipv6.Parse(b)
			if err == nil && h.Src == n.llB && h.NextHdr == proto.ICMPv6 &&
				len(b) >= ipv6.HeaderLen+8 && icmp6.IsError(b[ipv6.HeaderLen]) {
				n.Params6 = append(n.Params6, binary.BigEndian.Uint32(b[ipv6.HeaderLen+4:]))
			}
			return
		}
		if fr.EtherType != netif.EtherTypeIPv4 {
			return
		}
		b := fr.Payload.Bytes()
		h, hl, err := ipv4.Parse(b)
		if err != nil || h.Proto != proto.ICMP || len(b) < hl+2 {
			return
		}
		typ := b[hl]
		if typ == ipv4.IcmpEcho || typ == ipv4.IcmpEchoReply {
			return
		}
		n.Errors4 = append(n.Errors4, IcmpErr{typ, b[hl+1]})
	}
	return n
}

// Frag6 describes one crafted IPv6 fragment.  Off is the byte offset
// (a multiple of 8 except possibly for the final fragment), More the
// M bit, ID the identification, Data the fragment payload.  NextHdr
// defaults to UDP so completed datagrams land in the Delivered6 tap.
type Frag6 struct {
	Off     int
	More    bool
	ID      uint32
	Data    []byte
	NextHdr uint8
}

// Inject6 delivers one crafted fragment, sender→receiver, straight
// into the receiver's IPv6 input.
func (n *Net) Inject6(f Frag6) {
	nh := f.NextHdr
	if nh == 0 {
		nh = proto.UDP
	}
	fh := &ipv6.FragHeader{NextHdr: nh, Off: f.Off, More: f.More, ID: f.ID}
	fb := fh.Marshal(nil)
	fb = append(fb, f.Data...)
	h := &ipv6.Header{NextHdr: proto.Fragment, HopLimit: 64,
		PayloadLen: len(fb), Src: n.llA, Dst: n.llB}
	pkt := mbuf.New(h.Marshal(nil))
	pkt.Append(fb)
	n.B.V6.Input(n.B.Ifps[0], pkt)
}

// Frag4 describes one crafted IPv4 fragment.
type Frag4 struct {
	Off   int
	More  bool
	ID    uint16
	Data  []byte
	Proto uint8
}

// Inject4 delivers one crafted fragment into the receiver's IPv4
// input.
func (n *Net) Inject4(f Frag4) {
	p := f.Proto
	if p == 0 {
		p = proto.UDP
	}
	h := &ipv4.Header{TotalLen: ipv4.HeaderLen + len(f.Data), ID: f.ID,
		MF: f.More, FragOff: f.Off, TTL: 64, Proto: p,
		Src: n.v4A, Dst: n.v4B}
	pkt := mbuf.New(h.Marshal(nil))
	pkt.Append(f.Data)
	n.B.V4.Input(n.B.Ifps[0], pkt)
}

// Run advances simulated time, firing hub deliveries and the BSD
// timer cadence (fast/slow timeouts) that fall in the window.
func (n *Net) Run(d time.Duration) { n.Sim.Run(d) }

// ExpireReassembly advances past the 30-second reassembly lifetime so
// every pending fragment buffer on the receiver times out.
func (n *Net) ExpireReassembly() { n.Run(31 * time.Second) }

// Pattern returns length n of a recognizable byte sequence seeded by
// tag, so overlap scenarios can tell exactly whose bytes survived.
func Pattern(tag byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = tag + byte(i)
	}
	return b
}
