package udp_test

import (
	"sync"
	"testing"

	"bsd6/internal/inet"
	"bsd6/internal/ipsec"
	"bsd6/internal/ipv6"
	"bsd6/internal/key"
	"bsd6/internal/mbuf"
	"bsd6/internal/netif"
	"bsd6/internal/pcb"
	"bsd6/internal/proto"
	"bsd6/internal/testnet"
	"bsd6/internal/udp"
)

// unode is a testnet node plus a UDP instance and a datagram sink.
type unode struct {
	*testnet.Node
	u *udp.UDP

	mu   sync.Mutex
	rcvd []dgram
	errs []proto.CtlType
}

type dgram struct {
	p     *pcb.PCB
	data  []byte
	src   inet.IP6
	sport uint16
	meta  proto.Meta
}

func newUNode(name string) *unode {
	n := &unode{Node: testnet.NewNode(name)}
	n.u = udp.New(n.V4, n.V6)
	n.u.InputPolicy = n.Sec.InputPolicy
	n.u.AllowError = n.Sec.AllowError
	n.u.Deliver = func(p *pcb.PCB, data []byte, src inet.IP6, sport uint16, meta proto.Meta) {
		n.mu.Lock()
		n.rcvd = append(n.rcvd, dgram{p, append([]byte(nil), data...), src, sport, meta})
		n.mu.Unlock()
	}
	n.u.Notify = func(p *pcb.PCB, kind proto.CtlType, mtu int) {
		n.mu.Lock()
		n.errs = append(n.errs, kind)
		n.mu.Unlock()
	}
	return n
}

func (n *unode) count() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.rcvd)
}

func (n *unode) last() dgram {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.rcvd[len(n.rcvd)-1]
}

func pair(t *testing.T) (*unode, *unode) {
	t.Helper()
	hub := netif.NewHub()
	a, b := newUNode("a"), newUNode("b")
	a.Join(hub, testnet.MacA, 1500, inet.IP4{10, 0, 0, 1}, 24)
	b.Join(hub, testnet.MacB, 1500, inet.IP4{10, 0, 0, 2}, 24)
	return a, b
}

func TestUDPOverIPv6(t *testing.T) {
	a, b := pair(t)
	srv := b.u.Table.Attach(inet.AFInet6, "server")
	if err := b.u.Table.Bind(srv, inet.IP6{}, 7); err != nil {
		t.Fatal(err)
	}
	cli := a.u.Table.Attach(inet.AFInet6, "client")
	if err := a.u.Table.Connect(cli, b.LinkLocal(0), 7); err != nil {
		t.Fatal(err)
	}
	if !cli.IsIPv6() {
		t.Fatal("PCB IPv6 flag not set")
	}
	// Figure 7's sendto("hello").
	if err := a.u.Output(cli, []byte("hello"), inet.IP6{}, 0); err != nil {
		t.Fatal(err)
	}
	testnet.WaitFor(t, "datagram", func() bool { return b.count() >= 1 })
	got := b.last()
	if string(got.data) != "hello" || got.src != a.LinkLocal(0) {
		t.Fatalf("got %q from %v", got.data, got.src)
	}
	if got.meta.Family != inet.AFInet6 {
		t.Fatal("wrong family")
	}
	// Reply using sendto semantics.
	if err := b.u.Output(srv, []byte("yo"), got.src, got.sport); err != nil {
		t.Fatal(err)
	}
	testnet.WaitFor(t, "reply", func() bool { return a.count() >= 1 })
	if string(a.last().data) != "yo" {
		t.Fatal("reply payload")
	}
}

func TestUDPOverIPv4(t *testing.T) {
	a, b := pair(t)
	srv := b.u.Table.Attach(inet.AFInet, "server4")
	b.u.Table.Bind(srv, inet.IP6{}, 9)
	cli := a.u.Table.Attach(inet.AFInet, "client4")
	dst := inet.V4Mapped(inet.IP4{10, 0, 0, 2})
	if err := a.u.Table.Connect(cli, dst, 9); err != nil {
		t.Fatal(err)
	}
	if cli.IsIPv6() {
		t.Fatal("IPv6 flag set for v4 session")
	}
	if err := a.u.Output(cli, []byte("v4 hello"), inet.IP6{}, 0); err != nil {
		t.Fatal(err)
	}
	testnet.WaitFor(t, "v4 datagram", func() bool { return b.count() >= 1 })
	got := b.last()
	if string(got.data) != "v4 hello" {
		t.Fatalf("payload %q", got.data)
	}
	if !got.src.IsV4Mapped() {
		t.Fatalf("src not mapped: %v", got.src)
	}
	if got.meta.Family != inet.AFInet {
		t.Fatal("family")
	}
}

func TestV4DatagramToV6Socket(t *testing.T) {
	// §5.2: "processing of an IPv4 packet destined for an IPv6 socket."
	a, b := pair(t)
	srv := b.u.Table.Attach(inet.AFInet6, "dual-server")
	b.u.Table.Bind(srv, inet.IP6{}, 6464)

	cli := a.u.Table.Attach(inet.AFInet, "v4-client")
	a.u.Table.Connect(cli, inet.V4Mapped(inet.IP4{10, 0, 0, 2}), 6464)
	if err := a.u.Output(cli, []byte("crossing"), inet.IP6{}, 0); err != nil {
		t.Fatal(err)
	}
	testnet.WaitFor(t, "cross delivery", func() bool { return b.count() >= 1 })
	got := b.last()
	if got.p != srv {
		t.Fatal("wrong socket")
	}
	if !got.src.IsV4Mapped() {
		t.Fatal("source not presented in mapped form")
	}
	if b.u.Stats.InV4ToV6.Get() != 1 {
		t.Fatal("InV4ToV6 not counted")
	}
	// The v6 socket can reply to the mapped address: the PCB routes it
	// over IPv4.
	if err := b.u.Output(srv, []byte("back"), got.src, got.sport); err != nil {
		t.Fatal(err)
	}
	testnet.WaitFor(t, "mapped reply", func() bool { return a.count() >= 1 })
}

func TestV6OnlySocketRefusesV4(t *testing.T) {
	a, b := pair(t)
	srv := b.u.Table.Attach(inet.AFInet6, "v6only")
	srv.Flags |= pcb.FlagV6Only
	b.u.Table.Bind(srv, inet.IP6{}, 6565)
	cli := a.u.Table.Attach(inet.AFInet, nil)
	a.u.Table.Connect(cli, inet.V4Mapped(inet.IP4{10, 0, 0, 2}), 6565)
	a.u.Output(cli, []byte("x"), inet.IP6{}, 0)
	testnet.WaitFor(t, "no-port count", func() bool { return b.u.Stats.InNoPorts.Get() >= 1 })
	if b.count() != 0 {
		t.Fatal("v6only socket got v4 datagram")
	}
}

func TestChecksumMandatoryOverV6(t *testing.T) {
	a, b := pair(t)
	srv := b.u.Table.Attach(inet.AFInet6, nil)
	b.u.Table.Bind(srv, inet.IP6{}, 5555)
	// Hand-build a v6 UDP datagram with checksum 0.
	hdr := []byte{0x12, 0x34, 0x15, 0xb3, 0, 12, 0, 0} // sport,dport=5555,len=12,ck=0
	pkt := mbuf.New(hdr)
	pkt.Append([]byte("abcd"))
	if err := a.V6.Output(pkt, inet.IP6{}, b.LinkLocal(0), proto.UDP, ipv6OutputOpts()); err != nil {
		t.Fatal(err)
	}
	testnet.WaitFor(t, "missing-sum drop", func() bool { return b.u.Stats.MissingSum6.Get() >= 1 })
	if b.count() != 0 {
		t.Fatal("checksumless v6 datagram delivered")
	}
}

func TestChecksumOptionalOverV4(t *testing.T) {
	a, b := pair(t)
	srv := b.u.Table.Attach(inet.AFInet, nil)
	b.u.Table.Bind(srv, inet.IP6{}, 5556)
	cli := a.u.Table.Attach(inet.AFInet, nil)
	a.u.Table.Connect(cli, inet.V4Mapped(inet.IP4{10, 0, 0, 2}), 5556)
	a.u.SumTx = false // the udpcksum global, off
	if err := a.u.Output(cli, []byte("nocksum"), inet.IP6{}, 0); err != nil {
		t.Fatal(err)
	}
	testnet.WaitFor(t, "uncksummed delivery", func() bool { return b.count() >= 1 })
	if b.u.Stats.NoChecksum.Get() == 0 {
		t.Fatal("NoChecksum not counted")
	}
}

func TestCorruptedChecksumDropped(t *testing.T) {
	a, b := pair(t)
	srv := b.u.Table.Attach(inet.AFInet6, nil)
	b.u.Table.Bind(srv, inet.IP6{}, 5557)
	// Valid checksum over wrong content: flip a payload bit after
	// computing.
	src, dst := a.LinkLocal(0), b.LinkLocal(0)
	body := append([]byte{0x12, 0x34, 0x15, 0xb5, 0, 12, 0, 0}, []byte("abcd")...)
	ck := inet.TransportChecksum6(src, dst, proto.UDP, body)
	body[6], body[7] = byte(ck>>8), byte(ck)
	body[10] ^= 0xff
	pkt := mbuf.New(body)
	a.V6.Output(pkt, src, dst, proto.UDP, ipv6OutputOpts())
	testnet.WaitFor(t, "bad checksum count", func() bool { return b.u.Stats.BadChecksums.Get() >= 1 })
	if b.count() != 0 {
		t.Fatal("corrupted datagram delivered")
	}
}

func TestPortUnreachableNotifies(t *testing.T) {
	a, b := pair(t)
	_ = b // no listener on B
	cli := a.u.Table.Attach(inet.AFInet6, nil)
	a.u.Table.Connect(cli, b.LinkLocal(0), 4242)
	if err := a.u.Output(cli, []byte("anyone?"), inet.IP6{}, 0); err != nil {
		t.Fatal(err)
	}
	testnet.WaitFor(t, "port unreachable", func() bool {
		a.mu.Lock()
		defer a.mu.Unlock()
		for _, k := range a.errs {
			if k == proto.CtlPortUnreach {
				return true
			}
		}
		return false
	})
}

func TestSecuredUDP(t *testing.T) {
	a, b := pair(t)
	authKey := []byte("0123456789abcdef")
	aLL, bLL := a.LinkLocal(0), b.LinkLocal(0)
	a.Keys.Add(&key.SA{SPI: 0x10, Src: aLL, Dst: bLL, Proto: key.ProtoAH, AuthAlg: "keyed-md5", AuthKey: authKey})
	b.Keys.Add(&key.SA{SPI: 0x10, Src: aLL, Dst: bLL, Proto: key.ProtoAH, AuthAlg: "keyed-md5", AuthKey: authKey})
	a.Sec.SetSystemPolicy(ipsec.SockOpts{Auth: ipsec.LevelRequire})
	b.Sec.SetSystemPolicy(ipsec.SockOpts{Auth: ipsec.LevelRequire})

	srv := b.u.Table.Attach(inet.AFInet6, nil)
	b.u.Table.Bind(srv, inet.IP6{}, 23)
	cli := a.u.Table.Attach(inet.AFInet6, nil)
	a.u.Table.Connect(cli, bLL, 23)
	if err := a.u.Output(cli, []byte("secured"), inet.IP6{}, 0); err != nil {
		t.Fatal(err)
	}
	testnet.WaitFor(t, "secured datagram", func() bool { return b.count() >= 1 })
	if b.Sec.Stats.InAuthOK.Get() == 0 {
		t.Fatal("AH not verified")
	}

	// An unauthenticated datagram from a third party is silently
	// dropped by the input policy.
	before := b.u.Stats.InPolicyDrops.Get()
	body := []byte{0x11, 0x11, 0, 23, 0, 9, 0, 0, 'x'}
	ck := inet.TransportChecksum6(aLL, bLL, proto.UDP, body)
	body[6], body[7] = byte(ck>>8), byte(ck)
	pkt := mbuf.New(body)
	// Inject directly, bypassing A's output policy.
	b.V6.Input(b.Ifps[0], buildV6(aLL, bLL, proto.UDP, body))
	_ = pkt
	if b.u.Stats.InPolicyDrops.Get() != before+1 {
		t.Fatal("cleartext datagram not dropped")
	}
}

func TestOutputErrors(t *testing.T) {
	a, _ := pair(t)
	p := a.u.Table.Attach(inet.AFInet6, nil)
	if err := a.u.Output(p, []byte("x"), inet.IP6{}, 0); err != udp.ErrNotConnected {
		t.Fatalf("unconnected: %v", err)
	}
	if err := a.u.Output(p, []byte("x"), testnet.IP6(t, "fe80::1"), 0); err != udp.ErrNoDest {
		t.Fatalf("port 0: %v", err)
	}
	if err := a.u.Output(p, make([]byte, 70000), testnet.IP6(t, "fe80::1"), 9); err != udp.ErrMsgTooBig {
		t.Fatalf("oversize: %v", err)
	}
	// v6 socket family checks are enforced at connect time.
	v4p := a.u.Table.Attach(inet.AFInet, nil)
	if err := a.u.Table.Connect(v4p, testnet.IP6(t, "2001:db8::1"), 9); err != pcb.ErrFamilyMismatch {
		t.Fatalf("family: %v", err)
	}
}

func TestUDPFragmentationOverV6(t *testing.T) {
	// A >MTU datagram fragments end-to-end and reassembles.
	a, b := pair(t)
	srv := b.u.Table.Attach(inet.AFInet6, nil)
	b.u.Table.Bind(srv, inet.IP6{}, 2000)
	cli := a.u.Table.Attach(inet.AFInet6, nil)
	a.u.Table.Connect(cli, b.LinkLocal(0), 2000)
	big := make([]byte, 5000)
	for i := range big {
		big[i] = byte(i)
	}
	if err := a.u.Output(cli, big, inet.IP6{}, 0); err != nil {
		t.Fatal(err)
	}
	testnet.WaitFor(t, "fragmented delivery", func() bool { return b.count() >= 1 })
	got := b.last()
	if len(got.data) != 5000 {
		t.Fatalf("len %d", len(got.data))
	}
	for i := range got.data {
		if got.data[i] != byte(i) {
			t.Fatalf("corruption at %d", i)
		}
	}
	if a.V6.Stats.OutFrags.Get() < 4 {
		t.Fatalf("OutFrags = %d", a.V6.Stats.OutFrags.Get())
	}
}

// helpers

func ipv6OutputOpts() ipv6.OutputOpts { return ipv6.OutputOpts{} }

// buildV6 hand-assembles a complete IPv6 packet for direct injection.
func buildV6(src, dst inet.IP6, nh uint8, payload []byte) *mbuf.Mbuf {
	h := &ipv6.Header{NextHdr: nh, HopLimit: 64, PayloadLen: len(payload), Src: src, Dst: dst}
	pkt := mbuf.New(h.Marshal(nil))
	pkt.Append(payload)
	return pkt
}
