package icmp6

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"bsd6/internal/inet"
	"bsd6/internal/ipv6"
	"bsd6/internal/mbuf"
	"bsd6/internal/netif"
	"bsd6/internal/proto"
	"bsd6/internal/route"
	"bsd6/internal/vclock"
)

// The IPv6 wire goldens pin what the IPv6 layer and Neighbor Discovery
// put on the wire in each output, transmit and forwarding arm: every
// frame on every hub (and every packet looped back through lo), in
// order, hashed.  Hubs deliver on the sender's goroutine and every
// timer is an explicit FastTimo call on one virtual clock, so each
// scenario replays the same frames every run.

// wireLog collects the frames of a scenario as text lines.
type wireLog struct {
	mu    sync.Mutex
	lines []string
}

func (w *wireLog) add(label string, fr netif.Frame) {
	w.mu.Lock()
	w.lines = append(w.lines, fmt.Sprintf("%s %s>%s %04x %x", label, fr.Src, fr.Dst, fr.EtherType, fr.Payload.Bytes()))
	w.mu.Unlock()
}

// tapHub records every frame crossing hub under label.
func (w *wireLog) tapHub(hub *netif.Hub, label string) {
	hub.Capture = func(fr netif.Frame) { w.add(label, fr) }
}

// tapLoop records every packet n loops back to itself.
func (w *wireLog) tapLoop(n *node) {
	lo := n.l.Interface(n.name + "-lo")
	lo.SetInput(func(ifp *netif.Interface, fr netif.Frame) {
		w.add(n.name+"-lo", fr)
		n.l.Input(ifp, fr.Payload)
	})
}

// check compares the log with its golden frame count and SHA-256 (of
// the lines joined with newlines).
func (w *wireLog) check(t *testing.T, frames int, sum string) {
	t.Helper()
	w.mu.Lock()
	defer w.mu.Unlock()
	h := sha256.Sum256([]byte(strings.Join(w.lines, "\n")))
	if len(w.lines) != frames || hex.EncodeToString(h[:]) != sum {
		t.Fatalf("wire: %d frames, sha256 %x; want %d frames, %s", len(w.lines), h, frames, sum)
	}
}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + 3)
	}
	return b
}

// udpSink registers a discarding UDP input and control input on n.
func udpSink(n *node) {
	n.l.Register(proto.UDP, func(pkt *mbuf.Mbuf, _ proto.Meta) { pkt.Free() },
		func(proto.CtlType, *proto.Meta, []byte, int) {})
}

func TestGoldenTraceIPv6(t *testing.T) {
	epoch := time.Unix(1_000_000, 0)
	cases := []struct {
		name   string
		run    func(t *testing.T, w *wireLog, clk *vclock.Virtual)
		frames int
		sum    string
	}{
		{"NDQueueThenFlush", func(t *testing.T, w *wireLog, clk *vclock.Virtual) {
			// Three echos wait on one unanswered solicitation; B joins,
			// the retransmitted solicit is answered, and the held
			// packets go out in order.
			hub := netif.NewHub()
			w.tapHub(hub, "h")
			a, b := newNode("a"), newNode("b")
			virtualize(clk, a, b)
			a.join(hub, macA, 1500)
			bll := inet.LinkLocal(macB.Token())
			for seq := uint16(1); seq <= 3; seq++ {
				if err := a.m.SendEcho(bll, 7, seq, pattern(32)); err != nil {
					t.Fatal(err)
				}
			}
			b.join(hub, macB, 1500)
			clk.Advance(2 * ipv6.NDRetrans)
			a.m.FastTimo(clk.Now())
		}, 11, "6ef81e7d3d661ce39e3ce8a1269b3ff29388c1f4dff478e493349ee293dc4475"},
		{"SourceFragments", func(t *testing.T, w *wireLog, clk *vclock.Virtual) {
			hub := netif.NewHub()
			w.tapHub(hub, "h")
			a, b := newNode("a"), newNode("b")
			virtualize(clk, a, b)
			a.join(hub, macA, 1500)
			b.join(hub, macB, 1500)
			if err := a.m.SendEcho(inet.LinkLocal(macB.Token()), 3, 1, pattern(4000)); err != nil {
				t.Fatal(err)
			}
		}, 10, "d532da716ad562ba7976a22b6e35d5ffe4e8fd15e435e0e21a11fde1de8a45df"},
		{"Forward", func(t *testing.T, w *wireLog, clk *vclock.Virtual) {
			a, _, _ := goldenThreeNode(t, w, clk, 1500)
			for seq := uint16(1); seq <= 2; seq++ {
				if err := a.m.SendEcho(ip6(t, "2001:db8:2::b"), 5, seq, pattern(100)); err != nil {
					t.Fatal(err)
				}
			}
		}, 22, "9c0308fab50fec38160e783df5a493d767f92a14ffb0bb8c20cad860bb06f9cb"},
		{"PacketTooBig", func(t *testing.T, w *wireLog, clk *vclock.Virtual) {
			a, _, _ := goldenThreeNode(t, w, clk, ipv6.MinMTU)
			for seq := uint16(1); seq <= 2; seq++ {
				if err := a.m.SendEcho(ip6(t, "2001:db8:2::b"), 5, seq, pattern(1400)); err != nil {
					t.Fatal(err)
				}
			}
		}, 28, "0528a5ce827f36569a875e3256094f9820bacd5d80c2b6986efff72dbc4f0324"},
		{"HopLimitExpiry", func(t *testing.T, w *wireLog, clk *vclock.Virtual) {
			a, _, _ := goldenThreeNode(t, w, clk, 1500)
			udpSink(a)
			if err := a.l.Output(mbuf.New(pattern(32)), inet.IP6{}, ip6(t, "2001:db8:2::b"), proto.UDP, ipv6.OutputOpts{HopLimit: 1}); err != nil {
				t.Fatal(err)
			}
		}, 12, "42772890c27a872754f3828c5a97890eabc38ad5f89189e5155cc92236ee3460"},
		{"NoRoute", func(t *testing.T, w *wireLog, clk *vclock.Virtual) {
			a, _, _ := goldenThreeNode(t, w, clk, 1500)
			udpSink(a)
			if err := a.l.Output(mbuf.New(pattern(32)), inet.IP6{}, ip6(t, "2001:db8:3::1"), proto.UDP, ipv6.OutputOpts{}); err != nil {
				t.Fatal(err)
			}
		}, 12, "1228a1ec72ed25a03d84345b1168999e231979eb0ac8260e92aed23453016a67"},
		{"RejectAfterFailedResolution", func(t *testing.T, w *wireLog, clk *vclock.Virtual) {
			// The router's solicitations for a missing host go
			// unanswered; the next datagram forwarded to it is refused
			// with an unreachable, and a direct send fails fast.
			a, r, _ := goldenThreeNode(t, w, clk, 1500)
			udpSink(a)
			ghost := ip6(t, "2001:db8:2::99")
			if err := a.l.Output(mbuf.New(pattern(32)), inet.IP6{}, ghost, proto.UDP, ipv6.OutputOpts{}); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < ipv6.NDMaxMulticast+2; i++ {
				clk.Advance(2 * ipv6.NDRetrans)
				r.m.FastTimo(clk.Now())
			}
			if err := a.l.Output(mbuf.New(pattern(32)), inet.IP6{}, ghost, proto.UDP, ipv6.OutputOpts{}); err != nil {
				t.Fatal(err)
			}
			if err := r.l.Output(mbuf.New(pattern(32)), inet.IP6{}, ghost, proto.UDP, ipv6.OutputOpts{}); err != ipv6.ErrReject {
				t.Fatalf("direct send to a rejected neighbor: %v, want ErrReject", err)
			}
		}, 16, "0e8da0a336e0dc024ebac2831fd1dc55c3299c8fe798a2aa6866dbadce2acf67"},
		{"Loopback", func(t *testing.T, w *wireLog, clk *vclock.Virtual) {
			hub := netif.NewHub()
			w.tapHub(hub, "h")
			a := newNode("a")
			virtualize(clk, a)
			a.join(hub, macA, 1500)
			w.tapLoop(a)
			if err := a.m.SendEcho(inet.LinkLocal(macA.Token()), 1, 1, pattern(64)); err != nil {
				t.Fatal(err)
			}
			// Past the loopback MTU: fragmented on the way out,
			// reassembled on the way in, both directions.
			if err := a.m.SendEcho(inet.LinkLocal(macA.Token()), 1, 2, pattern(33000)); err != nil {
				t.Fatal(err)
			}
		}, 7, "d4d7ffdb19c0fda24c49e9a1fe3a6be434b1c8c7b7e2f67f11b3fe5c9155873f"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := &wireLog{}
			tc.run(t, w, vclock.NewVirtual(epoch))
			w.check(t, tc.frames, tc.sum)
		})
	}
}

// goldenThreeNode is threeNode on the virtual clock with both hubs
// tapped from before the first frame.
func goldenThreeNode(t *testing.T, w *wireLog, clk *vclock.Virtual, mtu2 int) (a, r, b *node) {
	t.Helper()
	hub1, hub2 := netif.NewHub(), netif.NewHub()
	w.tapHub(hub1, "h1")
	w.tapHub(hub2, "h2")
	a, r, b = newNode("a"), newNode("r"), newNode("b")
	virtualize(clk, a, r, b)
	aif := a.join(hub1, macA, 1500)
	r1 := r.join(hub1, macR, 1500)
	r2 := r.join(hub2, macR2, mtu2)
	bif := b.join(hub2, macB, mtu2)
	r.l.Forwarding = true
	a.addGlobal(aif, ip6(t, "2001:db8:1::a"), 64)
	r.addGlobal(r1, ip6(t, "2001:db8:1::ffff"), 64)
	r.addGlobal(r2, ip6(t, "2001:db8:2::ffff"), 64)
	b.addGlobal(bif, ip6(t, "2001:db8:2::b"), 64)
	a.defaultVia(ip6(t, "2001:db8:1::ffff"), aif.Name)
	b.defaultVia(ip6(t, "2001:db8:2::ffff"), bif.Name)
	return a, r, b
}

// defaultVia installs a default route through gw on the named link.
func (n *node) defaultVia(gw inet.IP6, ifName string) {
	var zero inet.IP6
	n.rt.Add(&route.Entry{Family: inet.AFInet6, Dst: zero[:], Plen: 0,
		Flags: route.FlagUp | route.FlagGateway, Gateway: gw, IfName: ifName})
}
