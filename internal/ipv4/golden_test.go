package ipv4

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"bsd6/internal/inet"
	"bsd6/internal/mbuf"
	"bsd6/internal/netif"
	"bsd6/internal/proto"
	"bsd6/internal/vclock"
)

// The IPv4 wire goldens pin what the layer puts on the wire in each of
// its output, transmit and forwarding arms: every frame on every hub
// (and every packet looped back through lo), in order, hashed.  Hubs
// deliver on the sender's goroutine and the route tables read one
// virtual clock, so each scenario replays the same frames every run.

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
		t.Fatalf("wire: %d frames, sha256 %x; want %d frames, %s\n%s", len(w.lines), h, frames, sum, strings.Join(w.lines, "\n"))
	}
}

func onClock(clk *vclock.Virtual, nodes ...*node) {
	for _, n := range nodes {
		n.rt.Now = clk.Now
	}
}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + 3)
	}
	return b
}

// sink registers a discarding UDP input and control input on n.
func sink(n *node) {
	n.l.Register(proto.UDP, func(pkt *mbuf.Mbuf, _ proto.Meta) { pkt.Free() },
		func(proto.CtlType, *proto.Meta, []byte, int) {})
}

func TestGoldenTraceIPv4(t *testing.T) {
	epoch := time.Unix(1_000_000, 0)
	cases := []struct {
		name   string
		run    func(t *testing.T, w *wireLog, clk *vclock.Virtual)
		frames int
		sum    string
	}{
		{"ARPQueueThenFlush", func(t *testing.T, w *wireLog, clk *vclock.Virtual) {
			// Three echos wait on one unanswered ARP entry; B joins, the
			// retry is answered, and the held packets go out in order.
			hub := netif.NewHub()
			w.tapHub(hub, "h")
			a, b := newNode("a"), newNode("b")
			onClock(clk, a, b)
			a.join(hub, macA, addrA, 24, 1500)
			for seq := uint16(1); seq <= 3; seq++ {
				if err := a.ic.SendEcho(addrB, 7, seq, pattern(32)); err != nil {
					t.Fatal(err)
				}
			}
			b.join(hub, macB, addrB, 24, 1500)
			clk.Advance(2 * arpRetry)
			a.l.SlowTimo(clk.Now())
		}, 9, "c6d83117e7b443ad2e419cd06cbe50961f9abca12efc9befb232584962b502fb"},
		{"SourceFragments", func(t *testing.T, w *wireLog, clk *vclock.Virtual) {
			hub := netif.NewHub()
			w.tapHub(hub, "h")
			a, b := newNode("a"), newNode("b")
			onClock(clk, a, b)
			a.join(hub, macA, addrA, 24, 500)
			b.join(hub, macB, addrB, 24, 500)
			if err := a.ic.SendEcho(addrB, 3, 1, pattern(1800)); err != nil {
				t.Fatal(err)
			}
		}, 10, "d0d918dd33764eb817febf968fbd6b9d9c06670d714098145547cffa5a4fc53e"},
		{"Forward", func(t *testing.T, w *wireLog, clk *vclock.Virtual) {
			a, _, _ := goldenThreeNodes(t, w, clk, 1500)
			if err := a.ic.SendEcho(addrB2, 5, 1, pattern(100)); err != nil {
				t.Fatal(err)
			}
			if err := a.ic.SendEcho(addrB2, 5, 2, pattern(100)); err != nil {
				t.Fatal(err)
			}
		}, 12, "08cbbe44af6e0c51c8db4313140c10fadbb35cdb32e9a3121201c9dde4140de0"},
		{"RouterFragments", func(t *testing.T, w *wireLog, clk *vclock.Virtual) {
			a, _, _ := goldenThreeNodes(t, w, clk, 576)
			if err := a.ic.SendEcho(addrB2, 5, 1, pattern(1200)); err != nil {
				t.Fatal(err)
			}
		}, 14, "c6f354dd92edcb5452fccfe3891c8ddfb72104138c8666bd0caaddeb879cf7fc"},
		{"FragNeeded", func(t *testing.T, w *wireLog, clk *vclock.Virtual) {
			a, _, _ := goldenThreeNodes(t, w, clk, 576)
			sink(a)
			if err := a.l.Output(mbuf.New(pattern(1200)), inet.IP4{}, addrB2, proto.UDP, OutputOpts{DF: true}); err != nil {
				t.Fatal(err)
			}
		}, 4, "a5ae6c83bc44d08f9a48aa4e249adc564e55058d2a698bf56891bcb9bb4abf8a"},
		{"TTLExpiry", func(t *testing.T, w *wireLog, clk *vclock.Virtual) {
			a, _, _ := goldenThreeNodes(t, w, clk, 1500)
			sink(a)
			if err := a.l.Output(mbuf.New(pattern(32)), inet.IP4{}, addrB2, proto.UDP, OutputOpts{TTL: 1}); err != nil {
				t.Fatal(err)
			}
		}, 4, "831949a2cc4b35aa560787545680d289889e35216a44adbb32f3c5f2cd47be1e"},
		{"NoRoute", func(t *testing.T, w *wireLog, clk *vclock.Virtual) {
			a, _, _ := goldenThreeNodes(t, w, clk, 1500)
			sink(a)
			if err := a.l.Output(mbuf.New(pattern(32)), inet.IP4{}, inet.IP4{172, 16, 0, 1}, proto.UDP, OutputOpts{}); err != nil {
				t.Fatal(err)
			}
		}, 4, "5edaf3f885b448d3adcad58186f6cb533a08a648c4481b0a3624e0530e31d43e"},
		{"RejectAfterFailedResolution", func(t *testing.T, w *wireLog, clk *vclock.Virtual) {
			// The router's ARP for a missing host runs out of tries; the
			// next datagram forwarded to it is refused with host
			// unreachable, and a direct send fails fast.
			a, r, _ := goldenThreeNodes(t, w, clk, 1500)
			sink(a)
			ghost := inet.IP4{10, 0, 1, 99}
			if err := a.l.Output(mbuf.New(pattern(32)), inet.IP4{}, ghost, proto.UDP, OutputOpts{}); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < arpMaxTries+2; i++ {
				clk.Advance(2 * arpRetry)
				r.l.SlowTimo(clk.Now())
			}
			if err := a.l.Output(mbuf.New(pattern(32)), inet.IP4{}, ghost, proto.UDP, OutputOpts{}); err != nil {
				t.Fatal(err)
			}
			rB := inet.IP4{10, 0, 1, 254}
			if err := r.l.Output(mbuf.New(pattern(32)), rB, ghost, proto.UDP, OutputOpts{}); err != ErrReject {
				t.Fatalf("direct send to a rejected neighbor: %v, want ErrReject", err)
			}
		}, 10, "ee6b6919084fb04c561d474862d6ed0d37ed838e45086c47f983976c36b21103"},
		{"Loopback", func(t *testing.T, w *wireLog, clk *vclock.Virtual) {
			hub := netif.NewHub()
			w.tapHub(hub, "h")
			a := newNode("a")
			onClock(clk, a)
			a.join(hub, macA, addrA, 24, 1500)
			w.tapLoop(a)
			if err := a.ic.SendEcho(addrA, 1, 1, pattern(64)); err != nil {
				t.Fatal(err)
			}
			if err := a.ic.SendEcho(inet.IP4{127, 0, 0, 1}, 1, 2, pattern(1000)); err != nil {
				t.Fatal(err)
			}
		}, 4, "0ec56bdab5b2a3df5579e79722571da890edb0f9eec73ec58faa63acced53183"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := &wireLog{}
			tc.run(t, w, vclock.NewVirtual(epoch))
			w.check(t, tc.frames, tc.sum)
		})
	}
}

// goldenThreeNodes is threeNodeNet on the virtual clock with both hubs
// tapped.
func goldenThreeNodes(t *testing.T, w *wireLog, clk *vclock.Virtual, mtu2 int) (*node, *node, *node) {
	t.Helper()
	hub1, hub2 := netif.NewHub(), netif.NewHub()
	w.tapHub(hub1, "h1")
	w.tapHub(hub2, "h2")
	a, r, b := newNode("a"), newNode("r"), newNode("b")
	onClock(clk, a, r, b)
	r.l.Forwarding = true
	rA := inet.IP4{10, 0, 0, 254}
	rB := inet.IP4{10, 0, 1, 254}
	a.join(hub1, macA, addrA, 24, 1500)
	r.join(hub1, macR1, rA, 24, 1500)
	r.join(hub2, macR2, rB, 24, mtu2)
	b.join(hub2, macB, addrB2, 24, mtu2)
	a.defaultVia(rA, a.ifps[0].Name)
	b.defaultVia(rB, b.ifps[0].Name)
	return a, r, b
}
