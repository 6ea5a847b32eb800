package pcb

// Differential test for the hash demux: the original linear-scan
// in_pcblookup (lookupRef) is the oracle, and the production Lookup is
// correct iff its winner belongs to the oracle's maximum-score set.
// The old code picked an arbitrary member of that set (Go map
// iteration), so set membership — not pointer equality — is the
// equivalence the refactor must preserve.
//
// A byte-coded interpreter drives both paths through randomized
// attach/bind/connect/disconnect/detach/retuple sequences over
// a small address/port universe (native v6, v4-mapped, wildcard,
// V6Only sockets) chosen to force collisions; FuzzPCBOps feeds the
// same interpreter from the fuzzer.

import (
	"math/rand"
	"testing"

	"bsd6/internal/inet"
)

// The op universe: small pools so random sequences collide constantly.
var (
	diffAddrs = []inet.IP6{
		{}, // wildcard
		mustIP6("2001:db8::1"),
		mustIP6("2001:db8::2"),
		mustIP6("2001:db8::3"),
		mustIP6("fe80::1"),
		inet.V4Mapped(inet.IP4{10, 0, 0, 1}),
		inet.V4Mapped(inet.IP4{10, 0, 0, 2}),
		inet.V4Mapped(inet.IP4{192, 168, 1, 1}),
	}
	diffPorts = []uint16{0, 53, 80, 1024, 1025, 4999, 5000, 7777}
)

func mustIP6(s string) inet.IP6 {
	a, err := inet.ParseIP6(s)
	if err != nil {
		panic(err)
	}
	return a
}

// checkLookup asserts the demux invariant for one query.
func checkLookup(t *testing.T, tb *Table, laddr inet.IP6, lport uint16, faddr inet.IP6, fport uint16, v4 bool) {
	t.Helper()
	got := tb.Lookup(laddr, lport, faddr, fport, v4)
	ref := tb.lookupRef(laddr, lport, faddr, fport, v4)
	if got == nil {
		if len(ref) != 0 {
			t.Fatalf("lookup(%s.%d < %s.%d v4=%v) = nil, reference found %d candidates (e.g. %v/%d %v/%d)",
				laddr, lport, faddr, fport, v4, len(ref),
				ref[0].LAddr, ref[0].LPort, ref[0].FAddr, ref[0].FPort)
		}
		return
	}
	for _, p := range ref {
		if p == got {
			return
		}
	}
	t.Fatalf("lookup(%s.%d < %s.%d v4=%v) chose %v.%d/%v.%d, not in the %d-member reference set",
		laddr, lport, faddr, fport, v4, got.LAddr, got.LPort, got.FAddr, got.FPort, len(ref))
}

// runPCBOps interprets a byte string as a demux op sequence and checks
// the Lookup-vs-reference invariant after every operation, then sweeps
// a grid of queries at the end. Shared by the differential test and
// FuzzPCBOps.
func runPCBOps(t *testing.T, data []byte) {
	tb := NewTable()
	var live []*PCB
	pick := func(b byte) *PCB {
		if len(live) == 0 {
			return nil
		}
		return live[int(b)%len(live)]
	}
	addr := func(b byte) inet.IP6 { return diffAddrs[int(b)%len(diffAddrs)] }
	port := func(b byte) uint16 { return diffPorts[int(b)%len(diffPorts)] }

	i := 0
	next := func() byte {
		if i >= len(data) {
			return 0
		}
		b := data[i]
		i++
		return b
	}
	for i < len(data) {
		op := next()
		switch op % 8 {
		case 0: // attach
			if len(live) >= 64 {
				break // keep the reference scan cheap
			}
			fam := inet.AFInet6
			b := next()
			if b&1 != 0 {
				fam = inet.AFInet
			}
			p := tb.Attach(fam, nil)
			if fam == inet.AFInet6 && b&2 != 0 {
				p.Flags |= FlagV6Only
			}
			live = append(live, p)
		case 1: // bind (errors are a legal outcome, not a divergence)
			if p := pick(next()); p != nil {
				_ = tb.Bind(p, addr(next()), port(next()))
			}
		case 2: // connect
			if p := pick(next()); p != nil {
				_ = tb.Connect(p, addr(next()), port(next()))
			}
		case 3: // disconnect
			if p := pick(next()); p != nil {
				tb.Disconnect(p)
			}
		case 4: // detach
			if b := next(); len(live) > 0 {
				k := int(b) % len(live)
				tb.Detach(live[k])
				live = append(live[:k], live[k+1:]...)
			}
		case 5: // retuple (the passive-open / source-selection moment)
			if p := pick(next()); p != nil {
				tb.SetTuple(p, addr(next()), port(next()), addr(next()), port(next()))
			}
		case 6, 7: // explicit query
			checkLookup(t, tb, addr(next()), port(next()), addr(next()), port(next()), next()&1 != 0)
		}
		// One derived probe after every op keeps mutations honest even
		// when the byte stream never asks for a lookup.
		checkLookup(t, tb, addr(next()), port(next()), addr(next()), port(next()), next()&1 != 0)
		if tb.Len() != len(live) {
			t.Fatalf("table length %d, model %d", tb.Len(), len(live))
		}
	}

	// Final sweep: every live PCB's own tuple must route to a member of
	// its score class, and a grid over the pools covers the misses.
	for _, p := range live {
		checkLookup(t, tb, p.LAddr, p.LPort, p.FAddr, p.FPort, p.FAddr.IsV4Mapped())
	}
	for _, la := range diffAddrs {
		for _, lp := range diffPorts {
			for _, fa := range diffAddrs[:4] {
				for _, fp := range diffPorts[:4] {
					checkLookup(t, tb, la, lp, fa, fp, false)
					checkLookup(t, tb, la, lp, fa, fp, true)
				}
			}
		}
	}
}

// TestDemuxDifferential replays seeded random op sequences through the
// hash demux and the linear-scan oracle.
func TestDemuxDifferential(t *testing.T) {
	for seed := int64(0); seed < 32; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 512)
		rng.Read(data)
		runPCBOps(t, data)
	}
}

// TestDemuxDifferentialLong runs fewer, deeper sequences so churn
// (bind→connect→detach over the same ports) empties and refills the
// same port entries and tuple chains many times over.
func TestDemuxDifferentialLong(t *testing.T) {
	for seed := int64(100); seed < 104; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 8192)
		rng.Read(data)
		runPCBOps(t, data)
	}
}
