package tcp

// Conformance tests for the compressed TIME_WAIT engine, driven
// directly against the wheel under the TCP lock: 2MSL expiry timing,
// the re-ACK of a retransmitted FIN (with quiet-period restart),
// RFC 6191 recycling on a new SYN, and eviction at the table cap.

import (
	"slices"
	"testing"

	"bsd6/internal/stat"
)

func twKey(fport uint16) twTuple {
	k := twTuple{lport: 80, fport: fport}
	k.laddr[15], k.faddr[15] = 1, 2
	k.laddr[0], k.faddr[0] = 0x20, 0x20
	return k
}

func newTW(fport uint16) *twEntry {
	return &twEntry{key: twKey(fport), v6: true, sndNxt: 5000, rcvNxt: 9000}
}

// tick advances the 2MSL wheel n slow ticks.
func tick(t *TCP, n int) {
	for i := 0; i < n; i++ {
		t.twTick()
	}
}

func TestTimeWaitExpiresAfterExactly2MSL(t *testing.T) {
	tc := New(nil, nil)
	e := newTW(4000)
	tc.twInsert(e)
	tick(tc, 2*msl-1)
	if e.dead || tc.tw.get(e.key) == nil {
		t.Fatal("record expired before 2MSL")
	}
	tick(tc, 1)
	if !e.dead || tc.tw.get(e.key) != nil || tc.tw.count != 0 {
		t.Fatal("record survived past 2MSL")
	}
}

func TestTimeWaitReACKsRetransmittedFIN(t *testing.T) {
	tc := New(nil, nil)
	e := newTW(4000)
	tc.twInsert(e)
	tick(tc, 2*msl-1) // one tick from expiry

	// The peer retransmits its FIN (it never saw our last ACK).
	fin := &Header{SPort: e.key.fport, DPort: e.key.lport, Seq: e.rcvNxt - 1, Ack: e.sndNxt, Flags: FlagFIN | FlagACK}
	if !tc.twInput(e, fin) {
		t.Fatal("retransmitted FIN fell through TIME_WAIT")
	}
	if len(tc.outbox) != 1 {
		t.Fatalf("outbox has %d segments, want the re-ACK", len(tc.outbox))
	}
	th, _, err := parse(tc.outbox[0].pkt.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if th.Flags != FlagACK || th.Seq != e.sndNxt || th.Ack != e.rcvNxt {
		t.Fatalf("re-ACK = flags %#x seq %d ack %d, want ACK/%d/%d", th.Flags, th.Seq, th.Ack, e.sndNxt, e.rcvNxt)
	}
	// The quiet period restarted: the old deadline passes harmlessly and
	// the record lives a full 2MSL from the FIN.
	tick(tc, 2*msl-1)
	if e.dead {
		t.Fatal("restart did not re-arm the full 2MSL")
	}
	tick(tc, 1)
	if !e.dead {
		t.Fatal("record survived restarted 2MSL")
	}
}

func TestTimeWaitRecyclesOnHigherISN(t *testing.T) {
	tc := New(nil, nil)
	e := newTW(4000)
	tc.twInsert(e)

	// An old duplicate SYN (ISN inside the old receive space) must NOT
	// recycle: it is re-ACKed like any stray segment.
	dup := &Header{SPort: e.key.fport, DPort: e.key.lport, Seq: e.rcvNxt - 100, Flags: FlagSYN}
	if !tc.twInput(e, dup) {
		t.Fatal("old duplicate SYN recycled the record")
	}
	if e.dead {
		t.Fatal("old duplicate SYN killed the record")
	}

	// A genuinely new SYN with a higher ISN releases the tuple for a new
	// incarnation (RFC 6191) and falls through to normal demux.
	syn := &Header{SPort: e.key.fport, DPort: e.key.lport, Seq: e.rcvNxt + 1, Flags: FlagSYN}
	if tc.twInput(e, syn) {
		t.Fatal("new SYN consumed instead of recycling")
	}
	if !e.dead || tc.tw.get(e.key) != nil {
		t.Fatal("record not released on recycle")
	}
	if tc.Stats.TimeWaitRecycled.Get() != 1 {
		t.Fatalf("TimeWaitRecycled = %d", tc.Stats.TimeWaitRecycled.Get())
	}
}

func TestTimeWaitRSTReleasesRecord(t *testing.T) {
	tc := New(nil, nil)
	e := newTW(4000)
	tc.twInsert(e)
	rst := &Header{SPort: e.key.fport, DPort: e.key.lport, Seq: e.rcvNxt, Flags: FlagRST}
	if !tc.twInput(e, rst) {
		t.Fatal("RST fell through")
	}
	if !e.dead || tc.tw.count != 0 || len(tc.outbox) != 0 {
		t.Fatal("RST did not silently release the record")
	}
}

func TestTimeWaitEvictionAtCap(t *testing.T) {
	tc := New(nil, nil)
	tc.Drops = stat.NewRecorder(8)
	a := newTW(1)
	tc.twInsert(a)
	tc.twTick() // the rest are one tick younger than a
	rest := make([]*twEntry, 0, DefaultTimeWaitMax)
	for fport := uint16(2); fport <= DefaultTimeWaitMax+1; fport++ {
		e := newTW(fport)
		tc.twInsert(e)
		rest = append(rest, e)
	}
	if tc.tw.count != DefaultTimeWaitMax {
		t.Fatalf("count = %d at cap %d", tc.tw.count, DefaultTimeWaitMax)
	}
	// The victim is the record closest to expiry: a.
	if !a.dead || slices.ContainsFunc(rest, func(e *twEntry) bool { return e.dead }) {
		t.Fatal("eviction chose the wrong victim")
	}
	if tc.Stats.TimeWaitOverflow.Get() != 1 {
		t.Fatalf("TimeWaitOverflow = %d", tc.Stats.TimeWaitOverflow.Get())
	}
	if got := tc.Drops.Reasons.Snapshot()[stat.RTCPTimeWaitOverflow.String()]; got != 1 {
		t.Fatalf("typed reason count = %d", got)
	}
	// Same-tuple reinsertion replaces rather than evicts.
	b, b2 := rest[0], newTW(rest[0].key.fport)
	tc.twInsert(b2)
	if tc.tw.count != DefaultTimeWaitMax || !b.dead || tc.tw.get(b2.key) != b2 {
		t.Fatal("same-tuple reinsert did not replace")
	}
	if tc.Stats.TimeWaitOverflow.Get() != 1 {
		t.Fatal("replacement charged an overflow")
	}
}
