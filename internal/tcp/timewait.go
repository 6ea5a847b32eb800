package tcp

import (
	"fmt"

	"bsd6/internal/inet"
	"bsd6/internal/stat"
)

// DefaultTimeWaitMax caps the compressed TIME_WAIT table; overflow
// evicts the record closest to expiry (tcp-time-wait-overflow).
const DefaultTimeWaitMax = 4096

// twSlots sizes the 2MSL timing wheel: one slot per slow tick across
// the 2MSL horizon plus the insertion slot, so an entry filed at
// cursor+2*msl expires after exactly 2*msl ticks.
const twSlots = 2*msl + 1

// twTuple is the demux key of a compressed TIME_WAIT record.
type twTuple struct {
	laddr, faddr inet.IP6
	lport, fport uint16
}

func (k twTuple) String() string {
	return fmt.Sprintf("%s.%d > %s.%d", k.faddr, k.fport, k.laddr, k.lport)
}

// twEntry is the compressed record that replaces a full Conn+PCB for
// the 2MSL quiet period: just the tuple, the two sequence cursors the
// re-ACK and recycling rules need, and the flow label for replies.
type twEntry struct {
	key            twTuple
	v6             bool
	flow           uint32
	sndNxt, rcvNxt uint32
	slot           int
	dead           bool
}

// timeWait is the 2MSL engine: a tuple map for demux plus a timing
// wheel driven by the slow timer. All methods run under the owning
// TCP's mutex; removal is lazy on the wheel side (entries are marked
// dead and swept when their slot comes up).
type timeWait struct {
	entries map[twTuple]*twEntry
	wheel   [twSlots][]*twEntry
	cursor  int
	count   int
}

func (w *timeWait) get(k twTuple) *twEntry {
	if w.entries == nil {
		return nil
	}
	return w.entries[k]
}

func (w *timeWait) removeEntry(e *twEntry) {
	if e == nil || e.dead {
		return
	}
	e.dead = true
	delete(w.entries, e.key)
	w.count--
}

// restart re-arms the full 2MSL on a live entry (a retransmitted FIN
// restarts the quiet period).
func (w *timeWait) restart(e *twEntry) {
	if e.dead {
		return
	}
	s := w.wheel[e.slot]
	for i, x := range s {
		if x == e {
			w.wheel[e.slot] = append(s[:i], s[i+1:]...)
			break
		}
	}
	e.slot = (w.cursor + 2*msl) % twSlots
	w.wheel[e.slot] = append(w.wheel[e.slot], e)
}

// TimeWaitCount returns the live 2MSL record count — the occupancy
// half of the time-wait limit surface.
func (t *TCP) TimeWaitCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.tw.count
}

// TimeWaitInfo describes one compressed 2MSL record, for netstat.
type TimeWaitInfo struct {
	LAddr, FAddr inet.IP6
	LPort, FPort uint16
	V6           bool
}

// TimeWaits snapshots the TIME_WAIT table, for netstat.
func (t *TCP) TimeWaits() []TimeWaitInfo {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TimeWaitInfo, 0, t.tw.count)
	for _, e := range t.tw.entries {
		out = append(out, TimeWaitInfo{LAddr: e.key.laddr, FAddr: e.key.faddr, LPort: e.key.lport, FPort: e.key.fport, V6: e.v6})
	}
	return out
}

// twInsert files a new record, evicting the record closest to expiry
// when the cap is hit. Caller holds t.mu.
func (t *TCP) twInsert(e *twEntry) {
	w := &t.tw
	if w.entries == nil {
		w.entries = make(map[twTuple]*twEntry)
	}
	if old := w.entries[e.key]; old != nil {
		w.removeEntry(old)
	}
	if w.count >= DefaultTimeWaitMax {
		t.twEvictOldest()
	}
	e.slot = (w.cursor + 2*msl) % twSlots
	w.wheel[e.slot] = append(w.wheel[e.slot], e)
	w.entries[e.key] = e
	w.count++
}

// twEvictOldest drops the live record nearest to expiry, charging the
// typed overflow reason. Caller holds t.mu.
func (t *TCP) twEvictOldest() {
	w := &t.tw
	for i := 1; i <= twSlots; i++ {
		slot := (w.cursor + i) % twSlots
		for _, e := range w.wheel[slot] {
			if !e.dead {
				t.Stats.TimeWaitOverflow.Inc()
				t.Drops.DropNote(stat.RTCPTimeWaitOverflow, e.key.String())
				w.removeEntry(e)
				return
			}
		}
	}
}

// twTick advances the 2MSL wheel one slow tick, expiring the slot that
// comes due. Caller holds t.mu.
func (t *TCP) twTick() {
	w := &t.tw
	w.cursor = (w.cursor + 1) % twSlots
	for _, e := range w.wheel[w.cursor] {
		if !e.dead {
			w.removeEntry(e)
		}
	}
	w.wheel[w.cursor] = nil
}

// twInput applies TIME_WAIT semantics to a segment whose tuple resolved
// to a 2MSL record: RST releases the record, anything else re-ACKs and
// restarts the quiet period. Returns false when the record was recycled
// — a new SYN whose ISN is beyond the old receive space (RFC 6191) —
// and the segment should continue through normal demux to the listener.
// Caller holds t.mu.
func (t *TCP) twInput(e *twEntry, th *Header) bool {
	switch {
	case th.Flags&FlagRST != 0:
		t.tw.removeEntry(e)
	case th.Flags&(FlagSYN|FlagACK) == FlagSYN && seqGT(th.Seq, e.rcvNxt):
		t.tw.removeEntry(e)
		t.Stats.TimeWaitRecycled.Inc()
		return false
	default:
		t.twAck(e)
		t.tw.restart(e)
	}
	return true
}

// twAck answers a segment in TIME_WAIT (the retransmitted-FIN case)
// with a pure ACK rebuilt from the compressed record alone.
func (t *TCP) twAck(e *twEntry) {
	hdr := &Header{
		SPort: e.key.lport, DPort: e.key.fport,
		Seq: e.sndNxt, Ack: e.rcvNxt, Flags: FlagACK,
	}
	t.outbox = append(t.outbox, outSeg{v6: e.v6, src: e.key.laddr, dst: e.key.faddr, pkt: ctlSegment(hdr, e.key.laddr, e.key.faddr, e.v6), flow: e.flow})
}

// enterTimeWait compresses the connection into a 2MSL record: the full
// Conn+PCB leave the demux and the timer sweep, and only the twEntry
// holds the tuple until the quiet period ends. The user-visible handle
// keeps its receive buffer (undelivered data stays readable) and
// reports CLOSED once the record expires. Caller holds t.mu.
func (c *Conn) enterTimeWait() {
	t := c.t
	e := &twEntry{
		key:    twTuple{laddr: c.pcb.LAddr, faddr: c.pcb.FAddr, lport: c.pcb.LPort, fport: c.pcb.FPort},
		v6:     !c.pcb.FAddr.IsV4Mapped(),
		flow:   c.pcb.FlowInfo,
		sndNxt: c.sndNxt, rcvNxt: c.rcvNxt,
	}
	t.twInsert(e)
	c.state = StateTimeWait
	c.twe = e
	c.tRexmt, c.tPersist, c.tConn = 0, 0, 0
	c.sndBuf, c.reassQ = nil, nil
	t.Table.Detach(c.pcb)
	delete(t.conns, c)
	c.wakeupLocked()
}
