package tcp

import (
	"errors"
	"sync"
	"time"

	"bsd6/internal/inet"
	"bsd6/internal/ipv4"
	"bsd6/internal/ipv6"
	"bsd6/internal/key"
	"bsd6/internal/mbuf"
	"bsd6/internal/pcb"
	"bsd6/internal/proto"
	"bsd6/internal/route"
	"bsd6/internal/stat"
)

// State is a connection's state in the RFC 793 state machine.
type State int

// Connection states, in 4.4BSD's TCPS_* order.
const (
	StateClosed      State = iota // no connection
	StateListen                   // waiting for a SYN
	StateSynSent                  // SYN sent, waiting for its SYN-ACK
	StateSynRcvd                  // SYN received and answered, waiting for the ACK
	StateEstablished              // handshake done, data flows
	StateCloseWait                // peer's FIN received, waiting for our close
	StateFinWait1                 // closed, our FIN not yet acknowledged
	StateClosing                  // both FINs sent, ours not yet acknowledged
	StateLastAck                  // peer closed first, waiting for our FIN's ACK
	StateFinWait2                 // our FIN acknowledged, waiting for the peer's
	StateTimeWait                 // both closed, waiting out 2MSL
)

// String returns the state's netstat name, such as "ESTABLISHED".
func (s State) String() string {
	return [...]string{"CLOSED", "LISTEN", "SYN_SENT", "SYN_RCVD", "ESTABLISHED",
		"CLOSE_WAIT", "FIN_WAIT_1", "CLOSING", "LAST_ACK", "FIN_WAIT_2", "TIME_WAIT"}[s]
}

// Timer and protocol constants, in BSD's tick units: the slow timeout
// runs every 500ms, the fast (delayed-ACK) timeout every 200ms.
const (
	// SlowTickInterval and FastTickInterval are the cadences at which
	// SlowTimo and FastTimo expect to be driven.
	SlowTickInterval = 500 * time.Millisecond
	FastTickInterval = 200 * time.Millisecond

	rtoMin     = 2   // 1s in slow ticks
	rtoMax     = 128 // 64s
	rexmtMax   = 12  // retransmissions before giving up
	msl        = 4   // 2s in slow ticks (scaled down for the simulation)
	connTicks  = 150 // 75s connection-establishment timer
	defaultMSS = 512
)

// Errors delivered to sockets.
var (
	ErrRefused  = errors.New("tcp: connection refused")
	ErrReset    = errors.New("tcp: connection reset by peer")
	ErrTimeout  = errors.New("tcp: connection timed out")
	ErrClosed   = errors.New("tcp: connection closed")
	ErrListenQ  = errors.New("tcp: not a listening connection")
	ErrNotConn  = errors.New("tcp: not connected")
	ErrHostDown = errors.New("tcp: no route to host")
)

// Stats counts TCP events (netstat's tcpstat).
type Stats struct {
	ConnAttempt   stat.Counter
	ConnAccepts   stat.Counter
	ConnEstab     stat.Counter
	ConnDrops     stat.Counter
	SndPack       stat.Counter
	SndByte       stat.Counter
	SndRexmit     stat.Counter
	RcvPack       stat.Counter
	RcvByte       stat.Counter
	RcvBadSum     stat.Counter
	RcvDupPack    stat.Counter
	RcvOutOfOrder stat.Counter
	RcvAfterWin   stat.Counter
	Reass4        stat.Counter // segments through tcp_reass
	Reass6        stat.Counter // segments through tcpv6_reass
	DelAcks       stat.Counter
	RstOut        stat.Counter
	PolicyDrops   stat.Counter
	PersistProbe  stat.Counter
	FastRexmit    stat.Counter

	SynCookiesSent      stat.Counter // stateless SYN-ACKs sent while the backlog was full
	SynCookiesValidated stat.Counter // connections rebuilt from a valid cookie ACK
	SynCookiesFailed    stat.Counter // listener ACKs that failed cookie validation
	TimeWaitRecycled    stat.Counter // 2MSL records released early by a fresh SYN or connect
	TimeWaitOverflow    stat.Counter // 2MSL records evicted by the DefaultTimeWaitMax cap

	GROCoalesced stat.Counter // received segments absorbed into a super-segment
	GROFlushes   stat.Counter // coalesced super-segments handed to tcp_input
}

// DefaultSynBacklog caps embryonic (SYN_RCVD) connections per
// listener — BSD's somaxconn-style bound, applied to the half-open
// stage a SYN flood inflates.  A SYN beyond it is answered with a
// stateless SYN cookie (cookie.go): the SYN-ACK's ISN encodes a keyed
// hash of the 4-tuple, a coarse time counter and the peer's MSS
// class, and the child connection is rebuilt from the completing ACK
// alone, so the flood costs per-reply work, never per-SYN state.
const DefaultSynBacklog = 128

// DefaultGROMax caps the coalesced payload of a receive super-segment,
// so the super-segment plus its 20-byte TCP header and a worst-case
// 20-byte IPv4 header stays inside the 65535-byte IP payload field —
// and, with the IP header and pool headroom, inside the largest mbuf
// slab class.
const DefaultGROMax = 65495

// TCP is the TCP protocol instance of one stack.
type TCP struct {
	mu    sync.Mutex
	Table *pcb.Table
	v4    *ipv4.Layer
	v6    *ipv6.Layer

	// InputPolicy is ipsec_input_policy (§5.3); nil means permit.
	InputPolicy func(pkt *mbuf.Mbuf, dst inet.IP6, socket any) bool
	// InputPolicyPort, when set, is used instead of InputPolicy and
	// sees the local port (per-port administrative policy, §3.5).
	InputPolicyPort func(pkt *mbuf.Mbuf, dst inet.IP6, socket any, lport uint16) bool
	// AllowError gates ICMP error delivery upward (§5.1).
	AllowError func() bool
	// Confirm reports forward progress to neighbor discovery (§4.3:
	// upper-level protocols confirming reachability).
	Confirm func(dst inet.IP6)
	// SecOverhead estimates per-packet security wrapping overhead for
	// a socket (ipsec_hdrsiz); subtracted from the MSS.
	SecOverhead func(socket any) int
	// FatalOutErr classifies IP-output errors that must surface on the
	// connection (§3.3: a security processing failure drops the packet
	// "and the user will be given the EIPSEC error"). Transient errors
	// — path-MTU races, neighbor resolution in progress — return
	// false and the retransmission machinery rides them out.
	FatalOutErr func(error) bool

	// Drops is the stack-wide drop observability sink; nil counts
	// nothing.
	Drops *stat.Recorder

	Stats Stats

	iss   uint32
	conns map[*Conn]struct{}

	// SYN-cookie secrets and coarse time (advanced by SlowTimo).
	cookieSeed [2]uint32
	cookieTick uint32
	// tw is the compressed TIME_WAIT engine (2MSL wheel on the slow
	// timer); its records own their tuples in the demux after the full
	// connection state is torn down.
	tw timeWait

	// outbox collects segments to transmit after the lock drops, so a
	// synchronously delivered reply cannot deadlock on re-entry.
	// flushing marks an active drainer: re-entrant flush calls (a
	// delivered segment's ACK processing queues new data and flushes
	// on the way out) return immediately and leave their segments for
	// the outer drainer, which sends them only after finishing the
	// batch already in flight — otherwise a reply queued mid-batch
	// would overtake the rest of the batch and reorder the wire.
	outbox   []outSeg
	wakeups  []func()
	flushing bool
	// spareOut and spareWake are the backing arrays of the batch the
	// active flusher last drained, cleared and kept by it (there is
	// only one) to become the next empty outbox and wakeups, so a
	// steady stream of flushes reallocates neither.
	spareOut  []outSeg
	spareWake []func()
}

type outSeg struct {
	v6       bool
	src, dst inet.IP6
	pkt      *mbuf.Mbuf
	flow     uint32
	sock     any
	conn     *Conn        // for surfacing fatal output errors; nil for RSTs
	rc       *route.Cache // the session's held route; nil for RSTs
	sc       *key.Cache   // the session's held security verdict; nil for RSTs
}

// New creates the TCP instance and registers it with both IP layers.
func New(v4l *ipv4.Layer, v6l *ipv6.Layer) *TCP {
	t := &TCP{Table: pcb.NewTable(), v4: v4l, v6: v6l, conns: make(map[*Conn]struct{})}
	t.cookieSeed = newCookieSeed()
	if v4l != nil {
		v4l.Register(proto.TCP, t.input, t.ctlInput)
	}
	if v6l != nil {
		v6l.Register(proto.TCP, t.input, t.ctlInput)
	}
	return t
}

// Conn is a TCP connection (struct tcpcb).
type Conn struct {
	t   *TCP
	pcb *pcb.PCB
	// pf is the new tcpcb member of §5.3: the protocol family in use
	// for this session, consulted wherever a version-specific branch
	// is needed.
	pf    inet.Family
	state State
	// synced latches on the first entry into ESTABLISHED and never
	// clears: the moment BSD's soisconnected() ends a connect(2). The
	// state may have moved on (the peer's FIN can be processed before
	// the connector looks), so a wait for the handshake asks this.
	synced bool

	// Send sequence space.
	iss                    uint32
	sndUna, sndNxt, sndMax uint32
	sndWnd                 int
	cwnd, ssthresh         int
	dupAcks                int
	sndBuf                 []byte // bytes from sndUna upward
	sndArr                 []byte // sndBuf's reusable backing array
	SndBufMax              int
	sndClosed              bool // FIN queued behind the buffered data
	finSeq                 uint32
	finQueued              bool

	// Receive sequence space.
	irs       uint32
	rcvNxt    uint32
	rcvAdv    uint32
	rcvBuf    []byte
	rcvArr    []byte // rcvBuf's reusable backing array
	RcvBufMax int
	reassQ    []rseg
	rcvClosed bool

	// RTT estimation (Jacobson), in slow ticks.
	srtt, rttvar int
	rto          int
	rttSeq       uint32
	rttTicks     int // -1 when no measurement in flight
	ticks        int // connection tick counter
	confirmTick  int // ticks+1 at the last ND reachability confirm

	// Timers, in remaining slow ticks; 0 means stopped. (The 2MSL
	// timer lives in the TIME_WAIT engine's wheel, not here.)
	tRexmt, tPersist, tConn int
	rexmtShift              int

	mss     int
	delack  bool
	needAck bool
	err     error

	// Listener state.
	listening bool
	backlog   int
	acceptQ   []*Conn
	synQ      []*Conn // embryonic children in SYN arrival order
	parent    *Conn   // listener this connection was spawned from
	// cookieSent and cookieUnit record that the listener has answered
	// a SYN with a cookie, and the cookie time it last did (cookiesRecent).
	cookieSent bool
	cookieUnit uint32

	// twe is the compressed 2MSL record this handle collapsed into on
	// entering TIME_WAIT; once the engine expires it, the handle
	// reports CLOSED.
	twe *twEntry

	// Wakeup is invoked (outside the stack lock) whenever readable,
	// writable, state or error conditions may have changed.
	Wakeup func()
}

type rseg struct {
	seq  uint32
	data []byte
	fin  bool
}

// Conns returns a snapshot of all connection blocks, for netstat.
func (t *TCP) Conns() []*Conn {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Conn, 0, len(t.conns))
	for c := range t.conns {
		out = append(out, c)
	}
	return out
}

// Listening reports whether the connection is a passive listener.
func (c *Conn) Listening() bool {
	c.t.mu.Lock()
	defer c.t.mu.Unlock()
	return c.listening
}

// Attach creates a connection block on a fresh PCB.
func (t *TCP) Attach(family inet.Family, socket any) *Conn {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := &Conn{
		t: t, pf: family, state: StateClosed,
		SndBufMax: 32768, RcvBufMax: 32768,
		rttTicks: -1, rto: rtoMin,
		mss: defaultMSS,
	}
	c.pcb = t.Table.Attach(family, socket)
	c.pcb.Owner = c
	t.conns[c] = struct{}{}
	return c
}

// PCB exposes the connection's protocol control block.
func (c *Conn) PCB() *pcb.PCB { return c.pcb }

// SetSocket publishes c's owner under the stack lock: sock becomes the
// PCB's back pointer and wakeup the connection's Wakeup. An accepted
// child needs it because TCP input may already be running on it.
func (c *Conn) SetSocket(sock any, wakeup func()) {
	c.t.mu.Lock()
	c.pcb.Socket, c.Wakeup = sock, wakeup
	c.t.mu.Unlock()
}

// State returns the connection state. A handle that collapsed into a
// compressed TIME_WAIT record reports CLOSED once the record expires.
func (c *Conn) State() State {
	c.t.mu.Lock()
	defer c.t.mu.Unlock()
	if c.state == StateTimeWait && (c.twe == nil || c.twe.dead) {
		return StateClosed
	}
	return c.state
}

// Synchronized reports whether the three-way handshake ever completed.
// It stays true in every later state, CLOSED included, so a connector
// that looks only after the peer has already closed still sees its
// connection as made.
func (c *Conn) Synchronized() bool {
	c.t.mu.Lock()
	defer c.t.mu.Unlock()
	return c.synced
}

// Err returns the terminal error, if any.
func (c *Conn) Err() error {
	c.t.mu.Lock()
	defer c.t.mu.Unlock()
	return c.err
}

// MSS returns the effective maximum segment size.
func (c *Conn) MSS() int {
	c.t.mu.Lock()
	defer c.t.mu.Unlock()
	return c.mss
}

// Bind sets the local address/port.
func (c *Conn) Bind(laddr inet.IP6, lport uint16) error {
	c.t.mu.Lock()
	defer c.t.mu.Unlock()
	return c.t.Table.Bind(c.pcb, laddr, lport)
}

// Listen makes the connection passive.
func (c *Conn) Listen(backlog int) error {
	c.t.mu.Lock()
	defer c.t.mu.Unlock()
	if c.pcb.LPort == 0 {
		if err := c.t.Table.Bind(c.pcb, c.pcb.LAddr, 0); err != nil {
			return err
		}
	}
	if backlog < 1 {
		backlog = 1
	}
	c.listening = true
	c.backlog = backlog
	c.state = StateListen
	return nil
}

// Accept dequeues an established child connection, or returns nil.
func (c *Conn) Accept() *Conn {
	c.t.mu.Lock()
	defer c.t.mu.Unlock()
	if len(c.acceptQ) == 0 {
		return nil
	}
	child := c.acceptQ[0]
	c.acceptQ = c.acceptQ[1:]
	return child
}

// nextISS generates an initial send sequence (BSD's tcp_iss += TCP_ISSINCR).
func (t *TCP) nextISS() uint32 {
	t.iss += 64000
	return t.iss
}

// Connect begins the three-way handshake. Completion (or failure) is
// signaled through Wakeup; poll State/Err.
func (c *Conn) Connect(faddr inet.IP6, fport uint16) error {
	t := c.t
	t.mu.Lock()
	if err := t.Table.Connect(c.pcb, faddr, fport); err != nil {
		t.mu.Unlock()
		return err
	}
	// Fix the local address now: the checksum needs it, and the demux
	// must refile the PCB under its final tuple.
	t.Table.SelectLocal(c.pcb, t.v4, t.v6)
	// Recycle a 2MSL record from a previous incarnation of this exact
	// tuple, pushing the ISS beyond its old sequence space (RFC 6191).
	if e := t.tw.get(twTuple{laddr: c.pcb.LAddr, faddr: c.pcb.FAddr, lport: c.pcb.LPort, fport: c.pcb.FPort}); e != nil {
		t.tw.removeEntry(e)
		t.Stats.TimeWaitRecycled.Inc()
		if !seqGT(t.iss+64000, e.sndNxt) {
			t.iss = e.sndNxt
		}
	}
	c.mss = t.pathMSS(c.pcb)
	c.iss = t.nextISS()
	c.sndUna, c.sndNxt, c.sndMax = c.iss, c.iss, c.iss
	c.cwnd = initialCwnd(c.mss)
	c.ssthresh = 65535
	c.state = StateSynSent
	c.tConn = connTicks
	t.Stats.ConnAttempt.Inc()
	c.output()
	t.mu.Unlock()
	t.flush()
	return nil
}

// sbMinArena is the smallest socket-buffer array sbappend allocates:
// room for a request or a reply of a few hundred bytes.
const sbMinArena = 2048

// sbappend appends to a socket-buffer slice whose front the consumer
// trims by reslicing (sndBuf on ACK, rcvBuf on Recv).  A plain append
// would reallocate on every refill — the trim discards front capacity,
// so a buffer held near its cap copies its whole backlog each time and
// the dead arrays feed the collector.  Instead the live bytes are
// compacted back to the head of a long-lived backing array.
//
// The array grows with the backlog it has to hold: from sbMinArena it
// doubles whenever the live bytes after an append would fill more than
// half of it, up to twice the buffer cap (never below what the append
// needs).  A compaction without growth therefore leaves at least half
// the array free, so at least as many bytes flow in before the next
// one as it copied: streaming costs O(1) copies per byte, and once the
// array reaches twice the cap, no allocation.  A short request/response
// connection pays a floor-sized array per buffer, not one of twice the
// cap.  buf need not alias *arr (handoff from a bare slice is a copy
// in).
//
// Callers must not retain aliases into buf across calls — compaction
// reuses the trimmed region.  Recv copies out for exactly this reason.
func sbappend(arr *[]byte, buf, data []byte, max int) []byte {
	if len(data) <= cap(buf)-len(buf) {
		return append(buf, data...)
	}
	want := len(buf) + len(data)
	a := *arr
	if cap(a) < want || cap(a) < 2*want && cap(a) < 2*max {
		size := 2 * cap(a)
		if size < sbMinArena {
			size = sbMinArena
		}
		if size > 2*max {
			size = 2 * max
		}
		if size < want {
			size = want
		}
		a = make([]byte, size)
		*arr = a
	}
	a = a[:cap(a)]
	n := copy(a, buf)
	return append(a[:n], data...)
}

// Send appends data to the send buffer, returning how many bytes were
// accepted (0 when the buffer is full; wait for Wakeup).
func (c *Conn) Send(data []byte) (int, error) {
	t := c.t
	t.mu.Lock()
	if c.err != nil {
		err := c.err
		t.mu.Unlock()
		return 0, err
	}
	switch c.state {
	case StateEstablished, StateCloseWait:
	case StateSynSent, StateSynRcvd:
		// Buffer ahead of establishment.
	default:
		t.mu.Unlock()
		return 0, ErrClosed
	}
	if c.sndClosed {
		t.mu.Unlock()
		return 0, ErrClosed
	}
	space := c.SndBufMax - len(c.sndBuf)
	if space <= 0 {
		t.mu.Unlock()
		return 0, nil
	}
	n := len(data)
	if n > space {
		n = space
	}
	c.sndBuf = sbappend(&c.sndArr, c.sndBuf, data[:n], c.SndBufMax)
	if c.state == StateEstablished || c.state == StateCloseWait {
		c.output()
	}
	t.mu.Unlock()
	t.flush()
	return n, nil
}

// Recv takes up to n bytes from the receive buffer. It returns
// (nil, nil) when no data is available yet, and (nil, ErrClosed) at
// end of stream.
func (c *Conn) Recv(n int) ([]byte, error) {
	t := c.t
	t.mu.Lock()
	if len(c.rcvBuf) == 0 {
		if c.err != nil {
			err := c.err
			t.mu.Unlock()
			return nil, err
		}
		if c.rcvClosed || c.state == StateClosed {
			t.mu.Unlock()
			return nil, ErrClosed
		}
		t.mu.Unlock()
		return nil, nil
	}
	if n > len(c.rcvBuf) {
		n = len(c.rcvBuf)
	}
	// Copy out rather than alias: the buffer compacts in place under
	// sbappend, which would scribble over a zero-copy view.
	out := append(make([]byte, 0, n), c.rcvBuf[:n]...)
	c.rcvBuf = c.rcvBuf[n:]
	// The freed buffer space may open the advertised window enough to
	// deserve a window update.
	if c.state == StateEstablished && int(c.rcvAdv-c.rcvNxt) < c.rcvSpace()/2 {
		c.needAck = true
		c.output()
	}
	t.mu.Unlock()
	t.flush()
	return out, nil
}

// ReadInto is the read(2) form of Recv: it copies up to len(p)
// buffered bytes into p and returns the count, performing no
// allocation.  (0, nil) means no data yet; (0, ErrClosed) is end of
// stream.  A receiver draining at line rate reuses one buffer for
// the life of the connection instead of allocating per call.
func (c *Conn) ReadInto(p []byte) (int, error) {
	t := c.t
	t.mu.Lock()
	if len(c.rcvBuf) == 0 {
		if c.err != nil {
			err := c.err
			t.mu.Unlock()
			return 0, err
		}
		if c.rcvClosed || c.state == StateClosed {
			t.mu.Unlock()
			return 0, ErrClosed
		}
		t.mu.Unlock()
		return 0, nil
	}
	n := copy(p, c.rcvBuf)
	c.rcvBuf = c.rcvBuf[n:]
	if c.state == StateEstablished && int(c.rcvAdv-c.rcvNxt) < c.rcvSpace()/2 {
		c.needAck = true
		c.output()
	}
	t.mu.Unlock()
	t.flush()
	return n, nil
}

// Buffered returns the bytes queued in each direction, for pollers.
func (c *Conn) Buffered() (rcv, snd int) {
	c.t.mu.Lock()
	defer c.t.mu.Unlock()
	return len(c.rcvBuf), len(c.sndBuf)
}

// Close half-closes the send direction (queues a FIN after the
// buffered data).
func (c *Conn) Close() error {
	t := c.t
	t.mu.Lock()
	switch c.state {
	case StateClosed, StateListen, StateSynSent:
		c.closeLocked(nil)
		t.mu.Unlock()
		t.flush()
		return nil
	case StateSynRcvd, StateEstablished:
		c.state = StateFinWait1
	case StateCloseWait:
		c.state = StateLastAck
	default:
		t.mu.Unlock()
		return nil
	}
	c.sndClosed = true
	c.output()
	t.mu.Unlock()
	t.flush()
	return nil
}

// Abort sends RST and discards the connection.
func (c *Conn) Abort() {
	t := c.t
	t.mu.Lock()
	if c.state == StateTimeWait {
		// The handle compressed into a 2MSL record: release it quietly.
		t.tw.removeEntry(c.twe)
	} else if c.state != StateClosed && c.state != StateListen && c.state != StateSynSent {
		c.sendRST()
	}
	c.closeLocked(ErrClosed)
	t.mu.Unlock()
	t.flush()
}

// closeLocked tears the connection down. Caller holds t.mu.
func (c *Conn) closeLocked(err error) {
	if c.state == StateClosed && c.err != nil {
		return
	}
	if err != nil && c.err == nil {
		c.err = err
	}
	c.state = StateClosed
	c.tRexmt, c.tPersist, c.tConn = 0, 0, 0
	c.unlinkSynLocked()
	c.t.Table.Detach(c.pcb)
	delete(c.t.conns, c)
	c.wakeupLocked()
}

// unlinkSynLocked removes an embryonic child from its listener's SYN
// backlog; a no-op once the handshake completed (or for connections
// with no listener). Caller holds t.mu.
func (c *Conn) unlinkSynLocked() {
	p := c.parent
	if p == nil {
		return
	}
	for i, x := range p.synQ {
		if x == c {
			p.synQ = append(p.synQ[:i], p.synQ[i+1:]...)
			break
		}
	}
}

// SynBacklogLen returns the number of embryonic (SYN_RCVD)
// listener-spawned connections — the occupancy half of the
// syn-backlog limit surface.
func (t *TCP) SynBacklogLen() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for c := range t.conns {
		if c.state == StateSynRcvd && c.parent != nil {
			n++
		}
	}
	return n
}

// drop is tcp_drop: close with an error and notify.
func (c *Conn) drop(err error) {
	c.t.Stats.ConnDrops.Inc()
	c.closeLocked(err)
}

func (c *Conn) wakeupLocked() {
	if c.Wakeup != nil {
		c.t.wakeups = append(c.t.wakeups, c.Wakeup)
	}
}

// rcvSpace is the receive window the connection can advertise.
func (c *Conn) rcvSpace() int {
	n := c.RcvBufMax - len(c.rcvBuf)
	if n < 0 {
		n = 0
	}
	if n > 65535 {
		n = 65535
	}
	return n
}

// initialCwnd returns the RFC 3390 initial congestion window:
// min(4*MSS, max(2*MSS, 4380)).  A one-segment initial window
// interlocks fatally with the peer's delayed ACK — the lone first
// segment is an "odd" arrival the receiver holds for the full 200ms
// fast-timer tick, so every connection's slow start opens with a dead
// fifth of a second.  Two or more segments make the second arrival
// force an immediate ACK (RFC 1122's ack-every-other rule) and keep
// the feedback loop running from the first flight.  Loss recovery
// still restarts from one segment (RFC 5681's loss window).
func initialCwnd(mss int) int {
	iw := 4380
	if 2*mss > iw {
		iw = 2 * mss
	}
	if 4*mss < iw {
		iw = 4 * mss
	}
	return iw
}

// pathMSS derives the starting MSS from the route's path MTU ("Our
// implementation stores Path MTU information in host routes ...
// making this data available to TCP", §2.2).
func (t *TCP) pathMSS(p *pcb.PCB) int {
	var mtu int
	var hdrs int
	if v4, ok := p.FAddr.MappedV4(); ok {
		hdrs = ipv4.HeaderLen + HeaderLen
		if rt, found := t.v4.Routes().Lookup(inet.AFInet, v4[:]); found {
			t.v4.Routes().View(func() { mtu = rt.MTU })
			if ifp := t.ifMTU(false, rt.IfName); ifp > 0 && (mtu == 0 || ifp < mtu) {
				mtu = ifp
			}
		}
	} else {
		hdrs = ipv6.HeaderLen + HeaderLen
		if rt, found := t.v6.Routes().Lookup(inet.AFInet6, p.FAddr[:]); found {
			t.v6.Routes().View(func() { mtu = rt.MTU })
			if ifp := t.ifMTU(true, rt.IfName); ifp > 0 && (mtu == 0 || ifp < mtu) {
				mtu = ifp
			}
		}
	}
	if mtu == 0 {
		return defaultMSS
	}
	mss := mtu - hdrs
	if t.SecOverhead != nil {
		mss -= t.SecOverhead(p.Socket)
	}
	if mss < 32 {
		mss = 32
	}
	return mss
}

func (t *TCP) ifMTU(v6 bool, name string) int {
	if v6 {
		if ifp := t.v6.Interface(name); ifp != nil {
			return ifp.MTU()
		}
		return 0
	}
	if ifp := t.v4.Interface(name); ifp != nil {
		return ifp.MTU()
	}
	return 0
}

// flush transmits queued segments and runs queued wakeups. Must be
// called WITHOUT t.mu held.
func (t *TCP) flush() {
	t.mu.Lock()
	if t.flushing {
		// An outer flush (possibly further up this very call stack)
		// is draining; it will pick up anything queued here on its
		// next pass, in order.
		t.mu.Unlock()
		return
	}
	t.flushing = true
	t.mu.Unlock()
	for {
		t.mu.Lock()
		segs := t.outbox
		wake := t.wakeups
		if len(segs) == 0 && len(wake) == 0 {
			// Clearing the flag and observing the empty queue happen
			// under one lock hold, so a concurrent enqueuer either
			// queued in time for this check or sees flushing==false
			// and drains its own segment.
			t.flushing = false
			t.mu.Unlock()
			return
		}
		t.outbox, t.wakeups = t.spareOut, t.spareWake
		t.mu.Unlock()
		for _, s := range segs {
			var err error
			if s.v6 {
				err = t.v6.Output(s.pkt, s.src, s.dst, proto.TCP, ipv6.OutputOpts{
					FlowInfo: s.flow, Socket: s.sock, NoFrag: true, RouteCache: s.rc,
					SecCache: s.sc,
				})
			} else {
				src4, _ := s.src.MappedV4()
				dst4, _ := s.dst.MappedV4()
				err = t.v4.Output(s.pkt, src4, dst4, proto.TCP, ipv4.OutputOpts{DF: true, RouteCache: s.rc})
			}
			if err != nil && s.conn != nil && t.FatalOutErr != nil && t.FatalOutErr(err) {
				t.mu.Lock()
				// A passive open whose SYN-ACK fails is not surfaced:
				// no user is waiting on it yet, and the retransmit
				// timer retries once key management catches up.
				if s.conn.err == nil && s.conn.state != StateSynRcvd {
					s.conn.err = err
					s.conn.wakeupLocked()
				}
				t.mu.Unlock()
			}
		}
		for _, w := range wake {
			w()
		}
		// Drop the batch's mbuf, connection and wakeup references
		// before its arrays wait as the next spares.
		clear(segs)
		clear(wake)
		t.spareOut, t.spareWake = segs[:0], wake[:0]
	}
}
