package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bsd6/internal/inet"
	"bsd6/internal/ipsec"
	"bsd6/internal/pcb"
	"bsd6/internal/tcp"
	"bsd6/internal/vclock"
)

// Socket types.
const (
	SockDgram  = 1 // UDP
	SockStream = 2 // TCP
)

// Socket option names for SetSecurity — the new options of §6.1.
type SecurityOption int

const (
	SoSecurityAuthentication SecurityOption = iota + 1 // SO_SECURITY_AUTHENTICATION
	SoSecurityEncryptTrans                             // SO_SECURITY_ENCRYPTION_TRANSPORT
	SoSecurityEncryptTunnel                            // SO_SECURITY_ENCRYPTION_TUNNEL
)

// Errors surfaced by the socket layer. EIPSEC is re-exported from the
// security module: "the newly defined IP Security processing error"
// (§3.3), returned "so the user can be informed of the problem" (§6.3).
var (
	EIPSEC         = ipsec.EIPSEC
	ErrTimeoutSock = errors.New("socket: operation timed out")
	ErrClosedSock  = errors.New("socket: closed")
	ErrConnRefused = errors.New("socket: connection refused")
	ErrMsgSize     = errors.New("socket: message too long")
	ErrHostUnreach = errors.New("socket: no route to host")
	ErrNotStream   = errors.New("socket: not a stream socket")
	ErrNotDgram    = errors.New("socket: not a datagram socket")
	errWouldBlock  = errors.New("socket: operation would block") // waitFor: keep waiting
)

// Sockaddr6 is struct sockaddr_in6 (paper Figure 7): family, port,
// flow info and a 128-bit address. IPv4 endpoints are expressed in
// v4-mapped form on PF_INET sockets too, keeping one type.
type Sockaddr6 struct {
	Family   inet.Family
	Port     uint16
	FlowInfo uint32
	Addr     inet.IP6
}

// String formats the address as "[addr]:port".
func (sa Sockaddr6) String() string {
	return fmt.Sprintf("[%s]:%d", sa.Addr, sa.Port)
}

// Addr6 builds a PF_INET6 sockaddr.
func Addr6(addr inet.IP6, port uint16) Sockaddr6 {
	return Sockaddr6{Family: inet.AFInet6, Port: port, Addr: addr}
}

// Addr4 builds a PF_INET sockaddr (stored v4-mapped).
func Addr4(addr inet.IP4, port uint16) Sockaddr6 {
	return Sockaddr6{Family: inet.AFInet, Port: port, Addr: inet.V4Mapped(addr)}
}

type dgramMsg struct {
	data []byte
	src  inet.IP6
	port uint16
	flow uint32
}

// Socket is a BSD-style socket over the stack.
type Socket struct {
	stack  *Stack
	family inet.Family
	typ    int

	mu   sync.Mutex
	cond *sync.Cond

	// Blocking state (waitFor): the wake generation, the waiters in
	// cond.Wait, and the shared deadline timer, due at timerAt.
	gen     atomic.Uint64
	parked  int
	timer   vclock.Timer
	timerAt time.Time

	// Datagram state.
	p       *pcb.PCB
	rq      []dgramMsg
	rqBytes int
	RqMax   int

	// Stream state.
	conn *tcp.Conn

	sec    ipsec.SockOpts
	err    error
	closed atomic.Bool
}

// NewSocket is socket(2): create a PF_INET or PF_INET6 socket of the
// given type.
func (s *Stack) NewSocket(family inet.Family, typ int) (*Socket, error) {
	if family != inet.AFInet && family != inet.AFInet6 {
		return nil, fmt.Errorf("socket: unsupported family %v", family)
	}
	sock := &Socket{stack: s, family: family, typ: typ, RqMax: 256 << 10}
	sock.cond = sync.NewCond(&sock.mu)
	switch typ {
	case SockDgram:
		sock.p = s.UDP.Table.Attach(family, sock)
	case SockStream:
		sock.conn = s.TCP.Attach(family, sock)
		sock.conn.SetSocket(sock, sock.broadcast)
	default:
		return nil, fmt.Errorf("socket: unsupported type %d", typ)
	}
	return sock, nil
}

func (sock *Socket) clock() vclock.Clock { return sock.stack.clock }

func (sock *Socket) broadcast() {
	sock.mu.Lock()
	sock.wakeLocked()
	sock.mu.Unlock()
}

// wakeLocked ends every wake path: it bumps the generation, disarms
// the deadline timer (a waiter that parks again re-arms it) and counts
// parked waiters runnable on the clock before signalling them, so a
// driven virtual clock never sees the hand-off as quiescence.
func (sock *Socket) wakeLocked() {
	sock.gen.Add(1)
	if sock.parked > 0 {
		if sock.timer != nil && sock.timer.Stop() {
			sock.timerAt = time.Time{}
		}
		sock.clock().Runnable(sock.parked)
		sock.parked = 0
		sock.cond.Broadcast()
	}
}

// expire is the deadline timer's callback: the timer is idle again.
func (sock *Socket) expire() {
	sock.mu.Lock()
	sock.timerAt = time.Time{}
	sock.wakeLocked()
	sock.mu.Unlock()
}

// waitFor is the socket layer's only way to block: it retries ready
// until that returns other than errWouldBlock, or until timeout (<= 0:
// none) has passed on the stack's clock since it first parked. ready
// runs without sock.mu (TCP takes it under its own lock), so a wake
// between the check and the park is caught by the generation instead.
func (sock *Socket) waitFor(timeout time.Duration, ready func() error) error {
	clk := sock.clock()
	var deadline time.Time
	for {
		gen := sock.gen.Load()
		if err := ready(); err != errWouldBlock {
			return err
		}
		sock.mu.Lock()
		if sock.gen.Load() == gen {
			if timeout > 0 {
				now := clk.Now()
				if deadline.IsZero() {
					deadline = now.Add(timeout)
				}
				if !now.Before(deadline) {
					sock.mu.Unlock()
					return ErrTimeoutSock
				}
				if sock.timerAt.IsZero() || deadline.Before(sock.timerAt) {
					sock.timerAt = deadline
					if sock.timer == nil {
						sock.timer = clk.AfterFunc(deadline.Sub(now), sock.expire)
					} else {
						sock.timer.Reset(deadline.Sub(now))
					}
				}
			}
			sock.parked++
			clk.Runnable(-1)
			sock.cond.Wait()
		}
		sock.mu.Unlock()
	}
}

// SecurityOpts returns the socket's requested security levels; the
// security module's SocketOpts hook reads this through the packet's
// socket back pointer (§3.3).
func (sock *Socket) SecurityOpts() ipsec.SockOpts {
	sock.mu.Lock()
	defer sock.mu.Unlock()
	return sock.sec
}

// SetSecurity is setsockopt(2) for the §6.1 security options, with the
// four levels (0 none, 1 use, 2 require, 3 require-unique).
func (sock *Socket) SetSecurity(opt SecurityOption, level ipsec.Level) error {
	if level < 0 || level > 3 {
		return fmt.Errorf("socket: invalid security level %d", level)
	}
	sock.mu.Lock()
	defer sock.mu.Unlock()
	switch opt {
	case SoSecurityAuthentication:
		sock.sec.Auth = level
	case SoSecurityEncryptTrans:
		sock.sec.ESPTransport = level
	case SoSecurityEncryptTunnel:
		sock.sec.ESPTunnel = level
	default:
		return fmt.Errorf("socket: unknown security option %d", opt)
	}
	sock.stack.secActive.Store(true)
	return nil
}

// SetSecurityBypass marks the socket as exempt from IP security — the
// privileged option of §6.3 for key management daemons and
// application-layer-secured services. It "would fail if the effective
// user-id of the process connected to the socket was not equal to 0 so
// that ordinary user applications could not bypass system security."
func (sock *Socket) SetSecurityBypass(euid int) error {
	if euid != 0 {
		return errors.New("socket: EPERM: security bypass requires effective uid 0")
	}
	sock.mu.Lock()
	sock.sec.Bypass = true
	sock.mu.Unlock()
	sock.stack.secActive.Store(true)
	return nil
}

// SetV6Only restricts a PF_INET6 socket to IPv6 traffic.
func (sock *Socket) SetV6Only(on bool) {
	sock.mu.Lock()
	defer sock.mu.Unlock()
	p := sock.pcbRef()
	if p == nil {
		return
	}
	if on {
		p.Flags |= pcb.FlagV6Only
	} else {
		p.Flags &^= pcb.FlagV6Only
	}
}

// SetBuffers sets the send/receive buffer sizes (SO_SNDBUF/SO_RCVBUF
// — the socket-buffer-size axis of the paper's Table 3).
func (sock *Socket) SetBuffers(snd, rcv int) {
	sock.mu.Lock()
	defer sock.mu.Unlock()
	if sock.conn != nil {
		if snd > 0 {
			sock.conn.SndBufMax = snd
		}
		if rcv > 0 {
			sock.conn.RcvBufMax = rcv
		}
	}
	if rcv > 0 {
		sock.RqMax = rcv
	}
}

func (sock *Socket) pcbRef() *pcb.PCB {
	if sock.p != nil {
		return sock.p
	}
	if sock.conn != nil {
		return sock.conn.PCB()
	}
	return nil
}

// Bind is bind(2).
func (sock *Socket) Bind(sa Sockaddr6) error {
	switch sock.typ {
	case SockDgram:
		return sock.stack.UDP.Table.Bind(sock.p, sa.Addr, sa.Port)
	case SockStream:
		return sock.conn.Bind(sa.Addr, sa.Port)
	}
	return ErrNotStream
}

// Connect is connect(2). Stream sockets block until the handshake
// completes or timeout expires (zero timeout means 30s).
func (sock *Socket) Connect(sa Sockaddr6, timeout time.Duration) error {
	switch sock.typ {
	case SockDgram:
		sock.mu.Lock()
		sock.p.FlowInfo = sa.FlowInfo
		sock.mu.Unlock()
		return sock.stack.UDP.Connect(sock.p, sa.Addr, sa.Port)
	case SockStream:
		sock.conn.PCB().FlowInfo = sa.FlowInfo
		if err := sock.conn.Connect(sa.Addr, sa.Port); err != nil {
			return err
		}
		if timeout == 0 {
			timeout = 30 * time.Second
		}
		// Done once the handshake has completed, whatever the state
		// has become since: the peer may already have closed.
		return sock.waitFor(timeout, func() error {
			if sock.conn.Synchronized() {
				return nil
			}
			if err := sock.conn.Err(); err != nil {
				return err
			}
			if sock.conn.State() == tcp.StateClosed {
				return ErrClosedSock
			}
			return errWouldBlock
		})
	}
	return ErrNotStream
}

// Listen is listen(2).
func (sock *Socket) Listen(backlog int) error {
	if sock.typ != SockStream {
		return ErrNotStream
	}
	return sock.conn.Listen(backlog)
}

// Accept is accept(2): blocks until a connection is ready or the
// timeout passes (zero = block indefinitely).
func (sock *Socket) Accept(timeout time.Duration) (*Socket, error) {
	if sock.typ != SockStream {
		return nil, ErrNotStream
	}
	var child *tcp.Conn
	if err := sock.waitFor(timeout, func() error {
		if child = sock.conn.Accept(); child != nil {
			return nil
		}
		if sock.closed.Load() {
			return ErrClosedSock
		}
		return errWouldBlock
	}); err != nil {
		return nil, err
	}
	cs := &Socket{stack: sock.stack, family: sock.family, typ: SockStream, conn: child, RqMax: sock.RqMax}
	cs.cond = sync.NewCond(&cs.mu)
	cs.sec = sock.SecurityOpts() // children inherit security levels
	child.SetSocket(cs, cs.broadcast)
	return cs, nil
}

// SendTo is sendto(2) for datagram sockets (paper Figure 7).
func (sock *Socket) SendTo(data []byte, sa Sockaddr6) error {
	if sock.typ != SockDgram {
		return ErrNotDgram
	}
	sock.mu.Lock()
	sock.p.FlowInfo = sa.FlowInfo
	sock.mu.Unlock()
	return sock.stack.UDP.Output(sock.p, data, sa.Addr, sa.Port)
}

// Send writes on a connected socket. For streams it blocks until all
// bytes are queued (or the deadline passes); for datagrams it sends
// one datagram to the connected peer.
func (sock *Socket) Send(data []byte, timeout time.Duration) (int, error) {
	switch sock.typ {
	case SockDgram:
		if err := sock.stack.UDP.Output(sock.p, data, inet.IP6{}, 0); err != nil {
			return 0, err
		}
		return len(data), nil
	case SockStream:
		sent := 0
		err := sock.waitFor(timeout, func() error {
			for sent < len(data) {
				n, err := sock.conn.Send(data[sent:])
				if err != nil {
					return err
				}
				if n == 0 {
					return errWouldBlock // send buffer full
				}
				sent += n
			}
			return nil
		})
		return sent, err
	}
	return 0, ErrNotStream
}

// enqueueDgram appends a received datagram (drops when the socket
// buffer is full, as BSD does).
func (sock *Socket) enqueueDgram(data []byte, src inet.IP6, sport uint16, flow uint32) {
	sock.mu.Lock()
	if sock.rqBytes+len(data) <= sock.RqMax {
		sock.rq = append(sock.rq, dgramMsg{append([]byte(nil), data...), src, sport, flow})
		sock.rqBytes += len(data)
		sock.wakeLocked()
	}
	sock.mu.Unlock()
}

// setError records an asynchronous error (from ICMP) on the socket.
func (sock *Socket) setError(err error) {
	sock.mu.Lock()
	if sock.err == nil {
		sock.err = err
	}
	sock.wakeLocked()
	sock.mu.Unlock()
}

// RecvFrom is recvfrom(2): blocks for a datagram (or stream data; the
// source is then the connected peer).
func (sock *Socket) RecvFrom(max int, timeout time.Duration) ([]byte, Sockaddr6, error) {
	switch sock.typ {
	case SockDgram:
		var m dgramMsg
		if err := sock.waitFor(timeout, func() error {
			sock.mu.Lock()
			defer sock.mu.Unlock()
			switch err := sock.err; {
			case len(sock.rq) > 0:
				m, sock.rq = sock.rq[0], sock.rq[1:]
				sock.rqBytes -= len(m.data)
				return nil
			case err != nil:
				sock.err = nil // asynchronous errors report once
				return err
			case sock.closed.Load():
				return ErrClosedSock
			}
			return errWouldBlock
		}); err != nil {
			return nil, Sockaddr6{}, err
		}
		data := m.data
		if max > 0 && len(data) > max {
			data = data[:max] // excess is discarded, as recvfrom does
		}
		fam := inet.AFInet6
		if m.src.IsV4Mapped() && sock.family == inet.AFInet {
			fam = inet.AFInet
		}
		return data, Sockaddr6{Family: fam, Addr: m.src, Port: m.port, FlowInfo: m.flow}, nil
	case SockStream:
		data, err := sock.recvStream(max, timeout)
		return data, sock.RemoteAddr(), err
	}
	return nil, Sockaddr6{}, ErrNotDgram
}

// Recv reads from a stream socket, blocking until data, EOF or
// timeout.
func (sock *Socket) Recv(max int, timeout time.Duration) ([]byte, error) {
	if sock.typ != SockStream {
		data, _, err := sock.RecvFrom(max, timeout)
		return data, err
	}
	return sock.recvStream(max, timeout)
}

func (sock *Socket) recvStream(max int, timeout time.Duration) ([]byte, error) {
	if max <= 0 {
		max = 64 << 10
	}
	var data []byte
	err := sock.waitFor(timeout, func() (err error) {
		data, err = sock.conn.Recv(max)
		return streamErr(data != nil, err)
	})
	return data, err
}

// streamErr is a stream read's waitFor verdict: TCP's end of stream
// becomes the socket layer's EOF, and no data yet means wait.
func streamErr(got bool, err error) error {
	switch {
	case errors.Is(err, tcp.ErrClosed):
		return ErrClosedSock
	case err == nil && !got:
		return errWouldBlock
	}
	return err
}

// ReadInto is read(2): it copies stream data into p, blocking until
// data, EOF or timeout, and returns the byte count.  Unlike Recv it
// allocates nothing, so a bulk receiver can reuse one buffer for the
// life of the connection.
func (sock *Socket) ReadInto(p []byte, timeout time.Duration) (int, error) {
	if sock.typ != SockStream {
		data, _, err := sock.RecvFrom(len(p), timeout)
		return copy(p, data), err
	}
	var n int
	err := sock.waitFor(timeout, func() (err error) {
		n, err = sock.conn.ReadInto(p)
		return streamErr(n > 0, err)
	})
	return n, err
}

// Close is close(2) (for streams: graceful FIN; the final release
// happens when TCP finishes).
func (sock *Socket) Close() error {
	if sock.closed.Swap(true) {
		return nil
	}
	sock.broadcast()
	switch sock.typ {
	case SockDgram:
		sock.stack.UDP.Table.Detach(sock.p)
	case SockStream:
		return sock.conn.Close()
	}
	return nil
}

// Conn exposes the TCP connection for introspection (state, MSS).
func (sock *Socket) Conn() *tcp.Conn { return sock.conn }

// LocalAddr returns the bound address.
func (sock *Socket) LocalAddr() Sockaddr6 {
	p := sock.pcbRef()
	if p == nil {
		return Sockaddr6{}
	}
	return Sockaddr6{Family: sock.family, Addr: p.LAddr, Port: p.LPort, FlowInfo: p.FlowInfo}
}

// RemoteAddr returns the connected peer.
func (sock *Socket) RemoteAddr() Sockaddr6 {
	p := sock.pcbRef()
	if p == nil {
		return Sockaddr6{}
	}
	return Sockaddr6{Family: sock.family, Addr: p.FAddr, Port: p.FPort, FlowInfo: p.FlowInfo}
}
