// Package netperf reimplements the measurement workloads of §7: Rick
// Jones' NetPerf request-response (latency) and stream (throughput)
// tests, plus the ttcp-style bulk test used for Table 5 — the paper
// notes ttcp "was easily modified to use the security socket options",
// which RunStream supports through its socket-configuration hook.
// Testbed, the paper's grids and Measure (measure.go) put them
// together into the tables' cells.
package netperf

import (
	"errors"
	"runtime"
	"sync/atomic"
	"time"

	"bsd6/internal/core"
	"bsd6/internal/inet"
)

// SocketTuner adjusts a freshly created socket (buffer sizes are
// applied separately; use this for the §6.1 security options, like
// the modified ttcp's -A/-E flags).
type SocketTuner func(*core.Socket)

// Server is a running echo or sink endpoint.
type Server struct {
	sock     *core.Socket
	stop     chan struct{}
	received atomic.Int64
}

// Received reports the payload bytes the server has consumed.
func (sv *Server) Received() int64 { return sv.received.Load() }

// Close shuts the server down.
func (sv *Server) Close() {
	close(sv.stop)
	sv.sock.Close()
}

const ioTimeout = 10 * time.Second

// NewEchoServer starts a request-response responder: every received
// message is sent back whole (NetPerf's *_RR pattern).
func NewEchoServer(s *core.Stack, tcp bool, port uint16, sockbuf int, tune SocketTuner) (*Server, error) {
	return newServer(s, tcp, port, sockbuf, tune, true)
}

// NewSinkServer starts a throughput sink: received bytes are counted
// and discarded (NetPerf's *_STREAM pattern / ttcp -r).
func NewSinkServer(s *core.Stack, tcp bool, port uint16, sockbuf int, tune SocketTuner) (*Server, error) {
	return newServer(s, tcp, port, sockbuf, tune, false)
}

// newServer binds a PF_INET6 socket to port on every address, so that
// IPv4 clients reach it v4-mapped, and serves it: a stream socket
// listens and serves each connection it accepts, a datagram socket
// serves its datagrams.  An echo server sends back what it reads.
func newServer(s *core.Stack, tcp bool, port uint16, sockbuf int, tune SocketTuner, echo bool) (*Server, error) {
	sock, err := socket(s, tcp, sockbuf, tune)
	if err != nil {
		return nil, err
	}
	sv := &Server{sock: sock, stop: make(chan struct{})}
	if err := sock.Bind(core.Sockaddr6{Family: inet.AFInet6, Port: port}); err != nil {
		sock.Close()
		return nil, err
	}
	if !tcp {
		go sv.serveDgrams(echo)
		return sv, nil
	}
	if err := sock.Listen(4); err != nil {
		sock.Close()
		return nil, err
	}
	go func() {
		for !sv.stopped() {
			if conn, err := sv.sock.Accept(ioTimeout); err == nil {
				if sockbuf > 0 {
					conn.SetBuffers(sockbuf, sockbuf)
				}
				go sv.serveConn(conn, echo)
			}
		}
	}()
	return sv, nil
}

// stopped reports whether Close has been called.
func (sv *Server) stopped() bool {
	select {
	case <-sv.stop:
		return true
	default:
		return false
	}
}

func (sv *Server) serveConn(conn *core.Socket, echo bool) {
	defer conn.Close()
	buf := make([]byte, 64<<10)
	for {
		n, err := conn.ReadInto(buf, ioTimeout)
		if err != nil {
			return
		}
		sv.received.Add(int64(n))
		if echo {
			if _, err := conn.Send(buf[:n], ioTimeout); err != nil {
				return
			}
		}
	}
}

func (sv *Server) serveDgrams(echo bool) {
	for !sv.stopped() {
		data, from, err := sv.sock.RecvFrom(64<<10, ioTimeout)
		if err != nil {
			continue
		}
		sv.received.Add(int64(len(data)))
		if echo {
			sv.sock.SendTo(data, from)
		}
	}
}

// socket opens a PF_INET6 socket with the given buffers and options.
func socket(s *core.Stack, tcp bool, sockbuf int, tune SocketTuner) (*core.Socket, error) {
	typ := core.SockDgram
	if tcp {
		typ = core.SockStream
	}
	sock, err := s.NewSocket(inet.AFInet6, typ)
	if err != nil {
		return nil, err
	}
	if sockbuf > 0 {
		sock.SetBuffers(sockbuf, sockbuf)
	}
	if tune != nil {
		tune(sock)
	}
	return sock, nil
}

// dial opens a client socket connected to dst.
func dial(c *core.Stack, dst core.Sockaddr6, tcp bool, sockbuf int, tune SocketTuner) (*core.Socket, error) {
	sock, err := socket(c, tcp, sockbuf, tune)
	if err != nil {
		return nil, err
	}
	if err := sock.Connect(dst, ioTimeout); err != nil {
		sock.Close()
		return nil, err
	}
	return sock, nil
}

// RRResult is a request-response (latency) measurement.
type RRResult struct {
	Transactions int
	Elapsed      time.Duration
	MeanRTT      time.Duration
}

// RunRR runs a request-response latency test of iters transactions of
// msgSize bytes against an echo server at dst.
func RunRR(c *core.Stack, dst core.Sockaddr6, tcp bool, msgSize, iters, sockbuf int, tune SocketTuner) (RRResult, error) {
	sock, err := dial(c, dst, tcp, sockbuf, tune)
	if err != nil {
		return RRResult{}, err
	}
	defer sock.Close()
	msg := make([]byte, msgSize)
	for i := range msg {
		msg[i] = byte(i)
	}
	start := time.Now()
	for i := 0; i < iters; i++ {
		// A connected datagram socket sends on the PCB's cached peer
		// and route, as a stream does: SendTo would re-derive the
		// destination on every transaction and bill harness work to
		// the stack in Tables 1/2.
		if _, err := sock.Send(msg, ioTimeout); err != nil {
			return RRResult{}, err
		}
		if !tcp {
			// One datagram out, one back; a lost reply would hang, so
			// bound the wait (the benches run over a lossless hub).
			if _, _, err := sock.RecvFrom(msgSize, ioTimeout); err != nil {
				return RRResult{}, err
			}
			continue
		}
		for got := 0; got < msgSize; {
			data, err := sock.Recv(msgSize-got, ioTimeout)
			if err != nil {
				return RRResult{}, err
			}
			got += len(data)
		}
	}
	elapsed := time.Since(start)
	return RRResult{Transactions: iters, Elapsed: elapsed, MeanRTT: elapsed / time.Duration(iters)}, nil
}

// StreamResult is a throughput measurement.
type StreamResult struct {
	Bytes   int64
	Elapsed time.Duration
	// KBps is throughput in the paper's units (kilobytes/second).
	KBps float64
}

// ErrStalled reports that a stream test stopped making progress.
var ErrStalled = errors.New("netperf: stream stalled")

// RunStream pushes total bytes of msgSize writes at a sink server and
// reports the receiver-side throughput (NetPerf *_STREAM / ttcp -t).
func RunStream(c *core.Stack, sv *Server, dst core.Sockaddr6, tcp bool, msgSize, sockbuf int, total int64, tune SocketTuner) (StreamResult, error) {
	sock, err := dial(c, dst, tcp, sockbuf, tune)
	if err != nil {
		return StreamResult{}, err
	}
	defer sock.Close()
	msg := make([]byte, msgSize)
	if !tcp {
		// Warm the path: the first datagram triggers neighbor
		// discovery, and only a handful of packets queue behind an
		// unresolved neighbor (as with ARP in BSD). One throwaway
		// datagram plus a settle period keeps the measured stream
		// from racing the resolution.  The server may have served
		// earlier runs, so wait for this datagram, not for any.
		before := sv.Received()
		sock.Send(msg[:1], ioTimeout)
		deadline := time.Now().Add(time.Second)
		for sv.Received() == before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	window := int64(sockbuf)
	if window <= 0 {
		window = 32 << 10
	}
	base := sv.Received()
	start := time.Now()
	var sent int64
	for sent < total {
		if !tcp {
			// UDP has no flow control; the paper's ttcp was paced by
			// a 10 Mb/s Ethernet, ours by the receiver's socket
			// buffer. Keep the in-flight bytes small enough that the
			// receive buffer can hold all of them — in-flight plus the
			// next message must fit, or a burst arriving at an
			// undrained sink is dropped and the lost bytes stall the
			// window for the rest of the run. Pace with Gosched rather
			// than a timed sleep: a sleep's wake-up latency is OS timer
			// granularity, which would measure the host's tick rate,
			// not the stack.
			deadline := time.Now().Add(ioTimeout)
			for sent+int64(msgSize)-(sv.Received()-base) > window {
				if time.Now().After(deadline) {
					return StreamResult{}, ErrStalled
				}
				runtime.Gosched()
			}
		}
		n, err := sock.Send(msg, ioTimeout)
		if err != nil {
			return StreamResult{}, err
		}
		sent += int64(n)
	}
	// Wait for the sink to drain what was sent (bounded for UDP, where
	// a datagram can still be lost to a full queue).
	deadline := time.Now().Add(ioTimeout)
	lastGot := int64(-1)
	lastProgress := time.Now()
	for sv.Received()-base < sent {
		got := sv.Received() - base
		if got != lastGot {
			lastGot = got
			lastProgress = time.Now()
		}
		if tcp && time.Now().After(deadline) {
			return StreamResult{}, ErrStalled
		}
		if !tcp && time.Since(lastProgress) > 50*time.Millisecond {
			break // residual loss; report what arrived
		}
		time.Sleep(100 * time.Microsecond)
	}
	elapsed := time.Since(start)
	got := sv.Received() - base
	return StreamResult{
		Bytes:   got,
		Elapsed: elapsed,
		KBps:    float64(got) / 1024 / elapsed.Seconds(),
	}, nil
}
