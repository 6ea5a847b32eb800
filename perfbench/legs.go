package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	rtmetrics "runtime/metrics"
	"sync/atomic"
	"time"

	"bsd6/internal/core"
	"bsd6/internal/inet"
	"bsd6/internal/ipsec"
	"bsd6/internal/tcp"
)

// Workload shapes (Table 3's largest stream cell, Table 1's RR size).
const (
	writeSize = 8 << 10  // stream write
	streamBuf = 56 << 10 // stream socket buffers
	rrSize    = 64       // request and reply
	dgramSize = 64       // forwarded datagram
	fwdWindow = 64       // forward datagrams in flight
	startRing = 4096     // stream writes whose start times are kept
	spanCap   = 300_000  // spans kept per goroutine in a traced pass
)

// slicesPerLeg is how many equal slices a leg's measured region is
// cut into.  Memory and the per-leg figures are medians over slices,
// so a burst of interference from outside the process, or one deadline
// stall, moves a slice or two and not the figure; time and count per
// operation are taken over the whole region (see metrics.whole), which
// averages over the phases in which this host runs the loop faster or
// slower.  The results file keeps every slice.
const slicesPerLeg = 40

// slice is one slice of a leg's measured region.
type slice struct {
	secs    float64
	ops     int64 // operations completed
	bytes   int64 // payload bytes delivered
	cpu     time.Duration
	mallocs uint64
	memMean uint64 // heap-object and stack bytes in use, mean of the samples
	lat     *hist  // per-operation time of the ops completed in the slice
}

// legResult is one leg's measured region.
type legResult struct {
	name      string
	reg       region
	slices    []slice
	ops       int64 // operations completed in the region
	attempted int64 // operations started in the region
	failed    int64 // of which did not complete correctly: a call failed, a payload was wrong, a datagram never arrived
	stalled   int64 // of which completed correctly after a serving call stalled and was resumed
	bytes     int64 // payload bytes delivered in the region
	conn      hist  // Connect call time (connect leg)
	inqMax    int64 // deepest netisr queue sampled
	layers    metrics
}

// tally counts one attempted operation against the stamp read before
// it: failed if a call failed or a payload was wrong since, otherwise
// stalled if a call stalled since.
func (l *legResult) tally(a *acct, before stamp) {
	l.attempted++
	switch now := a.stamp(); {
	case now.bad != before.bad:
		l.failed++
	case now.stalls != before.stalls:
		l.stalled++
	}
}

// meter runs a leg's clock: warm-up, then slicesPerLeg slices.  Only
// the load goroutine calls tick and finish; any goroutine may record a
// latency into the current slice.
type meter struct {
	b      *bed
	traced bool
	begin  time.Time
	step   time.Duration
	count  func() (ops, bytes int64) // cumulative, since the leg started
	in     bool
	next   time.Time
	cur    atomic.Int32 // current slice, -1 outside the region
	last   usage
	ops0   int64
	bytes0 int64
	lats   [slicesPerLeg]hist
	res    *legResult

	// The sampler goroutine's state: per-slice memory sums (KiB) and
	// sample counts, and the deepest input queue.
	memSum     [slicesPerLeg]atomic.Uint64
	memN       [slicesPerLeg]atomic.Uint64
	inqMax     atomic.Int64
	stopSample chan struct{}
	sampleDone chan struct{}
}

func newMeter(r *run, b *bed, res *legResult, warm, dur time.Duration, count func() (int64, int64)) *meter {
	m := &meter{b: b, traced: r.tr != nil, begin: time.Now().Add(warm), step: dur / slicesPerLeg, count: count, res: res}
	m.cur.Store(-1)
	return m
}

// tick is called before each operation; it reports whether the region
// is open and whether it is over.
func (m *meter) tick(now time.Time) (in, over bool) {
	if !m.in {
		if now.Before(m.begin) {
			return false, false
		}
		m.open()
		m.next = now.Add(m.step)
		return true, false
	}
	if len(m.res.slices) == slicesPerLeg {
		return false, true
	}
	if now.Before(m.next) {
		return true, false
	}
	m.closeSlice()
	if len(m.res.slices) == slicesPerLeg {
		m.close()
		return false, true
	}
	m.next = m.next.Add(m.step)
	m.cur.Store(int32(len(m.res.slices)))
	return true, false
}

// open starts the region and its sampler.
func (m *meter) open() {
	m.res.reg.begin(m.b, m.traced)
	m.in = true
	m.stopSample, m.sampleDone = make(chan struct{}), make(chan struct{})
	go m.sample()
	m.last = readUsage()
	m.ops0, m.bytes0 = m.count()
	m.cur.Store(0)
}

// close ends the region after the last slice.
func (m *meter) close() {
	m.cur.Store(-1)
	close(m.stopSample)
	<-m.sampleDone
	m.res.inqMax = m.inqMax.Load()
	m.res.reg.end(m.b)
}

// sample reads the Go heap every millisecond and sums each slice's
// heap-object plus stack bytes; a traced region also keeps the deepest
// netisr input queue of any stack.  The mean in-use figure is the
// steady one: the peak of each GC cycle swings with how long marking
// takes while a high allocation rate continues.
func (m *meter) sample() {
	defer close(m.sampleDone)
	ms := []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/memory/classes/heap/stacks:bytes"}}
	tk := time.NewTicker(time.Millisecond)
	defer tk.Stop()
	for {
		select {
		case <-m.stopSample:
			return
		case <-tk.C:
		}
		if i := m.cur.Load(); i >= 0 {
			rtmetrics.Read(ms)
			v := ms[0].Value.Uint64() + ms[1].Value.Uint64()
			m.memSum[i].Add(v >> 10)
			m.memN[i].Add(1)
		}
		if m.traced {
			for _, s := range m.b.stacks {
				for _, d := range s.InqDepths() {
					if int64(d) > m.inqMax.Load() {
						m.inqMax.Store(int64(d))
					}
				}
			}
		}
	}
}

func (m *meter) closeSlice() {
	u := readUsage()
	ops, bytes := m.count()
	i := len(m.res.slices)
	m.res.slices = append(m.res.slices, slice{
		secs:    u.t.Sub(m.last.t).Seconds(),
		ops:     ops - m.ops0,
		bytes:   bytes - m.bytes0,
		cpu:     u.cpu - m.last.cpu,
		mallocs: u.mallocs - m.last.mallocs,
		memMean: m.memSum[i].Load() << 10 / max(m.memN[i].Load(), 1),
		lat:     &m.lats[i],
	})
	m.res.ops += ops - m.ops0
	m.res.bytes += bytes - m.bytes0
	m.last, m.ops0, m.bytes0 = u, ops, bytes
}

// record adds one operation's time to the current slice.
func (m *meter) record(ns int64) {
	if i := m.cur.Load(); i >= 0 {
		m.lats[i].add(ns)
	}
}

// finish closes the region of a leg whose load stopped early.
func (m *meter) finish() {
	if len(m.res.slices) == slicesPerLeg {
		return
	}
	if !m.in {
		m.open()
	}
	m.closeSlice()
	m.close()
}

// waitDone waits for done to close, and sets stop after limit so the
// goroutines behind done give up their last wait.
func waitDone(done <-chan struct{}, stop *atomic.Bool, limit time.Duration) {
	select {
	case <-done:
	case <-time.After(limit):
		stop.Store(true)
		<-done
	}
}

// accept waits for one connection on l, resuming after stalls.
// pending reports whether a client connect is outstanding.
func (a *acct) accept(l *core.Socket, pending func() bool, stop *atomic.Bool, sb *spanBuf) (*core.Socket, error) {
	for {
		sp := sb.begin(spAccept, -1, -1)
		c, err := l.Accept(callDeadline)
		sb.end(sp)
		switch {
		case err == nil:
			return c, nil
		case isTimeout(err):
			if stop != nil && stop.Load() {
				return nil, err
			}
			if pending() {
				a.stall("Accept")
			}
		default:
			a.fail("Accept", err)
			return nil, err
		}
	}
}

// dial opens a stream socket and connects it to dst, waiting at most
// waits deadlines.  Connect cannot be called again on a socket whose
// Connect reached its deadline, so a stalled Connect is resumed by
// watching the connection's state.  Each deadline reached is a stall;
// a handshake still incomplete after the last one closes the socket
// and returns ErrTimeoutSock for the caller to retry or count.
func (a *acct) dial(st *core.Stack, family inet.Family, dst core.Sockaddr6, sockbuf int, secure bool, waits int, sb *spanBuf, parent int32, txn int64) (*core.Socket, error) {
	s, err := st.NewSocket(family, core.SockStream)
	if err != nil {
		return nil, err
	}
	if sockbuf > 0 {
		s.SetBuffers(sockbuf, sockbuf)
	}
	if secure {
		if err := s.SetSecurity(core.SoSecurityEncryptTrans, ipsec.LevelRequire); err != nil {
			return nil, err
		}
	}
	sp := sb.begin(spConnect, parent, txn)
	err = s.Connect(dst, callDeadline)
	for try := 1; isTimeout(err); try++ {
		a.stall("Connect")
		if try == waits {
			break
		}
		err = awaitEstablished(s, callDeadline)
	}
	sb.end(sp)
	if err != nil {
		if !isTimeout(err) {
			a.fail("Connect", err)
		}
		s.Close()
		return nil, err
	}
	return s, nil
}

// awaitEstablished polls s until its handshake completes, fails, or
// wait passes.
func awaitEstablished(s *core.Socket, wait time.Duration) error {
	for end := time.Now().Add(wait); ; {
		switch c := s.Conn(); {
		case c.State() == tcp.StateEstablished:
			return nil
		case c.Err() != nil:
			return c.Err()
		case c.State() == tcp.StateClosed:
			return core.ErrClosedSock
		case !time.Now().Before(end):
			return core.ErrTimeoutSock
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// dialTries bounds the deadlines one connection gets: dialRetry's
// sockets, and a connect-leg handshake's waits.
const dialTries = 5

// dialRetry is dial for a leg's persistent connection and a set-up
// probe: a fresh socket after each stalled Connect.  A new testbed's
// first handshake has been seen to outlast several deadlines on its
// socket while a fresh socket then connected at once.
func (a *acct) dialRetry(st *core.Stack, family inet.Family, dst core.Sockaddr6, sockbuf int, secure bool) (*core.Socket, error) {
	var err error
	for try := 0; try < dialTries; try++ {
		var s *core.Socket
		if s, err = a.dial(st, family, dst, sockbuf, secure, 1, nil, -1, -1); err == nil {
			return s, nil
		}
	}
	if isTimeout(err) {
		a.fail("Connect", err)
	}
	return nil, err
}

// streamLeg pushes 8 KiB writes over one connection into a sink that
// checks every byte against the seeded sequence.  An op is one write
// delivered; its time runs from the start of the write until the
// sink has read its last byte.
func streamLeg(r *run, b *bed, name string, family inet.Family, port uint16, secure bool, warm, dur time.Duration) legResult {
	res := legResult{name: name}
	var (
		sent, recvd, started atomic.Int64
		stop                 atomic.Bool
		starts               [startRing]atomic.Int64
	)
	m := newMeter(r, b, &res, warm, dur, func() (int64, int64) {
		n := recvd.Load()
		return n / writeSize, n
	})
	sinkSB := r.tr.buf(name, spanCap)
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := r.a.accept(b.listeners[name], func() bool { return started.Load() > 0 }, &stop, sinkSB)
		if err != nil {
			return
		}
		defer conn.Close()
		conn.SetBuffers(streamBuf, streamBuf)
		buf := make([]byte, 64<<10)
		var off int64
		for {
			n, err := r.a.readSome(conn, buf, func() bool { return sent.Load() > off }, &stop, sinkSB, -1, -1)
			if err != nil {
				if !errors.Is(err, core.ErrClosedSock) && !isTimeout(err) {
					r.a.fail("ReadInto", err)
				}
				return
			}
			if !r.in.matches(off, buf[:n]) {
				r.a.mismatches.Add(1)
			}
			prev := off / writeSize
			off += int64(n)
			recvd.Store(off)
			now := r.since(time.Now())
			for k := prev; k < off/writeSize; k++ {
				m.record(now - starts[k%startRing].Load())
			}
		}
	}()

	started.Store(1)
	cli, err := r.a.dialRetry(b.cli, family, b.dst(family, port), streamBuf, secure)
	if err != nil {
		stop.Store(true)
		<-done
		m.finish()
		return res
	}
	sb := r.tr.buf(name, spanCap)
	for k := int64(0); ; k++ {
		now := time.Now()
		in, over := m.tick(now)
		if over {
			break
		}
		off := k * writeSize
		starts[k%startRing].Store(r.since(now))
		sent.Store(off + writeSize)
		st := r.a.stamp()
		sp := sb.begin(spOpWrite, -1, k)
		err := r.a.sendAll(cli, r.in.at(off, writeSize), sb, sp, k)
		sb.end(sp)
		if in {
			res.tally(r.a, st)
		}
		if err != nil {
			break
		}
	}
	m.finish()
	cli.Close()
	waitDone(done, &stop, 2*time.Second)
	return res
}

// rrLeg runs 64-byte request/response transactions, one outstanding,
// over one persistent connection to an echo server.
func rrLeg(r *run, b *bed, name string, family inet.Family, port uint16, warm, dur time.Duration) legResult {
	res := legResult{name: name}
	var (
		reqSent, started, done atomic.Int64
		stop                   atomic.Bool
	)
	m := newMeter(r, b, &res, warm, dur, func() (int64, int64) {
		n := done.Load()
		return n, n * 2 * rrSize
	})
	srvSB := r.tr.buf(name, spanCap)
	srvDone := make(chan struct{})
	go func() {
		defer close(srvDone)
		conn, err := r.a.accept(b.listeners[name], func() bool { return started.Load() > 0 }, &stop, srvSB)
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, rrSize)
		var echoed int64
		for txn := int64(0); ; txn++ {
			sp := srvSB.begin(spSrvEcho, -1, txn)
			n, err := r.a.readSome(conn, buf, func() bool { return reqSent.Load() > echoed }, &stop, srvSB, sp, txn)
			if err == nil {
				err = r.a.sendAll(conn, buf[:n], srvSB, sp, txn)
			}
			srvSB.end(sp)
			if err != nil {
				return
			}
			echoed += int64(n)
		}
	}()

	started.Store(1)
	cli, err := r.a.dialRetry(b.cli, family, b.dst(family, port), 0, false)
	if err != nil {
		stop.Store(true)
		<-srvDone
		m.finish()
		return res
	}
	sb := r.tr.buf(name, spanCap)
	reply := make([]byte, rrSize)
	for txn := int64(0); ; txn++ {
		t0 := time.Now()
		in, over := m.tick(t0)
		if over {
			break
		}
		req := r.in.at(txn*rrSize, rrSize)
		reqSent.Add(rrSize)
		st := r.a.stamp()
		sp := sb.begin(spOpTxn, -1, txn)
		err := r.a.sendAll(cli, req, sb, sp, txn)
		if err == nil {
			err = r.a.readFull(cli, reply, sb, sp, txn)
		}
		sb.end(sp)
		if err == nil && !bytes.Equal(reply, req) {
			r.a.mismatches.Add(1)
		}
		m.record(int64(time.Since(t0)))
		done.Add(1)
		if in {
			res.tally(r.a, st)
		}
		if err != nil {
			break
		}
	}
	m.finish()
	cli.Close()
	waitDone(srvDone, &stop, 2*time.Second)
	return res
}

// connectLeg runs IPv6 connect, one transaction, close — a fresh
// connection per op, so the handshake, accept queue, PCB attach and
// detach, ephemeral ports and the TIME_WAIT table carry the load.
func connectLeg(r *run, b *bed, name string, port uint16, warm, dur time.Duration) legResult {
	res := legResult{name: name}
	var (
		started, done atomic.Int64
		stop          atomic.Bool
	)
	m := newMeter(r, b, &res, warm, dur, func() (int64, int64) {
		n := done.Load()
		return n, n * 2 * rrSize
	})
	srvSB := r.tr.buf(name, spanCap)
	srvDone := make(chan struct{})
	go func() {
		defer close(srvDone)
		buf := make([]byte, rrSize)
		var accepted int64
		for {
			conn, err := r.a.accept(b.listeners[name], func() bool { return started.Load() > accepted }, &stop, srvSB)
			if err != nil {
				return // stopped, or the listener failed (counted by accept)
			}
			accepted++
			txn := accepted - 1
			sp := srvSB.begin(spSrvEcho, -1, txn)
			n, err := r.a.readSome(conn, buf, func() bool { return true }, &stop, srvSB, sp, txn)
			if err == nil {
				err = r.a.sendAll(conn, buf[:n], srvSB, sp, txn)
			}
			srvSB.end(sp)
			if err == nil {
				// Wait for the client's FIN; it closes first, so the
				// client side holds TIME_WAIT.
				_, _ = r.a.readSome(conn, buf, func() bool { return false }, &stop, nil, -1, -1)
			}
			conn.Close()
		}
	}()

	sb := r.tr.buf(name, spanCap)
	reply := make([]byte, rrSize)
	dst := b.dst(inet.AFInet6, port)
	for txn := int64(0); ; txn++ {
		t0 := time.Now()
		in, over := m.tick(t0)
		if over {
			break
		}
		st := r.a.stamp()
		sp := sb.begin(spOpConn, -1, txn)
		started.Add(1)
		s, err := r.a.dial(b.cli, inet.AFInet6, dst, 0, false, dialTries, sb, sp, txn)
		if isTimeout(err) {
			r.a.fail("Connect", err)
		}
		tc := time.Now()
		if err == nil {
			req := r.in.at(txn*rrSize, rrSize)
			if err = r.a.sendAll(s, req, sb, sp, txn); err == nil {
				err = r.a.readFull(s, reply, sb, sp, txn)
			}
			if err == nil && !bytes.Equal(reply, req) {
				r.a.mismatches.Add(1)
			}
			cs := sb.begin(spClose, sp, txn)
			s.Close()
			sb.end(cs)
		}
		sb.end(sp)
		m.record(int64(time.Since(t0)))
		done.Add(1)
		if in {
			res.tally(r.a, st)
			res.conn.add(int64(tc.Sub(t0)))
		}
	}
	m.finish()
	stop.Store(true)
	<-srvDone
	return res
}

// forwardLeg sends 64-byte UDP datagrams across the topo line with a
// fixed window in flight: the sender blocks on a window slot, which
// the sink returns as each datagram arrives.  Each datagram carries
// its send time and sequence number; the rest is seeded payload the
// sink checks.  An op is one datagram delivered; its time is one-way.
func forwardLeg(r *run, b *bed, name string, port uint16, warm, dur time.Duration) legResult {
	res := legResult{name: name}
	sink, err := bindSink(b, port)
	if err != nil {
		r.a.fail("bind", err)
		return res
	}
	var (
		sent, got atomic.Int64
		stop      atomic.Bool
	)
	m := newMeter(r, b, &res, warm, dur, func() (int64, int64) {
		n := got.Load()
		return n, n * dgramSize
	})
	slots := make(chan struct{}, fwdWindow) // the window: one token per datagram in flight
	for i := 0; i < fwdWindow; i++ {
		slots <- struct{}{}
	}
	sinkSB := r.tr.buf(name, spanCap)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			sp := sinkSB.begin(spReadWait, -1, -1)
			data, _, err := sink.RecvFrom(dgramSize, callDeadline)
			sinkSB.end(sp)
			if err != nil {
				if !isTimeout(err) {
					if !errors.Is(err, core.ErrClosedSock) {
						r.a.fail("RecvFrom", err)
					}
					return
				}
				if stop.Load() {
					return
				}
				if sent.Load() > got.Load() {
					r.a.stall("RecvFrom")
				}
				continue
			}
			now := r.since(time.Now())
			if len(data) != dgramSize || !r.in.matches(int64(binary.BigEndian.Uint64(data[8:]))*48, data[16:]) {
				r.a.mismatches.Add(1)
			} else {
				m.record(now - int64(binary.BigEndian.Uint64(data)))
			}
			got.Add(1)
			select {
			case slots <- struct{}{}:
			default: // a late datagram whose slot was already reclaimed
			}
		}
	}()

	cli, err := b.cli.NewSocket(inet.AFInet6, core.SockDgram)
	if err == nil {
		err = cli.Connect(core.Addr6(b.lineDst, port), callDeadline)
	}
	if err != nil {
		r.a.fail("Connect", err)
		sink.Close()
		<-done
		m.finish()
		return res
	}
	sb := r.tr.buf(name, spanCap)
	buf := make([]byte, dgramSize)
	wait := time.NewTimer(time.Hour)
	wait.Stop()
	var stalled int64
	for seq := int64(0); ; seq++ {
		in, over := m.tick(time.Now())
		if over {
			break
		}
		sp := sb.begin(spOpDgram, -1, seq)
		select {
		case <-slots:
		default:
			wait.Reset(callDeadline)
			select {
			case <-slots:
				if !wait.Stop() {
					<-wait.C
				}
			case <-wait.C:
				// A full window and nothing back for a whole deadline:
				// reclaim one slot.  A datagram that never arrives is
				// counted as undelivered when the leg ends.
				r.a.stall("window")
				if in {
					stalled++
				}
			}
		}
		binary.BigEndian.PutUint64(buf, uint64(r.since(time.Now())))
		binary.BigEndian.PutUint64(buf[8:], uint64(seq))
		copy(buf[16:], r.in.at(seq*48, dgramSize-16))
		sent.Add(1)
		if in {
			res.attempted++
		}
		ss := sb.begin(spSend, sp, seq)
		_, err := cli.Send(buf, callDeadline)
		sb.end(ss)
		sb.end(sp)
		if err != nil {
			r.a.fail("Send", err)
			break
		}
	}
	m.finish()
	// Let the window drain, then count what never arrived.
	for deadline := time.Now().Add(time.Second); got.Load() < sent.Load() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	lost := sent.Load() - got.Load()
	r.a.lost.Add(lost)
	res.failed = min(lost, max(res.attempted, 1))
	res.stalled = min(stalled, res.attempted-res.failed)
	stop.Store(true)
	cli.Close()
	sink.Close()
	<-done
	return res
}

// bindSink opens the forward workload's sink socket on the last node.
func bindSink(b *bed, port uint16) (*core.Socket, error) {
	s, err := b.srv.NewSocket(inet.AFInet6, core.SockDgram)
	if err != nil {
		return nil, err
	}
	if err := s.Bind(core.Sockaddr6{Family: inet.AFInet6, Port: port}); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}
