package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"bsd6/internal/core"
	"bsd6/internal/inet"
	"bsd6/internal/ipsec"
	"bsd6/internal/key"
	"bsd6/internal/netif"
	"bsd6/internal/topo"
)

// bed is one workload's testbed: the stacks, the hubs between them and
// the listening sockets its legs connect to.
type bed struct {
	stacks []*core.Stack
	hubs   []*netif.Hub
	caps   []*capture // one per hub, nil on an untraced bed

	// Pair beds: a client and a server stack on one hub.
	cli, srv   *core.Stack
	cli6, srv6 inet.IP6
	cli4, srv4 inet.IP4

	// Line beds: the network and the two end hosts.
	nw        *topo.Network
	lineDst   inet.IP6
	listeners map[string]*core.Socket

	// espKey is the AES-GCM key (cipher || salt) of a secure bed.
	espKey []byte
}

// close stops the listeners and every stack; shutdown lets traffic
// settle first.
func (b *bed) close() {
	for _, l := range b.listeners {
		l.Close()
	}
	if b.nw != nil {
		b.nw.Close()
		return
	}
	for _, s := range b.stacks {
		s.Close()
	}
}

// newPair builds a client and a server stack on one hub, numbered for
// both families.
func newPair(traced bool, base time.Time) *bed {
	hub := netif.NewHub()
	b := &bed{hubs: []*netif.Hub{hub}, listeners: make(map[string]*core.Socket)}
	if traced {
		c := newCapture(base)
		hub.Capture = c.hook
		b.caps = []*capture{c}
	}
	b.cli = core.NewStack("cli", core.Options{})
	b.srv = core.NewStack("srv", core.Options{})
	b.stacks = []*core.Stack{b.cli, b.srv}
	cIf := b.cli.AttachLink(hub, inet.LinkAddr{2, 0, 0, 0, 0, 1}, 1500)
	sIf := b.srv.AttachLink(hub, inet.LinkAddr{2, 0, 0, 0, 0, 2}, 1500)
	b.cli4, b.srv4 = inet.IP4{10, 0, 0, 1}, inet.IP4{10, 0, 0, 2}
	b.cli.ConfigureV4(cIf, b.cli4, 24)
	b.srv.ConfigureV4(sIf, b.srv4, 24)
	now := time.Now()
	b.cli6, _ = cIf.LinkLocal6(now)
	b.srv6, _ = sIf.LinkLocal6(now)
	return b
}

// addESP installs AES-GCM ESP transport associations in both
// directions on both stacks, keyed from the seed.
func (b *bed) addESP(seed int64) error {
	rng := rand.New(rand.NewSource(seed ^ 0x5e5e))
	b.espKey = make([]byte, 20) // 16-byte AES key || 4-byte salt
	rng.Read(b.espKey)
	for _, s := range b.stacks {
		for _, sa := range []*key.SA{
			{SPI: 0x200, Src: b.cli6, Dst: b.srv6, Proto: key.ProtoESPTransport, EncAlg: "aes-gcm", EncKey: b.espKey},
			{SPI: 0x201, Src: b.srv6, Dst: b.cli6, Proto: key.ProtoESPTransport, EncAlg: "aes-gcm", EncKey: b.espKey},
		} {
			if err := s.Keys.Add(sa); err != nil {
				return fmt.Errorf("add SA %#x: %w", sa.SPI, err)
			}
		}
	}
	return nil
}

// listen opens a stream listener of family on the server stack.
func (b *bed) listen(name string, family inet.Family, port uint16, sockbuf int, secure bool) error {
	l, err := b.srv.NewSocket(family, core.SockStream)
	if err != nil {
		return err
	}
	if sockbuf > 0 {
		l.SetBuffers(sockbuf, sockbuf)
	}
	if secure {
		if err := l.SetSecurity(core.SoSecurityEncryptTrans, ipsec.LevelRequire); err != nil {
			return err
		}
	}
	if err := l.Bind(core.Sockaddr6{Family: family, Port: port}); err != nil {
		return fmt.Errorf("bind %s: %w", name, err)
	}
	if err := l.Listen(64); err != nil {
		return err
	}
	b.listeners[name] = l
	return nil
}

// dst is the server address of a pair bed in family.
func (b *bed) dst(family inet.Family, port uint16) core.Sockaddr6 {
	if family == inet.AFInet {
		return core.Addr4(b.srv4, port)
	}
	return core.Addr6(b.srv6, port)
}

// newLine builds the forward workload's 4-node topo line: sender, two
// transit routers and a sink, one hub per link.
func newLine(traced bool, base time.Time, seed int64) (*bed, error) {
	nw, err := topo.Build(topo.Spec{Kind: topo.Line, N: 4, Seed: seed})
	if err != nil {
		return nil, err
	}
	b := &bed{nw: nw, listeners: make(map[string]*core.Socket)}
	for _, n := range nw.Nodes {
		b.stacks = append(b.stacks, n.S)
	}
	for _, lk := range nw.Links {
		b.hubs = append(b.hubs, lk.Hub)
		if traced {
			c := newCapture(base)
			lk.Hub.Capture = c.hook
			b.caps = append(b.caps, c)
		}
	}
	b.cli, b.srv = nw.Nodes[0].S, nw.Nodes[3].S
	var ok bool
	if b.lineDst, ok = nw.Nodes[3].Addr(); !ok {
		b.close()
		return nil, fmt.Errorf("sink node has no address")
	}
	return b, nil
}

// listenSpec is one listener of a pair bed; portOff offsets the run's
// base port, and probe connects once during set-up so neighbor
// resolution and the first handshake are part of it.
type listenSpec struct {
	name    string
	family  inet.Family
	portOff uint16
	sockbuf int
	secure  bool
	probe   bool
}

// ready opens the listeners of a pair bed and probes them.
func (b *bed) ready(r *run, ls []listenSpec) error {
	for _, l := range ls {
		if err := b.listen(l.name, l.family, r.in.port+l.portOff, l.sockbuf, l.secure); err != nil {
			b.close()
			return err
		}
	}
	for _, l := range ls {
		if !l.probe {
			continue
		}
		if err := b.probe(r, l.name, l.family, r.in.port+l.portOff, l.secure); err != nil {
			b.close()
			return fmt.Errorf("probe %s: %w", l.name, err)
		}
	}
	return nil
}

// probe makes one connection to a listener and closes it.
func (b *bed) probe(r *run, name string, family inet.Family, port uint16, secure bool) error {
	var stop atomic.Bool
	errc := make(chan error, 1)
	go func() {
		c, err := r.a.accept(b.listeners[name], func() bool { return true }, &stop, nil)
		if err == nil {
			c.Close()
		}
		errc <- err
	}()
	s, err := r.a.dialRetry(b.cli, family, b.dst(family, port), 0, secure)
	if err != nil {
		stop.Store(true)
		<-errc
		return err
	}
	s.Close()
	return <-errc
}

// readyLine resolves the forward path: datagrams go out until one
// reaches the sink, so every hop has its neighbor entry.
func (b *bed) readyLine(port uint16) error {
	sink, err := bindSink(b, port)
	if err != nil {
		b.close()
		return err
	}
	defer sink.Close()
	cli, err := b.cli.NewSocket(inet.AFInet6, core.SockDgram)
	if err == nil {
		err = cli.Connect(core.Addr6(b.lineDst, port), callDeadline)
	}
	if err != nil {
		b.close()
		return err
	}
	defer cli.Close()
	for try := 0; try < 100; try++ {
		if _, err := cli.Send(make([]byte, dgramSize), callDeadline); err != nil {
			b.close()
			return err
		}
		if _, _, err := sink.RecvFrom(dgramSize, 20*time.Millisecond); err == nil {
			return nil
		}
	}
	b.close()
	return fmt.Errorf("no datagram crossed the line")
}

// shutdown lets in-flight frames settle, then stops the bed.
func (b *bed) shutdown() {
	deadline := time.Now().Add(2 * time.Second)
	for calm := 0; calm < 5 && time.Now().Before(deadline); {
		busy := 0
		for _, s := range b.stacks {
			busy += s.Pending()
		}
		for _, h := range b.hubs {
			busy += h.Pending()
		}
		if busy == 0 {
			calm++
		} else {
			calm = 0
		}
		time.Sleep(time.Millisecond)
	}
	b.close()
}
