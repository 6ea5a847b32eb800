package ipsec

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bsd6/internal/inet"
	"bsd6/internal/ipv6"
	"bsd6/internal/key"
	"bsd6/internal/mbuf"
	"bsd6/internal/proto"
	"bsd6/internal/stat"
)

// EIPSEC is "the newly defined IP Security processing error" (§3.3):
// returned to the user when a packet needed security that could not be
// applied (no association, no key management, or a processing failure).
var EIPSEC = errors.New("EIPSEC: IP security processing error")

// Level is a socket/system security level (§6.1):
//
//	0: no security on outbound, none required inbound
//	1: use security outbound if available, not required inbound
//	2: require security outbound and inbound
//	3: level 2, with a security association unique to the socket
type Level int

// The four security levels of §6.1, one per service.
const (
	LevelNone    Level = 0
	LevelUse     Level = 1
	LevelRequire Level = 2
	LevelUnique  Level = 3
)

// SockOpts is the per-socket (or system-wide) security request: one
// level for each of the three services — "the same matrix of 3
// protocols and 4 security levels" (§6.1).
type SockOpts struct {
	Auth         Level // SO_SECURITY_AUTHENTICATION
	ESPTransport Level // SO_SECURITY_ENCRYPTION_TRANSPORT
	ESPTunnel    Level // SO_SECURITY_ENCRYPTION_TUNNEL

	// Bypass exempts the socket from IP security entirely — the
	// privileged option §6.3 plans "to permit applications that need
	// to bypass IP security to do so (for example, a Photuris
	// daemon)".  The socket layer only sets it for effective uid 0.
	// Never meaningful in the system-wide policy.
	Bypass bool
}

// merge applies "the more paranoid of these policies" (§3.3).
func merge(a, b SockOpts) SockOpts {
	max := func(x, y Level) Level {
		if x > y {
			return x
		}
		return y
	}
	return SockOpts{
		Auth:         max(a.Auth, b.Auth),
		ESPTransport: max(a.ESPTransport, b.ESPTransport),
		ESPTunnel:    max(a.ESPTunnel, b.ESPTunnel),
		Bypass:       b.Bypass, // only the socket side may carry it
	}
}

// Stats counts security processing events; netstat(8) displays them
// (§3.4: "appropriate kernel statistics counters are incremented").
type Stats struct {
	OutAH          stat.Counter
	OutESP         stat.Counter
	OutTunnel      stat.Counter
	OutPolicyDrops stat.Counter
	OutCacheHits   stat.Counter
	InAuthOK       stat.Counter
	InAuthFail     stat.Counter
	InDecryptOK    stat.Counter
	InDecryptFail  stat.Counter
	InNoSA         stat.Counter
	InReplay       stat.Counter
	InPolicyDrops  stat.Counter
	TunnelSrcFail  stat.Counter
}

// portPolicy is one administrative per-port rule (§3.5's example: "an
// administrator could require that packets coming in on a certain
// range of privileged ports ... must be authentic").
type portPolicy struct {
	lo, hi uint16
	req    SockOpts
}

// Module is the IP security instance of one stack.
type Module struct {
	l *ipv6.Layer
	// Key is the stack's Key Engine (§3.1).
	Key *key.Engine

	mu     sync.Mutex
	system SockOpts
	ports  []portPolicy
	// hot flips once the administrator installs any system or port
	// policy; until then the per-packet policy reads skip the lock
	// entirely — the common stack pays nothing for the feature.
	hot atomic.Bool

	// SocketOpts reads the security options of a socket (set by the
	// sockets layer); nil sockets get zero levels.
	SocketOpts func(socket any) SockOpts

	// Stats counts security processing events.
	Stats Stats
}

// Attach creates the security module and installs its hooks on the
// IPv6 layer (§3.3 output, §3.4 input).
func Attach(l *ipv6.Layer, ke *key.Engine) *Module {
	m := &Module{l: l, Key: ke}
	l.SecOut = m.OutputPolicy
	l.SecIn = m.Input
	return m
}

// SetSystemPolicy installs the administrator's system-wide levels.
func (m *Module) SetSystemPolicy(p SockOpts) {
	m.mu.Lock()
	m.system = p
	m.mu.Unlock()
	m.hot.Store(true)
}

// SystemPolicy returns the system-wide levels.
func (m *Module) SystemPolicy() SockOpts {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.system
}

func (m *Module) effective(socket any) SockOpts {
	var sys SockOpts
	if m.hot.Load() {
		m.mu.Lock()
		sys = m.system
		m.mu.Unlock()
	}
	if socket == nil || m.SocketOpts == nil {
		return sys
	}
	so := m.SocketOpts(socket)
	if so.Bypass {
		return SockOpts{Bypass: true}
	}
	return merge(sys, so)
}

// AddPortPolicy installs an administrative input requirement for local
// ports in [lo, hi] — the §3.5 enhancement to the "simple system-wide
// decisions" of the current policy engine.
func (m *Module) AddPortPolicy(lo, hi uint16, req SockOpts) {
	m.mu.Lock()
	m.ports = append(m.ports, portPolicy{lo: lo, hi: hi, req: req})
	m.mu.Unlock()
	m.hot.Store(true)
}

// portRequirements merges the policies covering the local port.
func (m *Module) portRequirements(port uint16) SockOpts {
	if !m.hot.Load() {
		return SockOpts{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	var req SockOpts
	for _, p := range m.ports {
		if port >= p.lo && port <= p.hi {
			req = merge(req, p.req)
		}
	}
	return req
}

// secVerdict is one resolved outbound decision: the effective policy
// it was computed under and the association for each service (nil
// where the level is none, or use-with-no-SA).  It is what a PCB's
// key.Cache holds.
type secVerdict struct {
	eff          SockOpts
	esp, tun, ah *key.SA
	deadline     time.Time
}

// resolveOut computes the outbound verdict for (hdr.Src, hdr.Dst)
// under eff by querying the Key Engine per service.  Resolution
// failures (EIPSEC, acquire-delayed) return an error and are never
// cached.
func (m *Module) resolveOut(hdr *ipv6.Header, socket any, eff SockOpts) (*secVerdict, error) {
	get := func(p key.SecProto, lvl Level) (*key.SA, error) {
		if lvl == LevelNone {
			return nil, nil
		}
		sa, err := m.Key.GetBySocket(hdr.Src, hdr.Dst, p, socket, lvl == LevelUnique)
		if err != nil {
			if lvl == LevelUse {
				return nil, nil // level 1: use if available
			}
			m.Stats.OutPolicyDrops.Inc()
			m.l.Drops.DropNote(stat.RSecNoSAOut, hdr.Dst.String())
			return nil, fmt.Errorf("%w: %v", EIPSEC, err)
		}
		return sa, nil
	}
	v := &secVerdict{eff: eff}
	var err error
	if v.esp, err = get(key.ProtoESPTransport, eff.ESPTransport); err != nil {
		return nil, err
	}
	if v.tun, err = get(key.ProtoESPTunnel, eff.ESPTunnel); err != nil {
		return nil, err
	}
	if v.ah, err = get(key.ProtoAH, eff.Auth); err != nil {
		return nil, err
	}
	for _, sa := range []*key.SA{v.esp, v.tun, v.ah} {
		if sa == nil || sa.HardLife == 0 {
			continue
		}
		d := sa.AddedAt.Add(sa.HardLife)
		if v.deadline.IsZero() || d.Before(v.deadline) {
			v.deadline = d
		}
	}
	return v, nil
}

// OutputPolicy is ipsec_output_policy() (§3.3), installed as the IPv6
// layer's SecOut hook and called immediately before fragmentation.  It
// merges system and socket policy, obtains associations from the Key
// Engine — through the caller's generation-validated cache when one is
// supplied, so steady-state sends never touch the SA table — and
// applies the needed services to the fragmentable part: ESP transport
// innermost, then ESP tunnel, then AH outermost.  Every transform
// works on the packet in place: ESP seals around the payload where it
// lies (gathering it once first only when it has no room) and AH is
// prepended into the leading space.  It consumes pkt on every path, as
// ipv6.SecOutputFunc requires, and returns the destination the outer
// header carries.
func (m *Module) OutputPolicy(hdr ipv6.Header, pkt *mbuf.Mbuf, nh uint8, socket any, sc *key.Cache) (*mbuf.Mbuf, uint8, inet.IP6, error) {
	eff := m.effective(socket)
	if eff.Bypass || eff == (SockOpts{}) {
		return pkt, nh, hdr.Dst, nil
	}

	var v *secVerdict
	if sc != nil {
		if cv, ok := sc.Get(m.Key, hdr.Src, hdr.Dst); ok {
			if vv := cv.(*secVerdict); vv.eff == eff {
				v = vv
				m.Stats.OutCacheHits.Inc()
			}
		}
	}
	if v == nil {
		// Sample the generation before resolving: a table change racing
		// the resolution then leaves the filled cache stale on its next
		// compare, never wrongly fresh (the route.Cache discipline).
		gen := m.Key.Gen()
		var err error
		if v, err = m.resolveOut(&hdr, socket, eff); err != nil {
			pkt.Free()
			return nil, 0, hdr.Dst, err
		}
		if sc != nil {
			sc.Fill(m.Key, gen, hdr.Src, hdr.Dst, v.deadline, v)
		}
	}

	// Apply the services, each to the packet the previous one left.
	// A failed ESP seal has freed the packet; a failed AH has not.
	wrapFail := func(werr error) (*mbuf.Mbuf, uint8, inet.IP6, error) {
		m.Stats.OutPolicyDrops.Inc()
		return nil, 0, hdr.Dst, fmt.Errorf("%w: %v", EIPSEC, werr)
	}

	if sa := v.esp; sa != nil {
		n := pkt.Len()
		var werr error
		if pkt, werr = wrapESPChain(sa, nil, pkt, nh); werr != nil {
			return wrapFail(werr)
		}
		m.Stats.OutESP.Inc()
		sa.CountOut(n)
		nh = proto.ESP
	}

	if sa := v.tun; sa != nil {
		// The inner datagram keeps the real destination; the outer
		// header is readdressed to the association's endpoint when it
		// is a security gateway ("prepending an additional cleartext
		// IP header outside the encrypted IP datagram so that the
		// packet can be routed", §3).
		n := pkt.Len()
		inner := hdr
		inner.NextHdr = nh
		inner.PayloadLen = n
		var ib [ipv6.HeaderLen]byte
		var werr error
		if pkt, werr = wrapESPChain(sa, inner.Marshal(ib[:0]), pkt, proto.IPv6); werr != nil {
			return wrapFail(werr)
		}
		m.Stats.OutTunnel.Inc()
		sa.CountOut(n)
		nh = proto.ESP
		hdr.Dst = sa.Dst // the layer re-routes toward the gateway
	}

	if sa := v.ah; sa != nil {
		if werr := buildAHChain(sa, &hdr, pkt, nh); werr != nil {
			pkt.Free()
			return wrapFail(werr)
		}
		m.Stats.OutAH.Inc()
		sa.CountOut(pkt.Len())
		nh = proto.AH
	}
	return pkt, nh, hdr.Dst, nil
}

// spiMissReason types an inbound SA lookup failure for the drop
// taxonomy.
func spiMissReason(r key.SPIResult) stat.Reason {
	switch r {
	case key.SPIExpired:
		return stat.RSecExpired
	case key.SPIStale:
		return stat.RSecStaleSA
	}
	return stat.RSecNoSA
}

// replayDrop charges a replay-window rejection everywhere it is
// visible: the per-SA counter, the module stats, and the drop
// taxonomy.
func (m *Module) replayDrop(sa *key.SA, b []byte) {
	atomic.AddUint64(&sa.ReplayDrops, 1)
	m.Stats.InReplay.Inc()
	m.l.Drops.DropPkt(stat.RSecReplay, b)
}

// Input is the IPv6 layer's SecIn hook (§3.4): process an AH or ESP
// header found during input, setting M_AUTHENTIC / M_DECRYPTED and
// recording the SPI for the transport-layer policy check.  Sequenced
// framings are checked against the association's replay window before
// the cryptography (a replayed packet is rejected for free) and
// committed to it only after the integrity check passes.  ESP is
// opened in place: pkt is trimmed down to the rebuilt datagram and the
// layer reinjects it.  Input never frees pkt.
func (m *Module) Input(pkt *mbuf.Mbuf, hdr ipv6.Header, p uint8, off int) ipv6.SecAction {
	b := pkt.Bytes()
	switch p {
	case proto.AH:
		if off+ahFixedLen > len(b) {
			m.Stats.InAuthFail.Inc()
			m.l.Drops.DropPkt(stat.RSecAuthFail, b)
			return ipv6.SecDrop
		}
		spi := get32be(b[off+4:])
		sa, res := m.Key.LookupSPI(spi, hdr.Dst, key.ProtoAH)
		if sa == nil {
			m.Stats.InNoSA.Inc()
			m.l.Drops.DropPkt(spiMissReason(res), b)
			return ipv6.SecDrop
		}
		// Replay pre-check for sequenced framings, before paying for
		// the digest.
		seqFramed := false
		if alg, ok := LookupAuth(sa.AuthAlg); ok && sequenced(alg) {
			seqFramed = true
			if off+ahFixedLen+ahSeqLen > len(b) {
				m.Stats.InAuthFail.Inc()
				m.l.Drops.DropPkt(stat.RSecAuthFail, b)
				return ipv6.SecDrop
			}
			if sa.Replay != nil && !sa.Replay.Check(get64be(b[off+ahFixedLen:])) {
				m.replayDrop(sa, b)
				return ipv6.SecDrop
			}
		}
		_, _, seq, ok := verifyAHSeq(sa, &hdr, b, off)
		if !ok {
			m.Stats.InAuthFail.Inc()
			m.l.Drops.DropPkt(stat.RSecAuthFail, b)
			return ipv6.SecDrop
		}
		if seqFramed && sa.Replay != nil && !sa.Replay.Update(seq) {
			m.replayDrop(sa, b)
			return ipv6.SecDrop
		}
		m.Stats.InAuthOK.Inc()
		sa.CountIn(len(b) - off)
		pkt.Hdr().Flags |= mbuf.MAuthentic
		pkt.Hdr().AddSPI(spi)
		return ipv6.SecContinue

	case proto.ESP:
		if off+4 > len(b) {
			m.Stats.InDecryptFail.Inc()
			m.l.Drops.DropPkt(stat.RSecDecryptFail, b)
			return ipv6.SecDrop
		}
		spi := get32be(b[off:])
		sa, res := m.Key.LookupSPI(spi, hdr.Dst, key.ProtoESPTransport)
		if sa == nil {
			sa2, res2 := m.Key.LookupSPI(spi, hdr.Dst, key.ProtoESPTunnel)
			if sa2 != nil || res2 > res {
				sa, res = sa2, res2
			}
		}
		if sa == nil {
			m.Stats.InNoSA.Inc()
			m.l.Drops.DropPkt(spiMissReason(res), b)
			return ipv6.SecDrop
		}
		s := espSchedule(sa)
		var seq uint64
		if s.seq {
			if off+espAEADHdr > len(b) {
				m.Stats.InDecryptFail.Inc()
				m.l.Drops.DropPkt(stat.RSecDecryptFail, b)
				return ipv6.SecDrop
			}
			seq = get64be(b[off+4:])
			if sa.Replay != nil && !sa.Replay.Check(seq) {
				m.replayDrop(sa, b)
				return ipv6.SecDrop
			}
		}
		inner, payloadType, err := openESPInPlace(s, b, off)
		if err != nil {
			m.Stats.InDecryptFail.Inc()
			if errors.Is(err, errESPAuth) {
				m.l.Drops.DropPkt(stat.RSecBadICV, b)
			} else {
				m.l.Drops.DropPkt(stat.RSecDecryptFail, b)
			}
			return ipv6.SecDrop
		}
		if s.seq && sa.Replay != nil && !sa.Replay.Update(seq) {
			m.replayDrop(sa, b)
			return ipv6.SecDrop
		}
		m.Stats.InDecryptOK.Inc()
		sa.CountIn(len(b) - off)

		// inner aliases b: its offset is the difference of their
		// capacities.
		start := cap(b) - cap(inner)
		end := start + len(inner)
		h := pkt.Hdr()
		h.Flags |= mbuf.MDecrypted
		h.AddSPI(spi)
		if sa.Proto == key.ProtoESPTunnel || payloadType == proto.IPv6 {
			// Tunnel mode: the plaintext is a complete datagram.
			ih, perr := ipv6.Parse(inner)
			if perr != nil {
				m.Stats.InDecryptFail.Inc()
				m.l.Drops.DropPkt(stat.RSecDecryptFail, b)
				return ipv6.SecDrop
			}
			// Tunnel source-address check (§3.4): a forged inner
			// packet must not inherit the outer packet's credentials.
			if ih.Src != hdr.Src {
				m.Stats.TunnelSrcFail.Inc()
				m.l.Drops.DropNote(stat.RSecTunnelAddr, ih.Src.String()+"!="+hdr.Src.String())
				h.Flags &^= mbuf.MAuthentic | mbuf.MDecrypted
			}
		} else {
			// Transport mode: rebuild the base header in the dead
			// bytes just before the plaintext, so the decrypted
			// upper-layer content sits directly under it.
			start -= ipv6.HeaderLen
			nhdr := hdr
			nhdr.NextHdr = payloadType
			nhdr.PayloadLen = len(inner)
			nhdr.Marshal(b[start:start:end])
		}
		pkt.Adj(end - len(b))
		pkt.Adj(start)
		return ipv6.SecReinject
	}
	return ipv6.SecDrop
}

// InputPolicy is ipsec_input_policy() (§3.4): transport protocols call
// it before processing a received packet; it checks both the socket
// requirements and the system-wide requirements, so "the system
// administrator can mandate a minimum security level for all normal
// network connections".  It returns false if the packet must be
// silently dropped.
func (m *Module) InputPolicy(pkt *mbuf.Mbuf, dst inet.IP6, socket any) bool {
	return m.InputPolicyPort(pkt, dst, socket, 0)
}

// InputPolicyPort is InputPolicy with the local port visible, so the
// administrative per-port rules of §3.5 apply. Port 0 means "no port"
// (ICMP and the like).
func (m *Module) InputPolicyPort(pkt *mbuf.Mbuf, dst inet.IP6, socket any, lport uint16) bool {
	eff := m.effective(socket)
	if eff.Bypass {
		return true
	}
	if lport != 0 {
		eff = merge(eff, m.portRequirements(lport))
	}
	if eff == (SockOpts{}) {
		return true
	}
	flags := pkt.Hdr().Flags
	if eff.Auth >= LevelRequire && flags&mbuf.MAuthentic == 0 {
		m.Stats.InPolicyDrops.Inc()
		m.l.Drops.DropNote(stat.RSecPolicyDrop, dst.String())
		return false
	}
	needDecrypt := eff.ESPTransport >= LevelRequire || eff.ESPTunnel >= LevelRequire
	if needDecrypt && flags&mbuf.MDecrypted == 0 {
		m.Stats.InPolicyDrops.Inc()
		m.l.Drops.DropNote(stat.RSecPolicyDrop, dst.String())
		return false
	}
	// Level 3: some association protecting the packet must be unique
	// to this socket.
	if (eff.Auth == LevelUnique || eff.ESPTransport == LevelUnique || eff.ESPTunnel == LevelUnique) && socket != nil {
		found := false
		for _, spi := range pkt.Hdr().AuxSPI {
			for _, p := range []key.SecProto{key.ProtoAH, key.ProtoESPTransport, key.ProtoESPTunnel} {
				if sa, ok := m.Key.GetBySPI(spi, dst, p); ok && sa.Unique && sa.Socket == socket {
					found = true
				}
			}
		}
		if !found {
			m.Stats.InPolicyDrops.Inc()
			m.l.Drops.DropNote(stat.RSecPolicyDrop, dst.String())
			return false
		}
	}
	return true
}

// HdrSize estimates the wrapping overhead the socket's effective
// policy will add to each packet (BSD's ipsec_hdrsiz): transports
// subtract it from the MSS so secured segments do not overflow the
// path MTU and fragment.  The estimates cover the largest registered
// framing per service (sequenced AH with a 32-byte digest, AEAD ESP
// with its tag).
func (m *Module) HdrSize(socket any) int {
	eff := m.effective(socket)
	n := 0
	if eff.Auth >= LevelUse {
		n += ahFixedLen + ahSeqLen + 32 // header + seq + largest digest
	}
	if eff.ESPTransport >= LevelUse {
		n += espAEADHdr + 1 + 16 + 8 // SPI+seq + type + tag, or IV+pad+trailer
	}
	if eff.ESPTunnel >= LevelUse {
		n += 40 + espAEADHdr + 1 + 16 + 8 // inner header + ESP framing
	}
	return n
}

// AllowError implements the in6_pcbnotify() security check (§5.1):
// whether an ICMP error may be delivered to applications. Under a
// system policy requiring authentication, unauthenticated errors are
// suppressed (ICMP errors echo packet contents and cannot themselves
// be verified here).
func (m *Module) AllowError() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.system.Auth < LevelRequire
}

func get32be(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}
