// Package key implements the Key Engine (§3.1) and the PF_KEY key
// management socket (§6.2).
//
// "Security associations are stored in a table inside the kernel.  A
// module called the Key Engine controls access to the table."  Kernel
// services (the IPsec module) obtain associations for inbound packets
// by SPI (getassocbyspi) and for outbound packets by socket/destination
// (getassocbysocket).  User-level key management — whether an automatic
// daemon like Photuris or the manual key(8) tool — talks to the engine
// over PF_KEY, a message interface modeled on the routing socket, so
// that "the key management system [is] completely decoupled from the IP
// security implementation" and can be replaced by installing a new
// daemon, with no kernel rebuild.
//
// Like NRL's table under splnet, the engine keeps every table under
// one lock.  The inbound SPI lookup is one map probe under its read
// lock, with no allocation, and the outbound resolution is memoized in
// a PCB-held Cache validated by one atomic generation compare — the
// route.Cache discipline applied to the SA table.  Every structural
// table change (add, update, delete, flush, hard expiry) bumps the
// generation, so a PF_KEY storm racing the datapath can only make
// caches stale, never wrongly fresh.
package key

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bsd6/internal/inet"
	"bsd6/internal/stat"
)

// SecProto identifies which security service an association keys.
type SecProto int

// Security services an association can key: the Authentication Header,
// transport-mode ESP, and tunnel-mode ESP (§3.1).
const (
	ProtoAH SecProto = iota + 1
	ProtoESPTransport
	ProtoESPTunnel
)

// String names the service the way key(8) would print it.
func (p SecProto) String() string {
	switch p {
	case ProtoAH:
		return "ah"
	case ProtoESPTransport:
		return "esp-transport"
	case ProtoESPTunnel:
		return "esp-tunnel"
	}
	return "secproto?"
}

// SA is a Security Association: "all of the configuration data for a
// particular secure session between two or more systems" (§3.1).
// Associations are one-way from source to destination (so a telnet
// session needs two) in order to support multicast as well as unicast.
type SA struct {
	// SPI is the Security Parameters Index carried in cleartext on
	// every AH/ESP packet; (SPI, Dst, Proto) names the association.
	SPI uint32
	// Src and Dst are the association's endpoints.
	Src, Dst inet.IP6
	// Proto is the security service this association keys.
	Proto SecProto

	// AuthAlg/AuthKey and EncAlg/EncKey select entries in the ipsec
	// package's algorithm switches (§3.6) and supply their key material.
	AuthAlg string
	AuthKey []byte
	EncAlg  string
	EncKey  []byte

	// Sensitivity is the session's level (e.g. Unclassified, Secret).
	Sensitivity string

	// SelDst/SelPlen form a destination selector for tunnel-mode
	// associations whose other end is a security *gateway*: traffic to
	// any address under the selector prefix is wrapped and carried to
	// Dst (the gateway), which decapsulates and forwards.  Zero SelPlen
	// means the association only matches traffic to Dst itself
	// (host-to-host tunnels).
	SelDst  inet.IP6
	SelPlen int

	// Unique associations belong to a single socket (security level 3,
	// §6.1: "outbound packets use a security association unique to this
	// socket").
	Unique bool
	// Socket is the owning socket of a Unique association.
	Socket any

	// AddedAt stamps installation; SoftLife/HardLife are lifetimes
	// measured from it on the engine's clock.  Soft expiry asks key
	// management for a replacement; hard expiry removes the
	// association.  Zero means no limit.
	AddedAt  time.Time
	SoftLife time.Duration
	HardLife time.Duration

	// UseCount and ByteCount are lifetime usage counters, updated
	// atomically: per-packet lookups charge them without the table lock.
	UseCount  uint64
	ByteCount uint64

	// Per-direction datapath counters, updated atomically by the IPsec
	// transforms; netstat renders them per SA.
	InPkts      uint64
	InBytes     uint64
	OutPkts     uint64
	OutBytes    uint64
	ReplayDrops uint64

	// SeqOut is the outbound sequence counter for transforms that
	// carry one (AEAD ESP, sequenced AH); advance it with NextSeq.
	SeqOut uint64

	// Replay is the inbound anti-replay window, allocated by
	// Engine.Add; nil until the association is installed.
	Replay *Replay

	// sched is the keyed transform state the ipsec layer derives from
	// EncAlg/EncKey on first use (KAME's sav->sched); see Sched.
	sched atomic.Value

	softSent bool // soft-expire notification already emitted
}

// Sched returns the transform schedule stored by SetSched, or nil if
// the association has not carried a packet yet.  The Key Engine never
// looks inside it.  A rekey (Update) installs a new *SA and so starts
// from an empty slot; a copy of an SA made after first use shares the
// schedule of the original, so change keys by building a new SA.
func (sa *SA) Sched() any { return sa.sched.Load() }

// SetSched stores v as the association's schedule unless one is
// already stored, and returns the stored one: concurrent first uses
// agree on a single schedule.  Every schedule stored on SAs must have
// the same concrete type.
func (sa *SA) SetSched(v any) any {
	if sa.sched.CompareAndSwap(nil, v) {
		return v
	}
	return sa.sched.Load()
}

// String renders the association for logs and key(8)-style dumps.
func (sa *SA) String() string {
	return fmt.Sprintf("SA{spi=%#x %s %s->%s auth=%s enc=%s}", sa.SPI, sa.Proto, sa.Src, sa.Dst, sa.AuthAlg, sa.EncAlg)
}

// NextSeq atomically advances and returns the outbound sequence
// number; the first packet of an association carries sequence 1.
func (sa *SA) NextSeq() uint64 {
	return atomic.AddUint64(&sa.SeqOut, 1)
}

// CountOut charges one outbound packet of n bytes against the
// association's per-direction counters and lifetime byte count.
func (sa *SA) CountOut(n int) {
	atomic.AddUint64(&sa.OutPkts, 1)
	atomic.AddUint64(&sa.OutBytes, uint64(n))
	atomic.AddUint64(&sa.ByteCount, uint64(n))
}

// CountIn charges one inbound packet of n bytes.
func (sa *SA) CountIn(n int) {
	atomic.AddUint64(&sa.InPkts, 1)
	atomic.AddUint64(&sa.InBytes, uint64(n))
	atomic.AddUint64(&sa.ByteCount, uint64(n))
}

// Errors from the Key Engine.
var (
	// ErrNoAssoc reports that no matching association exists and no key
	// management daemon is registered to create one.
	ErrNoAssoc = errors.New("key: no security association")
	// ErrAcquireDelayed reports that no association exists but a key
	// management daemon has been asked for one (§3.3: "the Key Engine
	// sends a Request message to that daemon and informs the output
	// policy function that the Security Association has been delayed").
	ErrAcquireDelayed = errors.New("key: security association delayed (acquire sent)")
	// ErrExists reports an Add colliding with an installed association.
	ErrExists = errors.New("key: association already exists")
)

// staleRingSize bounds the recently-deleted ring used to classify
// inbound SPI misses as stale (a just-removed association) versus
// never-known — the SYN-cookie-style "we used to know you" signal.
const staleRingSize = 512

// Engine is the in-kernel Security Association table plus the PF_KEY
// plumbing.  Every table below lives under e.mu: the per-packet
// inbound lookup takes its read lock, and the outbound path skips it
// while its generation-validated Cache stays fresh.
type Engine struct {
	mu    sync.RWMutex
	sas   map[saKey]*SA
	spi   map[saKey]*SA    // inbound index read by LookupSPI
	byDst map[dstKey][]*SA // exact-destination outbound index
	sel   []*SA            // tunnel SAs with a destination selector
	socks []*Socket
	acq   map[acqKey]time.Time // outstanding acquires, rate-limited
	seq   uint32

	gen atomic.Uint64 // bumped on every structural table change

	// Recently-deleted associations, for stale-SPI classification.
	delSet  map[saKey]struct{}
	delRing [staleRingSize]saKey
	delLen  int
	delPos  int

	// Now is the clock; the stack wires it to the virtual clock, tests
	// may replace it.  SA lifetimes are measured on this clock, never
	// on the wall clock.
	Now func() time.Time
	// AcquireWindow suppresses duplicate ACQUIREs for a destination.
	AcquireWindow time.Duration

	// Stats counts Key Engine events.
	Stats Stats
}

// Stats counts Key Engine events.
type Stats struct {
	Adds        stat.Counter
	Deletes     stat.Counter
	Lookups     stat.Counter
	Misses      stat.Counter
	Acquires    stat.Counter
	SoftExpires stat.Counter
	HardExpires stat.Counter
}

type saKey struct {
	spi   uint32
	dst   inet.IP6
	proto SecProto
}

type dstKey struct {
	dst   inet.IP6
	proto SecProto
}

type acqKey struct {
	dst   inet.IP6
	proto SecProto
}

// NewEngine returns an empty Key Engine.
func NewEngine() *Engine {
	e := &Engine{
		sas:           make(map[saKey]*SA),
		spi:           make(map[saKey]*SA),
		byDst:         make(map[dstKey][]*SA),
		acq:           make(map[acqKey]time.Time),
		delSet:        make(map[saKey]struct{}),
		Now:           time.Now,
		AcquireWindow: 10 * time.Second,
	}
	return e
}

// Gen returns the table generation.  Any structural change — add,
// update, delete, flush, hard expiry — bumps it, implicitly dropping
// every Cache in the stack on its next validity compare.
func (e *Engine) Gen() uint64 { return e.gen.Load() }

// indexAddLocked inserts sa into the inbound and outbound indexes.
// Caller holds e.mu exclusive.
func (e *Engine) indexAddLocked(k saKey, sa *SA) {
	e.spi[k] = sa
	dk := dstKey{k.dst, k.proto}
	e.byDst[dk] = append(e.byDst[dk], sa)
	if sa.Proto == ProtoESPTunnel && sa.SelPlen > 0 {
		e.sel = append(e.sel, sa)
	}
}

// indexDelLocked removes the association stored under k from the
// inbound and outbound indexes; an inbound entry already replaced by
// a successor stays.  Caller holds e.mu exclusive.
func (e *Engine) indexDelLocked(k saKey, sa *SA) {
	if e.spi[k] == sa {
		delete(e.spi, k)
	}
	dk := dstKey{k.dst, k.proto}
	l := e.byDst[dk]
	for i, x := range l {
		if x == sa {
			e.byDst[dk] = append(l[:i], l[i+1:]...)
			break
		}
	}
	if len(e.byDst[dk]) == 0 {
		delete(e.byDst, dk)
	}
	if sa.Proto == ProtoESPTunnel && sa.SelPlen > 0 {
		for i, x := range e.sel {
			if x == sa {
				e.sel = append(e.sel[:i], e.sel[i+1:]...)
				break
			}
		}
	}
}

// recordDeletedLocked remembers k in the bounded recently-deleted
// ring.  Caller holds e.mu exclusive.
func (e *Engine) recordDeletedLocked(k saKey) {
	if e.delLen == staleRingSize {
		delete(e.delSet, e.delRing[e.delPos])
	} else {
		e.delLen++
	}
	e.delRing[e.delPos] = k
	e.delPos = (e.delPos + 1) % staleRingSize
	e.delSet[k] = struct{}{}
}

// Add installs an association. An existing (SPI, dst, proto) entry is
// an error; use Update to replace keys.  Add allocates the inbound
// replay window and stamps AddedAt from the engine clock.
func (e *Engine) Add(sa *SA) error {
	if sa.SPI == 0 {
		return errors.New("key: SPI 0 is reserved")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	k := saKey{sa.SPI, sa.Dst, sa.Proto}
	if _, ok := e.sas[k]; ok {
		return ErrExists
	}
	if sa.AddedAt.IsZero() {
		sa.AddedAt = e.Now()
	}
	if sa.Replay == nil {
		sa.Replay = &Replay{}
	}
	e.sas[k] = sa
	e.indexAddLocked(k, sa)
	e.gen.Add(1)
	e.Stats.Adds.Inc()
	delete(e.acq, acqKey{sa.Dst, sa.Proto}) // acquire satisfied
	e.notifyLocked(Message{Type: MsgAdd, SA: sa})
	return nil
}

// Update replaces an existing association's keys/lifetimes.  The new
// association object supersedes the old everywhere at once: the
// generation bump drops any cached pointer to the old one.
func (e *Engine) Update(sa *SA) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	k := saKey{sa.SPI, sa.Dst, sa.Proto}
	old, ok := e.sas[k]
	if !ok {
		return ErrNoAssoc
	}
	if sa.AddedAt.IsZero() {
		sa.AddedAt = e.Now()
	}
	// SADB_UPDATE of a live association is a rekey in place: sequence
	// state must survive the swap.  A sender restarting at 1 would
	// re-use nonces, and a receiver with an emptied window would first
	// slide to a still-in-flight old sequence number and then reject
	// the sender's fresh low ones as replays — poisoning the stream it
	// was meant to protect.
	atomic.StoreUint64(&sa.SeqOut, atomic.LoadUint64(&old.SeqOut))
	if sa.Replay == nil {
		sa.Replay = old.Replay
	}
	if sa.Replay == nil {
		sa.Replay = &Replay{}
	}
	// Traffic accounting continues across the update: it describes the
	// association, not the SA object carrying it.
	for _, c := range [][2]*uint64{
		{&sa.InPkts, &old.InPkts}, {&sa.InBytes, &old.InBytes},
		{&sa.OutPkts, &old.OutPkts}, {&sa.OutBytes, &old.OutBytes},
		{&sa.ReplayDrops, &old.ReplayDrops},
	} {
		atomic.AddUint64(c[0], atomic.LoadUint64(c[1]))
	}
	e.sas[k] = sa
	e.indexAddLocked(k, sa)
	e.indexDelLocked(k, old)
	e.gen.Add(1)
	e.notifyLocked(Message{Type: MsgUpdate, SA: sa})
	return nil
}

// Delete removes an association.
func (e *Engine) Delete(spi uint32, dst inet.IP6, proto SecProto) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	k := saKey{spi, dst, proto}
	sa, ok := e.sas[k]
	if !ok {
		return ErrNoAssoc
	}
	delete(e.sas, k)
	e.indexDelLocked(k, sa)
	e.recordDeletedLocked(k)
	e.gen.Add(1)
	e.Stats.Deletes.Inc()
	e.notifyLocked(Message{Type: MsgDelete, SA: sa})
	return nil
}

// Flush removes every association.
func (e *Engine) Flush() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for k := range e.sas {
		e.recordDeletedLocked(k)
	}
	e.sas = make(map[saKey]*SA)
	e.byDst = make(map[dstKey][]*SA)
	e.spi = make(map[saKey]*SA)
	e.sel = nil
	e.gen.Add(1)
	e.notifyLocked(Message{Type: MsgFlush})
}

// Dump returns a snapshot of all associations.
func (e *Engine) Dump() []*SA {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]*SA, 0, len(e.sas))
	for _, sa := range e.sas {
		out = append(out, sa)
	}
	return out
}

// expired reports hard expiry (association unusable) on the engine
// clock.
func (e *Engine) expired(sa *SA, now time.Time) bool {
	return sa.HardLife != 0 && now.After(sa.AddedAt.Add(sa.HardLife))
}

// SPIResult classifies an inbound SPI lookup.
type SPIResult int

// Inbound lookup outcomes: a live association, an SPI this engine
// never knew, one past its hard lifetime but not yet reaped, and one
// recently deleted (the typed "stale SA" miss a rekey race produces).
const (
	SPIHit SPIResult = iota
	SPIMiss
	SPIExpired
	SPIStale
)

// String names the outcome for drop attribution.
func (r SPIResult) String() string {
	switch r {
	case SPIHit:
		return "hit"
	case SPIMiss:
		return "miss"
	case SPIExpired:
		return "expired"
	case SPIStale:
		return "stale"
	}
	return "spi?"
}

// LookupSPI is the datapath form of getassocbyspi (§3.4): it resolves
// an inbound packet's cleartext SPI against the inbound index — one
// read lock, no allocation — and classifies misses against the
// recently-deleted ring under the same lock, so the caller can charge
// a typed drop reason.
func (e *Engine) LookupSPI(spi uint32, dst inet.IP6, proto SecProto) (*SA, SPIResult) {
	e.Stats.Lookups.Inc()
	k := saKey{spi, dst, proto}
	e.mu.RLock()
	sa := e.spi[k]
	stale := false
	if sa == nil {
		_, stale = e.delSet[k]
	}
	e.mu.RUnlock()
	if sa == nil {
		e.Stats.Misses.Inc()
		if stale {
			return nil, SPIStale
		}
		return nil, SPIMiss
	}
	if e.expired(sa, e.Now()) {
		e.Stats.Misses.Inc()
		return nil, SPIExpired
	}
	atomic.AddUint64(&sa.UseCount, 1)
	return sa, SPIHit
}

// GetBySPI is getassocbyspi (§3.4): locate the association for an
// inbound packet from the SPI in its cleartext header.
func (e *Engine) GetBySPI(spi uint32, dst inet.IP6, proto SecProto) (*SA, bool) {
	sa, res := e.LookupSPI(spi, dst, proto)
	return sa, res == SPIHit
}

// GetBySocket is getassocbysocket (§3.3): locate an outbound
// association for (src, dst, service). When wantUnique is set (level
// 3) only an association bound to socket qualifies; otherwise shared
// (host-oriented) associations are used, preferring a socket-bound one
// if present.  With no association, an ACQUIRE is sent to registered
// key management and ErrAcquireDelayed returned; with no key
// management at all, ErrNoAssoc (which surfaces to the user as
// EIPSEC).
func (e *Engine) GetBySocket(src, dst inet.IP6, proto SecProto, socket any, wantUnique bool) (*SA, error) {
	// Hit path under the shared lock; the miss path (which mutates
	// acquire state) retakes the lock exclusive.
	e.mu.RLock()
	e.Stats.Lookups.Inc()
	if sa := e.scanLocked(src, dst, proto, socket, wantUnique); sa != nil {
		atomic.AddUint64(&sa.UseCount, 1)
		e.mu.RUnlock()
		return sa, nil
	}
	e.mu.RUnlock()

	e.mu.Lock()
	defer e.mu.Unlock()
	if sa := e.scanLocked(src, dst, proto, socket, wantUnique); sa != nil {
		atomic.AddUint64(&sa.UseCount, 1)
		return sa, nil
	}
	e.Stats.Misses.Inc()
	// No association: ask key management if anyone is listening.
	if e.anyRegisteredLocked() {
		now := e.Now()
		k := acqKey{dst, proto}
		if now.Sub(e.acq[k]) >= e.AcquireWindow {
			e.acq[k] = now
			e.Stats.Acquires.Inc()
			e.seq++
			e.notifyRegisteredLocked(Message{
				Type: MsgAcquire, Seq: e.seq,
				SA: &SA{Src: src, Dst: dst, Proto: proto, Unique: wantUnique, Socket: socket},
			})
		}
		return nil, ErrAcquireDelayed
	}
	return nil, ErrNoAssoc
}

// scanLocked finds the best matching live association; caller holds
// e.mu (shared or exclusive).  Candidates come from the
// exact-destination index plus the (small) selector list, so the cost
// scales with the destination's associations, not the table.
func (e *Engine) scanLocked(src, dst inet.IP6, proto SecProto, socket any, wantUnique bool) *SA {
	now := e.Now()
	var shared, bound *SA
	consider := func(sa *SA, selector bool) {
		if sa.Proto != proto || e.expired(sa, now) {
			return
		}
		// Direct match on the association's destination, or — for
		// gateway tunnels — on the destination selector prefix.
		if sa.Dst != dst {
			if !(selector && inet.MatchPrefix(dst, sa.SelDst, sa.SelPlen)) {
				return
			}
		}
		if !sa.Src.IsUnspecified() && !src.IsUnspecified() && sa.Src != src {
			return
		}
		if sa.Unique {
			if sa.Socket == socket && socket != nil && bound == nil {
				bound = sa
			}
			return
		}
		if shared == nil {
			shared = sa
		}
	}
	for _, sa := range e.byDst[dstKey{dst, proto}] {
		consider(sa, false)
	}
	if proto == ProtoESPTunnel {
		for _, sa := range e.sel {
			if sa.Dst != dst { // exact-dst selector SAs were already seen
				consider(sa, true)
			}
		}
	}
	pick := bound
	if pick == nil && !wantUnique {
		pick = shared
	}
	return pick
}

// CountBytes charges traffic against an association's lifetime.
func (e *Engine) CountBytes(sa *SA, n int) {
	atomic.AddUint64(&sa.ByteCount, uint64(n))
}

// SlowTimo expires associations on the engine clock: soft expiry
// notifies key management so a replacement can be negotiated before
// the hard cutoff removes the association.
func (e *Engine) SlowTimo() {
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.Now()
	for k, sa := range e.sas {
		if sa.HardLife != 0 && now.After(sa.AddedAt.Add(sa.HardLife)) {
			delete(e.sas, k)
			e.indexDelLocked(k, sa)
			e.recordDeletedLocked(k)
			e.gen.Add(1)
			e.Stats.HardExpires.Inc()
			e.notifyRegisteredLocked(Message{Type: MsgExpire, SA: sa, Hard: true})
			continue
		}
		if sa.SoftLife != 0 && !sa.softSent && now.After(sa.AddedAt.Add(sa.SoftLife)) {
			sa.softSent = true
			e.Stats.SoftExpires.Inc()
			e.notifyRegisteredLocked(Message{Type: MsgExpire, SA: sa, Hard: false})
		}
	}
}

//
// PF_KEY socket.
//

// MsgType enumerates PF_KEY message types.
type MsgType int

// PF_KEY message types, named after their SADB_* constants.
const (
	MsgAdd MsgType = iota + 1
	MsgUpdate
	MsgDelete
	MsgGet
	MsgAcquire  // kernel -> daemon: need an association
	MsgRegister // daemon -> kernel: I manage keys
	MsgExpire   // kernel -> daemon: association (soft/hard) expired
	MsgFlush
	MsgDump
)

// String names the message type as PF_KEY's SADB_* constant.
func (t MsgType) String() string {
	switch t {
	case MsgAdd:
		return "SADB_ADD"
	case MsgUpdate:
		return "SADB_UPDATE"
	case MsgDelete:
		return "SADB_DELETE"
	case MsgGet:
		return "SADB_GET"
	case MsgAcquire:
		return "SADB_ACQUIRE"
	case MsgRegister:
		return "SADB_REGISTER"
	case MsgExpire:
		return "SADB_EXPIRE"
	case MsgFlush:
		return "SADB_FLUSH"
	case MsgDump:
		return "SADB_DUMP"
	}
	return "SADB_?"
}

// Message is one PF_KEY message.
type Message struct {
	Type MsgType
	Seq  uint32
	SA   *SA
	Hard bool  // for MsgExpire
	Err  error // set on replies when the operation failed
	Dump []*SA // for MsgDump replies
}

// Socket is an open PF_KEY socket. Like the routing socket it carries
// both synchronous request/reply traffic and asynchronous
// notifications (ACQUIRE, EXPIRE).
type Socket struct {
	e          *Engine
	mu         sync.Mutex
	registered bool
	closed     bool
	// C delivers kernel-originated messages (acquires, expires, and
	// echoes of table changes).
	C chan Message
}

// Open creates a PF_KEY socket on the engine.
func (e *Engine) Open() *Socket {
	s := &Socket{e: e, C: make(chan Message, 64)}
	e.mu.Lock()
	e.socks = append(e.socks, s)
	e.mu.Unlock()
	return s
}

// Close detaches the socket.
func (s *Socket) Close() {
	s.e.mu.Lock()
	defer s.e.mu.Unlock()
	for i, x := range s.e.socks {
		if x == s {
			s.e.socks = append(s.e.socks[:i], s.e.socks[i+1:]...)
			break
		}
	}
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.C) // senders check closed under s.mu before sending
	}
	s.mu.Unlock()
}

// Register marks this socket as a key management endpoint: it will
// receive ACQUIRE and EXPIRE messages.
func (s *Socket) Register() {
	s.mu.Lock()
	s.registered = true
	s.mu.Unlock()
}

// Send submits a request message and returns the reply synchronously
// (PF_KEY write(2) followed by read(2) of the echo).
func (s *Socket) Send(m Message) Message {
	switch m.Type {
	case MsgAdd:
		return Message{Type: MsgAdd, SA: m.SA, Err: s.e.Add(m.SA)}
	case MsgUpdate:
		return Message{Type: MsgUpdate, SA: m.SA, Err: s.e.Update(m.SA)}
	case MsgDelete:
		if m.SA == nil {
			return Message{Type: MsgDelete, Err: ErrNoAssoc}
		}
		return Message{Type: MsgDelete, SA: m.SA, Err: s.e.Delete(m.SA.SPI, m.SA.Dst, m.SA.Proto)}
	case MsgGet:
		if m.SA == nil {
			return Message{Type: MsgGet, Err: ErrNoAssoc}
		}
		sa, ok := s.e.GetBySPI(m.SA.SPI, m.SA.Dst, m.SA.Proto)
		if !ok {
			return Message{Type: MsgGet, Err: ErrNoAssoc}
		}
		return Message{Type: MsgGet, SA: sa}
	case MsgRegister:
		s.Register()
		return Message{Type: MsgRegister}
	case MsgFlush:
		s.e.Flush()
		return Message{Type: MsgFlush}
	case MsgDump:
		return Message{Type: MsgDump, Dump: s.e.Dump()}
	}
	return Message{Type: m.Type, Err: fmt.Errorf("key: unsupported message %v", m.Type)}
}

// anyRegisteredLocked reports whether a key management daemon is
// listening. Caller holds e.mu.
func (e *Engine) anyRegisteredLocked() bool {
	for _, s := range e.socks {
		s.mu.Lock()
		r := s.registered && !s.closed
		s.mu.Unlock()
		if r {
			return true
		}
	}
	return false
}

// notifyLocked echoes table changes to every PF_KEY socket (as the
// routing socket echoes route changes). Caller holds e.mu.
func (e *Engine) notifyLocked(m Message) {
	for _, s := range e.socks {
		s.mu.Lock()
		if !s.closed {
			select {
			case s.C <- m:
			default:
			}
		}
		s.mu.Unlock()
	}
}

// notifyRegisteredLocked delivers to registered (daemon) sockets only.
func (e *Engine) notifyRegisteredLocked(m Message) {
	for _, s := range e.socks {
		s.mu.Lock()
		if s.registered && !s.closed {
			select {
			case s.C <- m:
			default:
			}
		}
		s.mu.Unlock()
	}
}
