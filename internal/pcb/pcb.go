// Package pcb implements the modified Protocol Control Blocks of §5.1.
//
// TCP and UDP are shared between IPv4 and IPv6, so the PCB "was
// modified to support both IPv4 and IPv6 addresses and to denote which
// addresses are actually in use".  Where the C implementation devised
// unions with #defines that silently dereference the right member
// (paper Figure 4), this implementation stores every address as an
// IP6, using IPv4-mapped form for IPv4 peers — exactly the
// transition-specification trick the paper leans on: "allocating a
// portion of the IPv6 address space for use as 'IPv4-mapped'
// addresses" makes one PCB serve both protocols.  A flag bit records
// whether the session is sending IPv6 datagrams; if it is not set,
// IPv4 is in use.
//
// Demultiplexing no longer walks BSD's linear tcb/udb list.  Like
// BSD's per-protocol list under splnet, the table keeps everything
// under one lock; it is the hashes, not any partitioning, that make
// the demux O(1):
//
//   - an exact-match map over the 4-tuple holding every PCB with a
//     fixed foreign endpoint, so the established-connection lookup that
//     runs once per received segment is a single map probe;
//   - a port map whose per-port entry carries the wildcard (listener)
//     chain plus local-address occupancy counts, making the Bind
//     conflict scan and the ephemeral-port allocator O(1) per
//     candidate instead of O(pcbs);
//   - the flat registry of all PCBs, for Notify, All and Len.
//
// Lookup takes the read lock, so UDP input and GRO may demux from the
// netisr while the owning protocol attaches and binds; every mutation
// takes the write lock.
package pcb

import (
	"errors"
	"sync"

	"bsd6/internal/inet"
	"bsd6/internal/ipv4"
	"bsd6/internal/ipv6"
	"bsd6/internal/key"
	"bsd6/internal/route"
)

// PCB flag bits.
const (
	// FlagIPv6 is "a bit in the session's PCB's flags ... indicating"
	// that the session sends IPv6 datagrams (§5.1).
	FlagIPv6 = 1 << iota
	// FlagV6Only restricts a PF_INET6 socket to IPv6 traffic
	// (suppresses the §5.2 v4-datagram-to-v6-socket delivery).
	FlagV6Only
)

// PCB is one protocol control block.
type PCB struct {
	// Family is the socket's protocol family: AFInet for PF_INET
	// sockets, AFInet6 for PF_INET6 sockets (which "can be used to
	// send and receive either IPv4 or IPv6 traffic", §5.1).
	Family inet.Family

	// LAddr/FAddr are the local and foreign addresses in the unified
	// representation (v4-mapped for IPv4). Unspecified means wildcard.
	// They are owned by the table: mutate them only through
	// Bind/Connect/Disconnect/SetTuple so the demux indexes follow.
	LAddr, FAddr inet.IP6
	LPort, FPort uint16

	Flags int
	// FlowInfo is the IPv6 flow identifier for this session (§5.1:
	// "we intend to enhance these functions to fully support the IPv6
	// Flow Identifier field").
	FlowInfo uint32
	// HopLimit overrides the layer default when nonzero.
	HopLimit uint8

	// Socket is the back pointer to the owning socket — the NRL
	// addition that lets the security output policy see the socket
	// from deep in the output path (§3.3).
	Socket any

	// Route is the session's held route (BSD's inp_route): output
	// revalidates it with one generation compare instead of walking
	// the radix tree per packet.
	Route route.Cache

	// Sec is the session's held security verdict (same discipline as
	// Route, against the Key Engine's generation): the security output
	// policy revalidates it with one compare instead of resolving
	// policy and scanning the SA table per packet.
	Sec key.Cache

	// Owner is protocol-private state (the tcpcb for TCP sessions).
	Owner any

	table *Table
	// localChosen records that SelectLocal, not Bind, set LAddr, so a
	// later connect to another peer selects again.
	localChosen bool
	// idx snapshots the tuple under which this PCB is currently filed
	// in the demux, so a mutation can unhook the old chains without
	// trusting the already-rewritten public fields.
	idx     tuple
	indexed bool
}

// IsIPv6 reports whether the session sends IPv6 datagrams.
func (p *PCB) IsIPv6() bool { return p.Flags&FlagIPv6 != 0 }

// Errors.
var (
	ErrAddrInUse      = errors.New("pcb: address already in use")
	ErrNoPorts        = errors.New("pcb: out of ephemeral ports")
	ErrNotBound       = errors.New("pcb: not bound")
	ErrFamilyMismatch = errors.New("pcb: address family mismatch for socket")
)

// tuple is the demux key: the full 4-tuple in unified (v4-mapped)
// address form.
type tuple struct {
	laddr, faddr inet.IP6
	lport, fport uint16
}

// connected reports whether the tuple names a fixed foreign endpoint,
// the class filed in the exact-match hash.  A PCB with both foreign
// fields wildcard is a listener and lives on its port's wildcard chain
// instead.
func (k tuple) connected() bool { return !k.faddr.IsUnspecified() || k.fport != 0 }

// portEntry is the per-local-port demux record.
type portEntry struct {
	// wild chains the listeners: PCBs with both foreign fields
	// wildcard, the only class the slow scoring scan must visit.
	wild []*PCB
	// connNoF chains the degenerate connected class (foreign port set,
	// foreign address wildcard); it matches like a connected PCB but
	// still occupies the port for Bind-conflict purposes.
	connNoF []*PCB
	// byLAddr counts every PCB on the port by local address, the O(1)
	// occupancy probe behind the ephemeral allocator.
	byLAddr map[inet.IP6]int
	total   int
}

// Table is a per-protocol PCB table (BSD's udb / tcb).  A chain in
// conns holds more than one PCB only when distinct sockets share an
// entire 4-tuple across address families (legal: Bind lets connected
// sockets share a local port).
type Table struct {
	mu        sync.RWMutex
	pcbs      map[*PCB]struct{}
	conns     map[tuple][]*PCB
	ports     map[uint16]*portEntry
	nextEphem uint16
}

// Ephemeral port range (BSD's traditional 1024..5000).
const (
	ephemFirst = 1024
	ephemLast  = 5000
)

// NewTable creates an empty PCB table.
func NewTable() *Table {
	return &Table{
		pcbs:      make(map[*PCB]struct{}),
		conns:     make(map[tuple][]*PCB),
		ports:     make(map[uint16]*portEntry),
		nextEphem: ephemFirst,
	}
}

func removePCB(s []*PCB, p *PCB) []*PCB {
	for i, q := range s {
		if q == p {
			s[i] = s[len(s)-1]
			return s[:len(s)-1]
		}
	}
	return s
}

// indexLocked files the PCB under its current tuple. Caller holds t.mu.
func (t *Table) indexLocked(p *PCB) {
	if p.indexed {
		return
	}
	k := tuple{laddr: p.LAddr, faddr: p.FAddr, lport: p.LPort, fport: p.FPort}
	p.idx, p.indexed = k, true
	if k.connected() {
		t.conns[k] = append(t.conns[k], p)
	}
	e := t.ports[k.lport]
	if e == nil {
		e = &portEntry{byLAddr: make(map[inet.IP6]int)}
		t.ports[k.lport] = e
	}
	if !k.connected() {
		e.wild = append(e.wild, p)
	} else if k.faddr.IsUnspecified() {
		e.connNoF = append(e.connNoF, p)
	}
	e.byLAddr[k.laddr]++
	e.total++
}

// unindexLocked unhooks the PCB from the chains its idx snapshot names.
// Caller holds t.mu.
func (t *Table) unindexLocked(p *PCB) {
	if !p.indexed {
		return
	}
	k := p.idx
	p.indexed = false
	if k.connected() {
		if rest := removePCB(t.conns[k], p); len(rest) == 0 {
			delete(t.conns, k)
		} else {
			t.conns[k] = rest
		}
	}
	if e := t.ports[k.lport]; e != nil {
		if !k.connected() {
			e.wild = removePCB(e.wild, p)
		} else if k.faddr.IsUnspecified() {
			e.connNoF = removePCB(e.connNoF, p)
		}
		if e.byLAddr[k.laddr]--; e.byLAddr[k.laddr] == 0 {
			delete(e.byLAddr, k.laddr)
		}
		if e.total--; e.total == 0 {
			delete(t.ports, k.lport)
		}
	}
}

// Attach allocates a PCB in the table (in_pcballoc).
func (t *Table) Attach(family inet.Family, socket any) *PCB {
	p := &PCB{Family: family, Socket: socket, table: t}
	t.mu.Lock()
	t.pcbs[p] = struct{}{}
	t.indexLocked(p)
	t.mu.Unlock()
	return p
}

// Detach removes the PCB (in_pcbdetach).
func (t *Table) Detach(p *PCB) {
	t.mu.Lock()
	t.unindexLocked(p)
	delete(t.pcbs, p)
	t.mu.Unlock()
}

// Len returns the number of PCBs.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.pcbs)
}

// normalize validates an address against the socket family and maps it
// into the unified form. A PF_INET socket speaks raw IPv4 only; a
// PF_INET6 socket accepts native IPv6 or v4-mapped addresses.
func normalize(family inet.Family, addr inet.IP6) (inet.IP6, error) {
	if family == inet.AFInet && !addr.IsUnspecified() && !addr.IsV4Mapped() {
		return inet.IP6{}, ErrFamilyMismatch
	}
	return addr, nil
}

// Bind is in6_pcbbind: set the local address and port, allocating an
// ephemeral port for port 0 and checking conflicts.
func (t *Table) Bind(p *PCB, laddr inet.IP6, lport uint16) error {
	laddr, err := normalize(p.Family, laddr)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if lport == 0 {
		lport, err = t.ephemeralLocked(laddr)
		if err != nil {
			return err
		}
	} else if t.bindConflictLocked(p, laddr, lport) {
		return ErrAddrInUse
	}
	t.unindexLocked(p)
	p.LAddr = laddr
	p.LPort = lport
	t.indexLocked(p)
	return nil
}

// bindConflictLocked checks an explicit bind against the port's
// wildcard-foreign chains: a conflict needs an existing socket that
// could see the same traffic (address overlap) and has no fixed peer —
// distinct connected sockets may share a local port.
func (t *Table) bindConflictLocked(p *PCB, laddr inet.IP6, lport uint16) bool {
	e := t.ports[lport]
	if e == nil {
		return false
	}
	for _, chain := range [2][]*PCB{e.wild, e.connNoF} {
		for _, q := range chain {
			if q == p {
				continue
			}
			if q.LAddr.IsUnspecified() || laddr.IsUnspecified() || q.LAddr == laddr {
				return true
			}
		}
	}
	return false
}

// ephemeralLocked allocates an ephemeral port: the cursor walks the
// range and the port index answers each candidate's occupancy in O(1),
// replacing the historical rescan of every PCB per candidate.
func (t *Table) ephemeralLocked(laddr inet.IP6) (uint16, error) {
	for i := 0; i <= ephemLast-ephemFirst; i++ {
		port := t.nextEphem
		t.nextEphem++
		if t.nextEphem > ephemLast {
			t.nextEphem = ephemFirst
		}
		if t.portFreeLocked(port, laddr) {
			return port, nil
		}
	}
	return 0, ErrNoPorts
}

// portFreeLocked reports whether (laddr, port) collides with no
// existing binding: any occupant blocks a wildcard request, and a
// specific request is blocked by wildcard-bound or same-address
// occupants.
func (t *Table) portFreeLocked(port uint16, laddr inet.IP6) bool {
	e := t.ports[port]
	if e == nil {
		return true
	}
	if laddr.IsUnspecified() {
		return e.total == 0
	}
	return e.byLAddr[inet.IP6{}] == 0 && e.byLAddr[laddr] == 0
}

// Connect is in6_pcbconnect: fix the foreign address/port and set the
// IPv6-in-use flag from the address form (§5.1). The local port is
// bound if needed; the local address is left for the caller/IP layer
// to fill from source selection (SetTuple refiles it then).
func (t *Table) Connect(p *PCB, faddr inet.IP6, fport uint16) error {
	faddr, err := normalize(p.Family, faddr)
	if err != nil {
		return err
	}
	if faddr.IsV4Mapped() && p.Flags&FlagV6Only != 0 {
		return ErrFamilyMismatch
	}
	if p.LPort == 0 {
		if err := t.Bind(p, p.LAddr, 0); err != nil {
			return err
		}
	}
	t.mu.Lock()
	t.unindexLocked(p)
	p.FAddr = faddr
	p.FPort = fport
	if faddr.IsV4Mapped() {
		p.Flags &^= FlagIPv6
	} else {
		p.Flags |= FlagIPv6
	}
	t.indexLocked(p)
	t.mu.Unlock()
	return nil
}

// SelectLocal is in_pcbconnect's source selection: unless p is bound
// to a local address, it fixes the local address to LocalFor's choice
// toward p.FAddr and refiles the PCB.  TCP and UDP call it at connect
// time, so a connected session's datagrams and segments skip source
// selection and the demux files the PCB under its final tuple.
func (t *Table) SelectLocal(p *PCB, v4 *ipv4.Layer, v6 *ipv6.Layer) {
	if !p.LAddr.IsUnspecified() && !p.localChosen {
		return
	}
	p.localChosen = true
	t.SetTuple(p, LocalFor(v4, v6, p.FAddr), p.LPort, p.FAddr, p.FPort)
}

// LocalFor returns the local address, in unified form, that the IP
// layers select as the source toward faddr (a v4-mapped faddr gets a
// v4-mapped source).  A destination no configured address can reach
// is treated as local: it is its own source.
func LocalFor(v4 *ipv4.Layer, v6 *ipv6.Layer, faddr inet.IP6) inet.IP6 {
	if d4, ok := faddr.MappedV4(); ok {
		if s, found := v4.SourceFor(d4); found {
			return inet.V4Mapped(s)
		}
		return faddr
	}
	if s, found := v6.SourceFor(faddr, nil); found {
		return s
	}
	return faddr
}

// Disconnect clears the foreign association.
func (t *Table) Disconnect(p *PCB) {
	t.mu.Lock()
	t.unindexLocked(p)
	p.FAddr = inet.IP6{}
	p.FPort = 0
	t.indexLocked(p)
	t.mu.Unlock()
}

// SetTuple rewrites the PCB's whole 4-tuple and refiles it — the
// in_pcbconnect moment when a passive open fixes the child's addresses,
// or an active open fills the chosen source address. The caller owns
// family/flag consistency of the new tuple.
func (t *Table) SetTuple(p *PCB, laddr inet.IP6, lport uint16, faddr inet.IP6, fport uint16) {
	t.mu.Lock()
	t.unindexLocked(p)
	p.LAddr, p.LPort = laddr, lport
	p.FAddr, p.FPort = faddr, fport
	t.indexLocked(p)
	t.mu.Unlock()
}

// compatible applies the §5.2 family filter: v4 traffic is invisible to
// V6Only sockets, v6 traffic to PF_INET sockets.
func compatible(p *PCB, v4 bool) bool {
	if v4 {
		return p.Family != inet.AFInet6 || p.Flags&FlagV6Only == 0
	}
	return p.Family != inet.AFInet
}

// probeConnectedLocked is the exact-match probe: one map access, a
// chain that is almost always a single PCB.
func (t *Table) probeConnectedLocked(k tuple, v4 bool) *PCB {
	for _, p := range t.conns[k] {
		if compatible(p, v4) {
			return p
		}
	}
	return nil
}

// Lookup finds the PCB for a received packet (in_pcblookup with
// wildcard scoring): prefer exact foreign match, then bound-local,
// then full wildcard. v4 reports whether the packet arrived over IPv4;
// a PF_INET6 socket matches v4 traffic through its mapped form unless
// FlagV6Only is set (§5.2: "allows an application to receive both IPv4
// and IPv6 datagrams using an IPv6 socket").
//
// The scan became three ordered probes whose classes cannot outscore
// each other: the full-tuple bucket (score 3 in the old scoring), the
// wildcard-local-address bucket (score 2 — a connected socket that
// never fixed its source), and only then the port's listener chain
// (score ≤ 1), so an established connection never pays for the
// listeners sharing its port.
func (t *Table) Lookup(laddr inet.IP6, lport uint16, faddr inet.IP6, fport uint16, v4 bool) *PCB {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if p := t.probeConnectedLocked(tuple{laddr: laddr, faddr: faddr, lport: lport, fport: fport}, v4); p != nil {
		return p
	}
	if !laddr.IsUnspecified() {
		if p := t.probeConnectedLocked(tuple{faddr: faddr, lport: lport, fport: fport}, v4); p != nil {
			return p
		}
	}
	e := t.ports[lport]
	if e == nil {
		return nil
	}
	var best *PCB
	bestScore := -1
	for _, p := range e.wild {
		if !compatible(p, v4) {
			continue
		}
		score := 0
		if !p.LAddr.IsUnspecified() {
			if p.LAddr != laddr {
				continue
			}
			score = 1
		}
		if score > bestScore {
			best, bestScore = p, score
		}
	}
	return best
}

// Notify is in6_pcbnotify: apply fn to every PCB connected to faddr
// (or bound toward it), delivering ICMP-derived errors upward.  The
// caller performs the §5.1 security policy check before invoking this
// ("to determine whether a particular error can be passed upwards to
// the application or whether that would cause a security violation").
func (t *Table) Notify(faddr inet.IP6, fport uint16, fn func(*PCB)) {
	t.mu.RLock()
	var hit []*PCB
	for p := range t.pcbs {
		if p.FAddr == faddr && (fport == 0 || p.FPort == fport) {
			hit = append(hit, p)
		}
	}
	t.mu.RUnlock()
	for _, p := range hit {
		fn(p)
	}
}

// All returns a snapshot of the table, for netstat.
func (t *Table) All() []*PCB {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]*PCB, 0, len(t.pcbs))
	for p := range t.pcbs {
		out = append(out, p)
	}
	return out
}
