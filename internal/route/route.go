// Package route implements the routing table layer above the radix tree.
//
// The NRL IPv6 work leans on the 4.4 BSD routing table for two things
// beyond forwarding:
//
//   - Path MTU discovery (§2.2): "Our implementation stores Path MTU
//     information in host routes.  Host routes are automatically created
//     for IP communications originating on the local machine."  The MTU
//     field on Entry is that storage, read by TCP (for the MSS), UDP and
//     ICMP, and written by ICMPv6 Packet Too Big processing.
//
//   - Neighbor Discovery (§4.3): "Our implementation uses host routes
//     for on-link neighbors and keeps link-layer information inside the
//     route, much as 4.4BSD implements ARP entries."  On-link prefixes
//     are cloning network routes; sending to an on-link destination
//     clones a host route whose Gateway is a link-layer address, and the
//     ND state machine lives in the route's LLInfo.  Unreachable
//     neighbors linger and are marked RTF_REJECT.
//
// A Table holds one radix tree per address family and emits
// routing-socket-style messages (RTM_*) to subscribers, the mechanism
// the paper compares PF_KEY to (§3.1, §6.2).
package route

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bsd6/internal/inet"
	"bsd6/internal/radix"
	"bsd6/internal/stat"
)

// Route flags, following 4.4 BSD's RTF_* values in spirit.
const (
	FlagUp       = 1 << iota // route usable
	FlagGateway              // destination reached via a gateway
	FlagHost                 // host route (full-length prefix)
	FlagCloning              // network route that clones host routes on use
	FlagLLInfo               // gateway is a link-layer address (ND/ARP entry)
	FlagReject               // negative entry: fail sends immediately
	FlagDynamic              // created dynamically (by cloning or redirect)
	FlagModified             // modified dynamically (e.g. by PMTU discovery)
	FlagLocal                // destination is one of our own addresses
	FlagStatic               // manually added
)

// FlagString renders route flags the way netstat -r would.
func FlagString(f int) string {
	s := ""
	for _, fl := range []struct {
		bit int
		ch  byte
	}{
		{FlagUp, 'U'}, {FlagGateway, 'G'}, {FlagHost, 'H'}, {FlagCloning, 'C'},
		{FlagLLInfo, 'L'}, {FlagReject, 'R'}, {FlagDynamic, 'D'},
		{FlagModified, 'M'}, {FlagLocal, 'l'}, {FlagStatic, 'S'},
	} {
		if f&fl.bit != 0 {
			s += string(fl.ch)
		}
	}
	return s
}

// Entry is a routing table entry (BSD's struct rtentry).
type Entry struct {
	Family inet.Family
	Dst    []byte // destination address bytes (4 or 16)
	Plen   int    // prefix length in bits
	// Gateway is the next hop: an inet.IP4 / inet.IP6 for indirect
	// routes, or an inet.LinkAddr for link-layer (ND/ARP) host routes.
	Gateway any
	Flags   int
	IfName  string // outgoing interface

	// MTU is the path MTU for this destination; 0 means "use the
	// interface MTU". Updated by ICMPv6 Packet Too Big (§2.2).
	MTU int

	// Expire, if nonzero, is when the entry should be discarded or
	// (for neighbor entries) re-verified.
	Expire time.Time

	// LLInfo carries protocol-private state: the ND reachability
	// machine for neighbor host routes.  When the neighbor-cache cap
	// evicts an entry, its LLInfo is consulted through the NeighborPin
	// and NeighborRelease interfaces.
	LLInfo any

	// Use counts packets routed via this entry. Updated atomically:
	// cached-route sends (Cache) charge it without the table lock.
	Use uint64

	// lastUse is the LRU recency stamp (a table use-tick, not a
	// time), written atomically on every lookup or cache hit so the
	// neighbor-cache eviction can pick the least recently used entry
	// without touching the clock on the fast path.
	lastUse uint64

	// gwRoute holds an indirect route's gateway neighbor route (BSD's
	// rt_gwroute), filled and validated by GatewayRoute.
	gwRoute Cache
}

// NeighborPin is implemented by Entry.LLInfo values that can veto
// neighbor-cache eviction.  ND pins entries for routers learned via
// Router Discovery (§4.3), so a neighbor-cache flood can never evict
// the default router out from under the host.
type NeighborPin interface {
	// EvictPinned reports whether the entry must never be evicted.
	EvictPinned() bool
}

// NeighborRelease is implemented by Entry.LLInfo values holding
// resources — ND queues packets awaiting resolution — that must be
// freed when the neighbor-cache cap evicts the entry.
type NeighborRelease interface {
	// ReleaseOnEvict frees the LLInfo's held resources.
	ReleaseOnEvict()
}

// Host reports whether e is a host (full-prefix) route.
func (e *Entry) Host() bool { return e.Flags&FlagHost != 0 }

func (e *Entry) dstString() string {
	switch e.Family {
	case inet.AFInet:
		var a inet.IP4
		copy(a[:], e.Dst)
		if e.Host() {
			return a.String()
		}
		return fmt.Sprintf("%s/%d", a.String(), e.Plen)
	case inet.AFInet6:
		var a inet.IP6
		copy(a[:], e.Dst)
		if e.Host() {
			return a.String()
		}
		return fmt.Sprintf("%s/%d", a.String(), e.Plen)
	}
	return fmt.Sprintf("%x/%d", e.Dst, e.Plen)
}

// String formats the entry as one netstat -r row: destination,
// gateway, flags and interface.
func (e *Entry) String() string {
	gw := ""
	switch g := e.Gateway.(type) {
	case inet.IP4:
		gw = g.String()
	case inet.IP6:
		gw = g.String()
	case inet.LinkAddr:
		gw = g.String()
	case nil:
		gw = "-"
	default:
		gw = fmt.Sprint(g)
	}
	return fmt.Sprintf("%-28s %-20s %-8s %s", e.dstString(), gw, FlagString(e.Flags), e.IfName)
}

// Message types for the routing message stream (BSD's RTM_*).
type MsgType int

const (
	MsgAdd     MsgType = iota + 1 // route added
	MsgDelete                     // route deleted
	MsgChange                     // route modified (gateway, MTU, flags)
	MsgMiss                       // lookup failed
	MsgResolve                    // host route cloned from a cloning route
)

// String returns the message type's BSD name, such as "RTM_ADD".
func (m MsgType) String() string {
	switch m {
	case MsgAdd:
		return "RTM_ADD"
	case MsgDelete:
		return "RTM_DELETE"
	case MsgChange:
		return "RTM_CHANGE"
	case MsgMiss:
		return "RTM_MISS"
	case MsgResolve:
		return "RTM_RESOLVE"
	}
	return fmt.Sprintf("RTM_%d", int(m))
}

// Message is one routing-socket message.
type Message struct {
	Type  MsgType
	Entry *Entry // nil for MsgMiss
	Dst   []byte // the address that missed, for MsgMiss
}

// Table is a dual-family routing table.
//
// Reads (Lookup, View, Walk) take the lock shared, so concurrent
// senders do not serialize on the radix walk; structural changes —
// Add, Delete, Change, clone-on-lookup, expiry — take it exclusive
// and bump the generation counter that validates cached routes.
type Table struct {
	mu   sync.RWMutex
	v4   *radix.Tree
	v6   *radix.Tree
	subs []chan Message
	gen  atomic.Uint64 // bumped on every structural change

	// Now is the clock; tests may replace it.
	Now func() time.Time

	// Drops receives a typed nd-cache-evicted event for each entry
	// the DefaultNDCacheMax cap evicts; nil disables recording.
	Drops *stat.Recorder

	// NbrEvictions counts cap-induced neighbor evictions.
	NbrEvictions stat.Counter

	nbr4, nbr6 int           // neighbor-entry counts, under mu
	useTick    atomic.Uint64 // LRU recency source for Entry.lastUse
}

// isNeighbor reports whether e is a dynamic neighbor (ND/ARP) host
// route — the entry class the neighbor-cache cap governs.  Static
// entries are operator state and never count against the cap.
func isNeighbor(e *Entry) bool {
	const nbr = FlagHost | FlagLLInfo | FlagDynamic
	return e.Flags&nbr == nbr && e.Flags&FlagStatic == 0
}

// nbrCount returns a pointer to the family's neighbor count; callers
// hold t.mu.
func (t *Table) nbrCount(f inet.Family) *int {
	if f == inet.AFInet {
		return &t.nbr4
	}
	return &t.nbr6
}

// NeighborCount returns the number of dynamic neighbor host routes in
// the family — the occupancy half of the nd-cache limit surface.
func (t *Table) NeighborCount(f inet.Family) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return *t.nbrCount(f)
}

// touch stamps e's LRU recency; called on every lookup and cache hit.
func (t *Table) touch(e *Entry) {
	atomic.StoreUint64(&e.lastUse, t.useTick.Add(1))
}

// evictNeighborLocked makes room for one new neighbor entry in family
// f when the cap is reached: it removes the best victim — an
// unreachable (RTF_REJECT) entry if any exists, else the least
// recently used — skipping pinned entries.  Called with t.mu held
// exclusively.  Returns false when every entry is pinned (the new
// entry is admitted over-cap rather than refusing to talk to a new
// neighbor).
func (t *Table) evictNeighborLocked(f inet.Family) bool {
	var victim *Entry
	victimReject := false
	t.tree(f).Walk(func(_ []byte, _ int, v any) bool {
		e := v.(*Entry)
		if !isNeighbor(e) {
			return true
		}
		if pin, ok := e.LLInfo.(NeighborPin); ok && pin.EvictPinned() {
			return true
		}
		rej := e.Flags&FlagReject != 0
		switch {
		case victim == nil,
			rej && !victimReject,
			rej == victimReject && atomic.LoadUint64(&e.lastUse) < atomic.LoadUint64(&victim.lastUse):
			victim, victimReject = e, rej
		}
		return true
	})
	if victim == nil {
		return false
	}
	t.tree(f).Delete(victim.Dst, victim.Plen)
	*t.nbrCount(f)--
	t.gen.Add(1)
	if rel, ok := victim.LLInfo.(NeighborRelease); ok {
		rel.ReleaseOnEvict()
	}
	t.NbrEvictions.Inc()
	t.Drops.DropNote(stat.RNbrCacheEvicted, victim.dstString())
	t.notify(Message{Type: MsgDelete, Entry: victim})
	return true
}

// admitNeighborLocked applies the cap ahead of inserting a new
// neighbor entry and charges the family count.  t.mu held.
func (t *Table) admitNeighborLocked(f inet.Family) {
	n := t.nbrCount(f)
	for *n >= DefaultNDCacheMax {
		if !t.evictNeighborLocked(f) {
			break // all pinned: admit over-cap
		}
	}
	*n++
}

// DefaultNDCacheMax bounds the dynamic neighbor (link-layer) host
// routes kept per address family — BSD's ARP/ND cache, which a remote
// peer can grow one entry per spoofed on-link source.  When a new
// neighbor entry would exceed it, an existing one is evicted:
// unreachable (RTF_REJECT) entries first, then the least recently
// used; entries whose LLInfo is pinned (NeighborPin — default
// routers) are never evicted, so the cap can be exceeded by the
// number of routers but by nothing else.
const DefaultNDCacheMax = 512

// NewTable returns an empty routing table.
func NewTable() *Table {
	return &Table{v4: radix.New(4), v6: radix.New(16), Now: time.Now}
}

func (t *Table) tree(f inet.Family) *radix.Tree {
	if f == inet.AFInet {
		return t.v4
	}
	return t.v6
}

// Subscribe registers a routing message channel. Messages are sent
// non-blocking: a full subscriber misses messages rather than stalling
// the stack (as a full routing socket buffer drops messages in BSD).
func (t *Table) Subscribe(buf int) chan Message {
	ch := make(chan Message, buf)
	t.mu.Lock()
	t.subs = append(t.subs, ch)
	t.mu.Unlock()
	return ch
}

// Unsubscribe removes a channel registered with Subscribe.
func (t *Table) Unsubscribe(ch chan Message) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, c := range t.subs {
		if c == ch {
			t.subs = append(t.subs[:i], t.subs[i+1:]...)
			return
		}
	}
}

// notify must be called with t.mu held.
func (t *Table) notify(m Message) {
	for _, ch := range t.subs {
		select {
		case ch <- m:
		default:
		}
	}
}

func keyBytes(f inet.Family, dst []byte) []byte {
	want := 4
	if f == inet.AFInet6 {
		want = 16
	}
	if len(dst) != want {
		panic(fmt.Sprintf("route: family %v with %d-byte destination", f, len(dst)))
	}
	return dst
}

// Add inserts a route. An existing route for the same prefix is
// replaced.
func (t *Table) Add(e *Entry) *Entry {
	keyBytes(e.Family, e.Dst)
	if e.Plen == len(e.Dst)*8 {
		e.Flags |= FlagHost
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if old, ok := t.tree(e.Family).LookupExact(e.Dst, e.Plen); ok {
		oe := old.(*Entry)
		if isNeighbor(oe) {
			*t.nbrCount(e.Family)-- // replaced below
		}
		// The replaced entry leaves the table for good: anything its
		// LLInfo holds (packets queued awaiting resolution) would be
		// orphaned — no timer or walk will ever see the entry again.
		if oe != e {
			if rel, ok := oe.LLInfo.(NeighborRelease); ok {
				rel.ReleaseOnEvict()
			}
		}
	}
	if isNeighbor(e) {
		t.admitNeighborLocked(e.Family)
	}
	t.touch(e)
	t.tree(e.Family).Insert(e.Dst, e.Plen, e)
	t.gen.Add(1)
	t.notify(Message{Type: MsgAdd, Entry: e})
	return e
}

// Delete removes the route for exactly dst/plen.
func (t *Table) Delete(f inet.Family, dst []byte, plen int) (*Entry, bool) {
	keyBytes(f, dst)
	t.mu.Lock()
	defer t.mu.Unlock()
	v, ok := t.tree(f).Delete(dst, plen)
	if !ok {
		return nil, false
	}
	e := v.(*Entry)
	if isNeighbor(e) {
		*t.nbrCount(f)--
	}
	t.gen.Add(1)
	t.notify(Message{Type: MsgDelete, Entry: e})
	return e, true
}

// Get returns the route for exactly dst/plen.
func (t *Table) Get(f inet.Family, dst []byte, plen int) (*Entry, bool) {
	keyBytes(f, dst)
	t.mu.RLock()
	defer t.mu.RUnlock()
	v, ok := t.tree(f).LookupExact(dst, plen)
	if !ok {
		return nil, false
	}
	return v.(*Entry), true
}

// Lookup finds the most specific usable route to dst, performing BSD's
// rtalloc cloning: a match on an RTF_CLONING network route creates and
// returns a host route for dst (this is how on-link IPv6 prefixes spawn
// the neighbor host routes that ND then fills in, and how host routes
// "automatically created for IP communications originating on the
// local machine" come to exist for PMTU storage).
func (t *Table) Lookup(f inet.Family, dst []byte) (*Entry, bool) {
	keyBytes(f, dst)
	// Fast path, shared lock: the common steady-state lookup finds a
	// live non-cloning entry and only has to charge its Use counter.
	t.mu.RLock()
	if v, ok := t.tree(f).Lookup(dst); ok {
		e := v.(*Entry)
		if e.Flags&FlagCloning == 0 &&
			(e.Expire.IsZero() || e.Flags&FlagLLInfo != 0 || !t.Now().After(e.Expire)) {
			atomic.AddUint64(&e.Use, 1)
			t.touch(e)
			t.mu.RUnlock()
			return e, true
		}
	}
	t.mu.RUnlock()
	// Slow path, exclusive lock: miss notification, expiry, cloning.
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lookupLocked(f, dst)
}

func (t *Table) lookupLocked(f inet.Family, dst []byte) (*Entry, bool) {
	v, ok := t.tree(f).Lookup(dst)
	if !ok {
		t.notify(Message{Type: MsgMiss, Dst: append([]byte(nil), dst...)})
		return nil, false
	}
	e := v.(*Entry)
	if !e.Expire.IsZero() && e.Flags&FlagLLInfo == 0 && t.Now().After(e.Expire) {
		// Expired non-neighbor dynamic route: drop and retry.
		// (Neighbor routes expire under ND's control, not here.)
		t.tree(f).Delete(e.Dst, e.Plen)
		t.gen.Add(1)
		t.notify(Message{Type: MsgDelete, Entry: e})
		return t.lookupLocked(f, dst)
	}
	if e.Flags&FlagCloning != 0 {
		clone := &Entry{
			Family:  f,
			Dst:     append([]byte(nil), dst...),
			Plen:    len(dst) * 8,
			Gateway: e.Gateway,
			Flags:   FlagUp | FlagHost | FlagDynamic | (e.Flags & FlagLLInfo),
			IfName:  e.IfName,
			MTU:     e.MTU,
		}
		if isNeighbor(clone) {
			t.admitNeighborLocked(f)
		}
		t.tree(f).Insert(clone.Dst, clone.Plen, clone)
		t.gen.Add(1)
		t.notify(Message{Type: MsgResolve, Entry: clone})
		e = clone
	}
	atomic.AddUint64(&e.Use, 1)
	t.touch(e)
	return e, true
}

// Change updates an existing route in place under the table lock and
// emits RTM_CHANGE. The update function must not call back into the
// table.
func (t *Table) Change(e *Entry, update func(*Entry)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	update(e)
	e.Flags |= FlagModified
	t.gen.Add(1)
	t.notify(Message{Type: MsgChange, Entry: e})
}

// Mutate runs fn with the table lock held.  Entry fields that change
// after insertion — Gateway, Flags, Expire, MTU, LLInfo — are guarded
// by this lock; protocol code (ARP, ND, PMTU) must read and write them
// inside Mutate/View.  fn must not call other Table methods.
func (t *Table) Mutate(fn func()) {
	t.mu.Lock()
	defer t.mu.Unlock()
	fn()
}

// View is Mutate's read-side counterpart: fn sees a consistent
// snapshot of entry fields, and concurrent Views do not serialize.
func (t *Table) View(fn func()) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	fn()
}

// Walk visits every route of the family in key order.
func (t *Table) Walk(f inet.Family, fn func(*Entry) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.tree(f).Walk(func(_ []byte, _ int, v any) bool {
		return fn(v.(*Entry))
	})
}

// Len returns the number of routes in the given family.
func (t *Table) Len(f inet.Family) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.tree(f).Len()
}

// GatewayRoute returns the neighbor route for gw, the gateway of the
// indirect route rt — BSD's rt_gwroute, held on rt itself so a
// forwarded or locally sent packet does not walk the radix tree for
// its next hop.  The held entry is used only while the table
// generation and the gateway address are both unchanged; otherwise
// this is Lookup(gw), and the result is held again.  gw is the
// gateway address the caller read from rt under the table lock.
func (t *Table) GatewayRoute(rt *Entry, gw []byte) (*Entry, bool) {
	return t.LookupCached(rt.Family, gw, &rt.gwRoute)
}

// HeldGatewayRoute is GatewayRoute's hit path alone: the neighbor
// route rt holds for its gateway gw when it is still current, else
// nil.  It takes no lock, so a send may call it inside View and read
// the held route's link-layer state in the same shared read; on nil
// it calls GatewayRoute after the View.
func (t *Table) HeldGatewayRoute(rt *Entry, gw []byte) *Entry {
	e, _ := rt.gwRoute.get(t, rt.Family, gw)
	return e
}

// Gen returns the table's structural generation. It changes whenever a
// route is added, deleted, changed, cloned, or expired, so a cached
// (entry, gen) pair is valid exactly while Gen is unchanged.
func (t *Table) Gen() uint64 { return t.gen.Load() }

// Dump renders the table like netstat -r.
func (t *Table) Dump(f inet.Family) string {
	out := fmt.Sprintf("%-28s %-20s %-8s %s\n", "Destination", "Gateway", "Flags", "Netif")
	t.Walk(f, func(e *Entry) bool {
		out += e.String() + "\n"
		return true
	})
	return out
}
