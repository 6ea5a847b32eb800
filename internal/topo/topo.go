// Package topo generates many-node simulated internets: line, star,
// ring, tree and random Waxman-style graphs of full core.Stack nodes
// (100–1000 of them) wired together over netif hubs, with every node
// of degree ≥ 2 acting as an IPv6 router forwarding between its links
// through the held-route fast path.
//
// The paper validated its stack between two hosts on one wire (§7);
// the behaviors that only emerge on multi-hop topologies — PMTU
// discovery across router chains, RA-driven autoconf cascades,
// routing around partitions — need a network.  A Network is that
// substrate: hubs become links, stacks become nodes, and a shared
// virtual clock (or the real one, for benchmarks) drives them all.
//
// Addressing is deterministic: link l owns the /64 prefix
// 2001:db8:<l+1>::/64 and node n's address on it is <prefix>::<n+1>.
// Routing is static: Build computes shortest paths (BFS, hop metric)
// and installs one gateway route per off-link prefix on every node,
// exactly the state a routing daemon would have converged to.  Churn
// helpers sever and heal individual links via hub partition, so
// partition/heal storms run against live traffic.
package topo

import (
	"fmt"
	"sync"
	"time"

	"bsd6/internal/core"
	"bsd6/internal/icmp6"
	"bsd6/internal/inet"
	"bsd6/internal/netif"
	"bsd6/internal/route"
	"bsd6/internal/vclock"
)

// Kind selects a topology generator.
type Kind int

// The generated graph families.
const (
	// Line is a chain: n0 — n1 — … — n(N-1).  Interior nodes route.
	Line Kind = iota
	// Ring closes the chain: every node has degree 2 and routes.
	Ring
	// Star attaches n1..n(N-1) to the hub node n0.
	Star
	// Tree is a complete Fanout-ary tree rooted at n0; interior
	// nodes route, leaves are hosts.
	Tree
	// Waxman scatters nodes on the unit square, connects a random
	// spanning tree (so the graph is always connected), then adds
	// extra edges with the Waxman probability α·e^(−d/(β·L)).
	Waxman
)

// String names the topology kind.
func (k Kind) String() string {
	switch k {
	case Line:
		return "line"
	case Ring:
		return "ring"
	case Star:
		return "star"
	case Tree:
		return "tree"
	case Waxman:
		return "waxman"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Waxman defaults: α scales overall edge density, β the tolerance for
// long edges (L is the unit square's diagonal).
const (
	DefaultAlpha = 0.15
	DefaultBeta  = 0.25
)

// Spec describes a topology to build.
type Spec struct {
	// Kind picks the generator; N is the node count (≥ 2).
	Kind Kind
	N    int
	// Fanout is the tree arity (Tree only; default 2).
	Fanout int
	// Alpha and Beta are the Waxman edge-probability parameters
	// (Waxman only; defaults DefaultAlpha / DefaultBeta).
	Alpha, Beta float64
	// Seed drives every random choice (Waxman geometry); the same
	// Spec always builds the same network.
	Seed int64
	// LinkMTU applies to every link (default 1500); LinkMTUFn, when
	// non-nil, overrides it per link ID (return ≤ 0 to keep LinkMTU)
	// — shrinking-MTU PMTU chains are one closure away.
	LinkMTU   int
	LinkMTUFn func(link int) int
	// Autoconf leaves host (degree-1) nodes unnumbered: their
	// adjacent routers advertise the link prefix, and the hosts
	// acquire addresses and default routes from RAs after
	// SolicitLeaves — the §4.2 cascade at topology scale.  Routers
	// are always statically numbered and routed.
	Autoconf bool
	// Stack is the Options template for every node (Clock is
	// overridden by Spec.Clock).
	Stack core.Options
	// Clock, when non-nil, runs the whole network on virtual time;
	// nil runs on the real clock (benchmarks).
	Clock *vclock.Virtual
}

// Link is one shared-medium segment connecting two nodes.
type Link struct {
	ID   int
	A, B int // node IDs of the endpoints
	Hub  *netif.Hub
	MTU  int
	// Prefix is the link's /64.
	Prefix inet.IP6
}

// Node is one stack in the network.
type Node struct {
	ID   int
	Name string // "n<ID>", also the node's admin name
	S    *core.Stack
	// Router reports whether the node forwards (degree ≥ 2).
	Router bool
	// Links lists the IDs of the links the node sits on; Ports and
	// Addrs index the node's interface and global address by link ID
	// (Autoconf hosts have no static Addrs entry).
	Links []int
	Ports map[int]*netif.Interface
	Addrs map[int]inet.IP6
}

// Addr returns the node's first global address (its address on the
// lowest-numbered link), or false for an unnumbered autoconf host
// that has not yet acquired one.
func (n *Node) Addr() (inet.IP6, bool) {
	for _, l := range n.Links {
		if a, ok := n.Addrs[l]; ok {
			return a, true
		}
	}
	return inet.IP6{}, false
}

// AutoAddr returns the node's first autoconfigured global address —
// the one an unnumbered Autoconf host formed from a Router
// Advertisement — or false while it has none (DAD still running, or
// no RA heard yet).
func (n *Node) AutoAddr() (inet.IP6, bool) {
	for _, l := range n.Links {
		for _, a := range n.Ports[l].Addrs6() {
			if a.Autoconf && !a.Tentative && !a.Addr.IsLinkLocal() {
				return a.Addr, true
			}
		}
	}
	return inet.IP6{}, false
}

// Network is a built topology: stacks wired over hubs, routed, ready
// for traffic.  Start launches the vclock driver (virtual-clock
// networks); Close stops everything.
type Network struct {
	Spec  Spec
	Clock *vclock.Virtual // nil when running on the real clock
	Nodes []*Node
	Links []*Link

	mu      sync.Mutex
	severed map[int]bool
	driver  *vclock.Driver
}

// raInterval keeps unsolicited RAs rare; autoconf cascades are driven
// by solicitation, not periodic chatter across hundreds of links.
const raInterval = 10 * time.Minute

// Build wires the Spec into a running network: generates the graph,
// boots one core.Stack per node, attaches and numbers every link,
// enables forwarding on routers, and installs the converged static
// routes.  The returned network is quiescent; call Start to launch
// the clock driver before running virtual-time traffic.
func Build(spec Spec) (*Network, error) {
	edges, err := generate(spec)
	if err != nil {
		return nil, err
	}
	if spec.LinkMTU == 0 {
		spec.LinkMTU = 1500
	}
	opts := spec.Stack
	if spec.Clock != nil {
		opts.Clock = spec.Clock
	}

	nw := &Network{Spec: spec, Clock: spec.Clock, severed: make(map[int]bool)}
	deg := make([]int, spec.N)
	for _, e := range edges {
		deg[e[0]]++
		deg[e[1]]++
	}
	nw.Nodes = make([]*Node, spec.N)
	for i := range nw.Nodes {
		n := &Node{
			ID: i, Name: fmt.Sprintf("n%d", i), Router: deg[i] >= 2,
			Ports: make(map[int]*netif.Interface),
			Addrs: make(map[int]inet.IP6),
		}
		n.S = core.NewStack(n.Name, opts)
		n.S.V6.Forwarding = n.Router
		nw.Nodes[i] = n
	}

	nw.Links = make([]*Link, len(edges))
	for l, e := range edges {
		hub := netif.NewHub()
		if spec.Clock != nil {
			hub.SetClock(spec.Clock)
		}
		mtu := spec.LinkMTU
		if spec.LinkMTUFn != nil {
			if m := spec.LinkMTUFn(l); m > 0 {
				mtu = m
			}
		}
		lk := &Link{ID: l, A: e[0], B: e[1], Hub: hub, MTU: mtu, Prefix: LinkPrefix(l)}
		nw.Links[l] = lk
		for _, id := range [2]int{lk.A, lk.B} {
			n := nw.Nodes[id]
			ifp := n.S.AttachLink(hub, macFor(l, id), mtu)
			n.Ports[l] = ifp
			n.Links = append(n.Links, l)
			if spec.Autoconf && !n.Router {
				continue // address and default route arrive via RA
			}
			a := NodeAddr(l, id)
			if err := n.S.ConfigureV6(ifp, a, 64); err != nil {
				nw.Close()
				return nil, fmt.Errorf("topo: configure %s on link %d: %w", n.Name, l, err)
			}
			n.Addrs[l] = a
		}
	}

	if spec.Autoconf {
		for _, lk := range nw.Links {
			nw.enableRA(lk, lk.A, lk.B)
			nw.enableRA(lk, lk.B, lk.A)
		}
	}
	nw.installRoutes()
	return nw, nil
}

// enableRA turns on Router Advertisements on r's port of lk when the
// far endpoint is an unnumbered autoconf host.
func (nw *Network) enableRA(lk *Link, r, peer int) {
	rn, pn := nw.Nodes[r], nw.Nodes[peer]
	if !rn.Router || pn.Router {
		return
	}
	rn.S.EnableRouter6(rn.Ports[lk.ID].Name, icmp6.RouterConfig{
		Interval: raInterval,
		Prefixes: []icmp6.PrefixInfo{{
			Prefix: lk.Prefix, Plen: 64, OnLink: true, Autonomous: true,
		}},
	})
}

// SolicitLeaves makes every unnumbered autoconf host send a Router
// Solicitation on each of its links — the kick that starts the RA
// cascade.  No-op on statically numbered networks.
func (nw *Network) SolicitLeaves() {
	if !nw.Spec.Autoconf {
		return
	}
	for _, n := range nw.Nodes {
		if n.Router {
			continue
		}
		for _, l := range n.Links {
			n.S.SolicitRouters(n.Ports[l].Name)
		}
	}
}

// installRoutes computes per-node shortest paths (BFS, hop metric)
// and installs a static gateway route for every off-link prefix —
// the state a converged routing daemon would have left behind.
// Autoconf hosts are skipped; they route via the RA default route.
func (nw *Network) installRoutes() {
	type hop struct{ peer, link int }
	adj := make([][]hop, len(nw.Nodes))
	for _, lk := range nw.Links {
		adj[lk.A] = append(adj[lk.A], hop{lk.B, lk.ID})
		adj[lk.B] = append(adj[lk.B], hop{lk.A, lk.ID})
	}
	dist := make([]int, len(nw.Nodes))
	firstLink := make([]int, len(nw.Nodes)) // first link on u's path to each node
	queue := make([]int, 0, len(nw.Nodes))
	for _, u := range nw.Nodes {
		if nw.Spec.Autoconf && !u.Router {
			continue
		}
		for i := range dist {
			dist[i], firstLink[i] = -1, -1
		}
		dist[u.ID] = 0
		queue = append(queue[:0], u.ID)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, h := range adj[v] {
				if dist[h.peer] != -1 {
					continue
				}
				dist[h.peer] = dist[v] + 1
				if v == u.ID {
					firstLink[h.peer] = h.link
				} else {
					firstLink[h.peer] = firstLink[v]
				}
				queue = append(queue, h.peer)
			}
		}
		for _, lk := range nw.Links {
			if lk.A == u.ID || lk.B == u.ID {
				continue // on-link: ConfigureV6 installed the cloning route
			}
			// Route toward the endpoint nearer to u; its first hop
			// is always an interior (router) node, so the gateway
			// address exists even under Autoconf.
			t := lk.A
			if dist[lk.B] != -1 && (dist[lk.A] == -1 || dist[lk.B] < dist[lk.A]) {
				t = lk.B
			}
			if dist[t] == -1 {
				continue // unreachable in a disconnected graph
			}
			via := firstLink[t]
			g := nw.Links[via].A
			if g == u.ID {
				g = nw.Links[via].B
			}
			gw, ok := nw.Nodes[g].Addrs[via]
			if !ok {
				continue
			}
			u.S.RT.Add(&route.Entry{
				Family: inet.AFInet6, Dst: append([]byte(nil), lk.Prefix[:]...), Plen: 64,
				Gateway: gw, Flags: route.FlagUp | route.FlagGateway | route.FlagStatic,
				IfName: u.Ports[via].Name,
			})
		}
	}
}

// Start launches the virtual-clock driver. It fires the next timer
// whenever nothing counted on the clock can run (see vclock.Driver):
// netisr work, woken socket waiters and goroutines started with
// vclock.Go are counted; the caller is not, so a goroutine that will
// block in a socket call must count itself first (Clock.Runnable(1)).
// No-op on real-clock networks.
func (nw *Network) Start() {
	if nw.Clock == nil || nw.driver != nil {
		return
	}
	nw.driver = vclock.NewDriver(nw.Clock)
	nw.driver.Start()
}

// Close stops the driver and every stack.
func (nw *Network) Close() {
	if nw.driver != nil {
		nw.driver.Stop()
		nw.driver = nil
	}
	for _, n := range nw.Nodes {
		if n != nil && n.S != nil {
			n.S.Close()
		}
	}
}

// Pending sums in-flight work across every stack and hub — zero means
// the network is quiescent at the current clock reading.
func (nw *Network) Pending() int {
	t := 0
	for _, n := range nw.Nodes {
		t += n.S.Pending()
	}
	for _, lk := range nw.Links {
		t += lk.Hub.Pending()
	}
	return t
}

// LinkPrefix returns link l's /64: 2001:db8:<l+1>::/64.
func LinkPrefix(l int) inet.IP6 {
	return inet.IP6{0x20, 0x01, 0x0d, 0xb8, byte((l + 1) >> 8), byte(l + 1)}
}

// NodeAddr returns node n's address on link l: <LinkPrefix(l)>::<n+1>.
func NodeAddr(l, n int) inet.IP6 {
	a := LinkPrefix(l)
	a[14], a[15] = byte((n+1)>>8), byte(n+1)
	return a
}

// macFor derives a globally unique locally administered MAC for node
// n's port on link l.
func macFor(l, n int) inet.LinkAddr {
	return inet.LinkAddr{0x02, byte((l + 1) >> 8), byte(l + 1), 0, byte(n >> 8), byte(n)}
}
