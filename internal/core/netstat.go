package core

import (
	"fmt"
	"sort"
	"strings"

	"bsd6/internal/inet"
	"bsd6/internal/route"
)

// Netstat renders the stack's state the way the paper's modified
// netstat(8) would: routes (with neighbor reachability, §4.3),
// per-protocol statistics, and the new IP security counters (§3.4).
func (s *Stack) Netstat() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", s.Name)
	b.WriteString("Routing tables (netstat -r)\n\nInternet6:\n")
	b.WriteString(s.routes6())
	b.WriteString("\nInternet:\n")
	b.WriteString(s.RT.Dump(inet.AFInet))
	b.WriteString("\n")
	b.WriteString(s.Connections())
	b.WriteString("\n")
	b.WriteString(s.ProtoStats())
	return b.String()
}

// Connections renders active sockets like netstat -a.
func (s *Stack) Connections() string {
	var b strings.Builder
	b.WriteString("Active Internet connections\n")
	fmt.Fprintf(&b, "%-5s %-28s %-28s %s\n", "Proto", "Local Address", "Foreign Address", "(state)")
	for _, c := range s.TCP.Conns() {
		p := c.PCB()
		name := "tcp6"
		if p.FAddr.IsV4Mapped() || (p.Family == inet.AFInet) {
			name = "tcp4"
		}
		st := c.State().String()
		if c.Listening() {
			st = "LISTEN"
		}
		fmt.Fprintf(&b, "%-5s %-28s %-28s %s\n", name,
			fmt.Sprintf("[%s]:%d", p.LAddr, p.LPort),
			fmt.Sprintf("[%s]:%d", p.FAddr, p.FPort), st)
	}
	for _, tw := range s.TCP.TimeWaits() {
		name := "tcp6"
		if !tw.V6 {
			name = "tcp4"
		}
		fmt.Fprintf(&b, "%-5s %-28s %-28s %s\n", name,
			fmt.Sprintf("[%s]:%d", tw.LAddr, tw.LPort),
			fmt.Sprintf("[%s]:%d", tw.FAddr, tw.FPort), "TIME_WAIT")
	}
	for _, p := range s.UDP.Table.All() {
		name := "udp6"
		if p.Family == inet.AFInet {
			name = "udp4"
		}
		fmt.Fprintf(&b, "%-5s %-28s %-28s\n", name,
			fmt.Sprintf("[%s]:%d", p.LAddr, p.LPort),
			fmt.Sprintf("[%s]:%d", p.FAddr, p.FPort))
	}
	return b.String()
}

// routes6 renders IPv6 routes, annotating neighbor entries with their
// ND reachability state ("Users can use netstat -r to examine the
// state of currently reachable and recently reachable neighbor
// systems", §4.3).
func (s *Stack) routes6() string {
	type row struct {
		dst    inet.IP6
		plen   int
		host   bool
		llinfo bool
		gw     string
		flags  int
		ifn    string
	}
	// Collect under the table lock, then annotate: NeighborState
	// itself consults the table and must not run inside the walk.
	var rows []row
	s.RT.Walk(inet.AFInet6, func(e *route.Entry) bool {
		r := row{plen: e.Plen, host: e.Host(), flags: e.Flags, ifn: e.IfName,
			llinfo: e.Flags&route.FlagLLInfo != 0}
		copy(r.dst[:], e.Dst)
		switch g := e.Gateway.(type) {
		case inet.IP6:
			r.gw = g.String()
		case inet.LinkAddr:
			r.gw = g.String()
		case nil:
			r.gw = "-"
		default:
			r.gw = fmt.Sprint(g)
		}
		rows = append(rows, r)
		return true
	})
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %-20s %-8s %-10s %s\n", "Destination", "Gateway", "Flags", "Neighbor", "Netif")
	for _, r := range rows {
		nd := ""
		if r.llinfo && r.host {
			if st, ok := s.ICMP6.NeighborState(r.dst); ok {
				nd = st.String()
			}
		}
		dst := r.dst.String()
		if !r.host {
			dst = fmt.Sprintf("%s/%d", dst, r.plen)
		}
		fmt.Fprintf(&b, "%-28s %-20s %-8s %-10s %s\n", dst, r.gw, route.FlagString(r.flags), nd, r.ifn)
	}
	return b.String()
}

// ProtoStats renders protocol and security statistics.  It is a pure
// view over Snapshot(): the text and the JSON are always the same
// numbers, so a benchmark log and a netstat dump never disagree.
func (s *Stack) ProtoStats() string {
	snap := s.Snapshot()
	var b strings.Builder
	v6 := snap.IP6
	fmt.Fprintf(&b, "ip6: %d in (%d delivered, %d hdr errs, %d forwarded [%d cached]), %d out (%d frags), %d reassembled, preparse=%d fastpath=%d\n",
		v6["InReceives"], v6["InDelivers"], v6["InHdrErrors"], v6["Forwarded"], v6["FwdCacheHits"],
		v6["OutRequests"], v6["OutFrags"], v6["Reassembled"], v6["PreparseRuns"], v6["FastPathHits"])
	v4 := snap.IP4
	fmt.Fprintf(&b, "ip:  %d in (%d delivered, %d hdr errs, %d forwarded [%d cached]), %d out, %d frags created, %d reassembled\n",
		v4["InReceives"], v4["InDelivers"], v4["InHdrErrors"], v4["Forwarded"], v4["FwdCacheHits"],
		v4["OutRequests"], v4["FragsCreated"], v4["Reassembled"])
	i6 := snap.ICMP6
	fmt.Fprintf(&b, "icmp6: %d in / %d out; echo %d/%d; NS/NA %d/%d in; RS/RA %d/%d in; reports in %d; dad dup %d; pmtu updates %d; rate limited %d\n",
		i6["InMsgs"], i6["OutMsgs"], i6["InEchos"], i6["InEchoReps"], i6["InNS"], i6["InNA"],
		i6["InRS"], i6["InRA"], i6["InReports"], i6["DadDuplicate"], i6["PmtuUpdates"], i6["RateLimited"])
	ts := snap.TCP
	fmt.Fprintf(&b, "tcp: %d/%d pkts out/in, %d rexmit, %d est, %d accepts, reass v4/v6 %d/%d, policy drops %d, delacks %d\n",
		ts["SndPack"], ts["RcvPack"], ts["SndRexmit"], ts["ConnEstab"], ts["ConnAccepts"],
		ts["Reass4"], ts["Reass6"], ts["PolicyDrops"], ts["DelAcks"])
	fmt.Fprintf(&b, "tcp-batch: gro %d coalesced into %d flushes\n",
		ts["GROCoalesced"], ts["GROFlushes"])
	us := snap.UDP
	fmt.Fprintf(&b, "udp: %d out, %d in (%d v4->v6 socket), %d bad sums, %d no port, policy drops %d\n",
		us["OutDatagrams"], us["InDatagrams"], us["InV4ToV6"], us["BadChecksums"], us["InNoPorts"], us["InPolicyDrops"])
	sec := snap.IPsec
	fmt.Fprintf(&b, "ipsec: out ah/esp/tunnel %d/%d/%d; in auth ok/fail %d/%d, decrypt ok/fail %d/%d, no-SA %d, policy drops out/in %d/%d, tunnel src fails %d\n",
		sec["OutAH"], sec["OutESP"], sec["OutTunnel"], sec["InAuthOK"], sec["InAuthFail"],
		sec["InDecryptOK"], sec["InDecryptFail"], sec["InNoSA"], sec["OutPolicyDrops"], sec["InPolicyDrops"], sec["TunnelSrcFail"])
	fmt.Fprintf(&b, "ipsec-fast: %d cached verdicts, %d replay drops\n",
		sec["OutCacheHits"], sec["InReplay"])
	ks := snap.Key
	fmt.Fprintf(&b, "key: %d adds, %d deletes, %d lookups (%d misses), %d acquires, expires soft/hard %d/%d\n",
		ks["Adds"], ks["Deletes"], ks["Lookups"], ks["Misses"], ks["Acquires"], ks["SoftExpires"], ks["HardExpires"])
	for _, sa := range snap.SAs {
		alg := sa.AuthAlg
		if sa.EncAlg != "" {
			alg = sa.EncAlg
		}
		fmt.Fprintf(&b, "sa spi=%#x %s %s alg=%s: in %d pkts/%d bytes, out %d pkts/%d bytes, replay drops %d, seq %d\n",
			sa.SPI, sa.Proto, sa.Dst, alg, sa.InPkts, sa.InBytes, sa.OutPkts, sa.OutBytes, sa.ReplayDrops, sa.SeqOut)
	}
	ni := snap.Netisr
	perWake := 0.0
	if ni.Wakeups > 0 {
		perWake = float64(ni.Frames) / float64(ni.Wakeups)
	}
	fmt.Fprintf(&b, "netisr: burst %d, %d drops, queue depth %d, %d frames in %d wakeups (%.1f per wakeup)\n",
		ni.Burst, ni.Drops, ni.Depth, ni.Frames, ni.Wakeups, perWake)
	for _, t := range snap.Tunnels {
		fmt.Fprintf(&b, "tunnel %s (%s): %s -> %s, mtu %d (+%d encap), %d encapped, %d decapped, %d in errs, %d pmtu updates\n",
			t.Name, t.Mode, t.Local, t.Remote, t.MTU, t.Overhead,
			t.Encapped, t.Decapped, t.InErrors, t.PMTUUpdates)
	}
	lim := snap.Limits
	b.WriteString("limits:")
	for _, l := range []struct {
		name string
		ls   LimitSnapshot
	}{
		{"reasm6", lim.Reasm6}, {"reasm4", lim.Reasm4},
		{"nd-cache", lim.NDCache}, {"syn-backlog", lim.SynBacklog},
		{"time-wait", lim.TimeWait}, {"mbuf-queue", lim.MbufQueue},
	} {
		fmt.Fprintf(&b, " %s=%d/%d(%d)", l.name, l.ls.Cur, l.ls.Max, l.ls.Drops)
	}
	fmt.Fprintf(&b, " pool-outstanding=%dB\n", lim.PoolOutstanding)
	if len(snap.Reasons) > 0 {
		keys := make([]string, 0, len(snap.Reasons))
		for k := range snap.Reasons {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteString("drops:")
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%d", k, snap.Reasons[k])
		}
		b.WriteByte('\n')
	}
	if n := len(snap.Trace); n > 0 {
		const tail = 8
		start := 0
		if n > tail {
			start = n - tail
		}
		fmt.Fprintf(&b, "trace (last %d of %d events):\n", n-start, n)
		for _, tl := range snap.Trace[start:] {
			line := fmt.Sprintf("  #%d %s %s", tl.Seq, tl.Time.Format("15:04:05.000000"), tl.Kind)
			if tl.Reason != "" {
				line += " " + tl.Reason
			}
			if tl.Detail != "" {
				line += ": " + tl.Detail
			}
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// Ifconfig renders the interface list with addresses and lifetimes
// (§4.2.2: "IPv6 interface addresses in the kernel now contain
// lifetime fields").
func (s *Stack) Ifconfig() string {
	var b strings.Builder
	now := s.RT.Now()
	all := s.Interfaces()
	all = append(all, s.Lo)
	for _, ifp := range all {
		fmt.Fprintf(&b, "%s: flags=%#x mtu %d lladdr %s\n", ifp.Name, ifp.Flags(), ifp.MTU(), ifp.HW)
		for _, a := range ifp.Addrs6() {
			state := ""
			if a.Tentative {
				state = " tentative"
			}
			if a.Duplicated {
				state = " duplicated"
			}
			if a.Deprecated(now) {
				state += " deprecated"
			}
			lt := ""
			if a.ValidLft != 0 || a.PreferredLft != 0 {
				lt = fmt.Sprintf(" pltime %s vltime %s", a.PreferredLft, a.ValidLft)
			}
			if a.Autoconf {
				state += " autoconf"
			}
			fmt.Fprintf(&b, "\tinet6 %s/%d%s%s\n", a.Addr, a.Plen, state, lt)
		}
		for _, a := range ifp.Addrs4() {
			fmt.Fprintf(&b, "\tinet %s/%d\n", a.Addr, a.Plen)
		}
	}
	return b.String()
}
