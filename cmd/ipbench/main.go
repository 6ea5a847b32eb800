// ipbench regenerates the paper's evaluation tables and figure (§7)
// over two simulated stacks, plus tables of its own: PCB demux scaling
// (conns), transition tunnels (tunnel) and router chains (topo).  Each
// cell runs netperf.Trials trials, rotating which leg (IPv4 or IPv6,
// say) goes first, and prints the median ±IQR (the spread between the
// quartiles) with its trial count.  Two IPv4/IPv6 legs also print how
// far IPv6 is from IPv4, starred when their quartile ranges do not
// overlap.
//
// Usage:
//
//	ipbench [-t table1|table2|table3|table4|table5|figure8|conns|tunnel|topo|all] [-iters N] [-mb N] [-json] [-cpuprofile FILE]
//
// -t also accepts a comma-separated list (e.g. -t table5,tunnel).
//
// With -json the run is also written to BENCH.json: every cell with
// its trials, median and quartiles, and for each table the non-zero
// protocol counters and drop reasons of the stacks it used.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"bsd6"
	"bsd6/internal/inet"
	"bsd6/internal/netperf"
	"bsd6/internal/pcb"
	"bsd6/internal/topo"
)

var (
	flagTable   = flag.String("t", "all", "which tables to regenerate, comma-separated")
	flagIters   = flag.Int("iters", 2000, "request-response transactions per trial")
	flagMB      = flag.Int("mb", 8, "megabytes per throughput trial")
	flagJSON    = flag.Bool("json", false, "also write the run to BENCH.json")
	flagProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
)

// tables are ipbench's tables, in the order it runs them.
var tables = []struct {
	name, title, key, unit string
	run                    func(*sheet)
}{
	{"table1", "Table 1: TCP Latency", "bytes", "µs per transaction", func(s *sheet) {
		grid(s, "", true, false, netperf.LatencySizes, []int{0})
	}},
	{"table2", "Table 2: UDP Latency", "bytes", "µs per transaction", func(s *sheet) {
		grid(s, "", false, false, netperf.LatencySizes, []int{0})
	}},
	{"table3", "Table 3: TCP Throughput", "data/sockbuf", "KB/s", func(s *sheet) {
		grid(s, "", true, true, netperf.TCPDataSizes, netperf.TCPSockBufs)
	}},
	{"table4", "Table 4: UDP Throughput", "data/sockbuf", "KB/s", func(s *sheet) {
		grid(s, "", false, true, netperf.UDPDataSizes, []int{netperf.UDPSockBuf})
	}},
	{"table5", "Table 5: Impact of IPv6 Security On Throughput (ttcp-style)", "transforms", "KB/s", table5},
	{"figure8", "Figure 8: UDP and TCP Latency series", "proto/bytes", "µs per transaction", func(s *sheet) {
		grid(s, "UDP/", false, false, netperf.Figure8Sizes, []int{0})
		grid(s, "TCP/", true, false, netperf.Figure8Sizes, []int{0})
	}},
	{"conns", "Conns: demux scaling (PCB hash)", "conns", "ns/op", conns},
	{"tunnel", "Tunnel: transition-path TCP throughput", "path", "KB/s", tunnelTable},
	{"topo", "Topo: multi-hop forwarding, IPv6 through router chains (UDP in 1 KiB datagrams: KB/s = pps)", "routers/hops", "KB/s", topoTable},
}

// A sheet is the table being measured.  Its rows are recorded and
// printed as they come.
type sheet struct {
	*netperf.Table
	shape string // the leg names of the last row printed
}

// add records a row and prints it, under a header naming the legs
// whenever they change.
func (s *sheet) add(label string, stats []netperf.Stat) {
	s.Rows = append(s.Rows, netperf.Row{Label: label, Stats: stats})
	var legs []string
	for _, st := range stats {
		legs = append(legs, st.Leg)
	}
	versus := slices.Equal(legs, []string{"IPv4", "IPv6"})
	if shape := strings.Join(legs, " "); shape != s.shape {
		s.shape = shape
		fmt.Printf("%-28s", s.Key)
		for _, leg := range legs {
			fmt.Printf(" %21s", leg)
		}
		if versus {
			fmt.Printf(" %9s", "v6 vs v4")
		}
		fmt.Println()
	}
	prec := 1
	if s.Unit == "KB/s" {
		prec = 0
	}
	fmt.Printf("%-28s", label)
	for _, st := range stats {
		fmt.Printf(" %21s", fmt.Sprintf("%.*f ±%.*f (n=%d)", prec, st.Median, prec, st.IQR, st.N))
	}
	if versus {
		v4, v6 := stats[0], stats[1]
		apart := ""
		if v6.Q1 > v4.Q3 || v6.Q3 < v4.Q1 {
			apart = "*"
		}
		fmt.Printf(" %+8.1f%%%s", (v6.Median-v4.Median)/v4.Median*100, apart)
	}
	fmt.Println()
}

// close counts what tb's stacks did for the table and shuts them down.
func (s *sheet) close(tb *netperf.Testbed) {
	s.Count(tb.Cli, tb.Srv)
	tb.Close()
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "ipbench:", err)
	os.Exit(1)
}

// measure takes c at the run's sizes.
func measure(c netperf.Cell) []netperf.Stat {
	c.Iters, c.Bytes = *flagIters, int64(*flagMB)<<20
	stats, err := netperf.Measure(c)
	if err != nil {
		die(err)
	}
	return stats
}

// grid adds a row per socket buffer and message size, IPv4 against
// IPv6 on one testbed: throughput for a stream, else latency.
func grid(s *sheet, prefix string, tcp, stream bool, sizes, sockbufs []int) {
	tb := netperf.NewTestbed()
	defer s.close(tb)
	for _, sockbuf := range sockbufs {
		for _, size := range sizes {
			label := prefix + strconv.Itoa(size)
			if stream {
				label += "/" + strconv.Itoa(sockbuf)
			}
			s.add(label, measure(netperf.Cell{Cli: tb.Cli, Srv: tb.Srv, Legs: tb.Legs(),
				TCP: tcp, Stream: stream, Size: size, Sockbuf: sockbuf}))
		}
	}
}

// table5 measures the paper's security configurations as the legs of
// one cell, so their trials interleave and drift in the host's load
// hits each alike: under the 1996 algorithms and under the AEAD
// entries, then ESP against tables of 1k and 100k associations, and
// against PF_KEY churn.
func table5(s *sheet) {
	tb := netperf.NewTestbed()
	defer s.close(tb)
	secure := func(label string, cases ...netperf.SecCase) {
		var legs []netperf.Leg
		for _, c := range cases {
			legs = append(legs, netperf.Leg{Name: c.Name, Dst: tb.Addr(true, 0), Tune: c.Tune})
		}
		s.add(label, measure(netperf.Cell{Cli: tb.Cli, Srv: tb.Srv, Legs: legs,
			TCP: true, Stream: true, Size: netperf.SecMsg, Sockbuf: netperf.SecSockBuf}))
	}
	setSAs := func(f netperf.Transforms, decoys int) string {
		if err := tb.SetSAs(f); err != nil {
			die(err)
		}
		addDecoySAs(tb, decoys)
		return f.AH + "/" + f.ESP
	}
	secure(setSAs(netperf.Classic, 0), netperf.SecCases...)
	// The cleartext leg does not change with the family.
	secure(setSAs(netperf.AEAD, 0), netperf.SecCases[1:]...)
	encrypt := netperf.SecCases[2]
	// With the hashed SPI index and the PCB verdict cache these rows
	// should sit on top of the 4-association one.
	for _, pop := range []int{1_000, 100_000} {
		secure(fmt.Sprintf("%s, %d SAs", setSAs(netperf.AEAD, pop-4), pop), encrypt)
	}
	label := setSAs(netperf.AEAD, 1_000-4) + ", 1000 SAs, churn"
	stop := churnSAs(tb)
	secure(label, encrypt)
	stop()
}

// addDecoySAs adds n AH associations for unrelated destinations to
// both Key Engines: they load the inbound SPI index and the outbound
// destination index without ever matching the measured stream, which
// is what a busy security gateway's table looks like.
func addDecoySAs(tb *netperf.Testbed, n int) {
	authKey := []byte("0123456789abcdef")
	for _, s := range []*bsd6.Stack{tb.Cli, tb.Srv} {
		for i := 0; i < n; i++ {
			dst := tb.Dst6
			dst[15] ^= byte(i) | 0x80 // never the real peer
			dst[14] ^= byte(i >> 8)
			dst[13] ^= byte(i >> 16)
			s.Keys.Add(&bsd6.SA{SPI: uint32(0x10000 + i), Dst: dst, Proto: bsd6.ProtoAH,
				AuthAlg: "keyed-md5", AuthKey: authKey})
		}
	}
}

// churnSAs races PF_KEY against the datapath until stop is called:
// unrelated associations are added and deleted at full speed on both
// engines.  Every mutation bumps the generation and invalidates every
// cached verdict, so a row taken meanwhile prices the re-resolution
// path, not just the steady-state cache hit.
func churnSAs(tb *netperf.Testbed) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	for _, s := range []*bsd6.Stack{tb.Cli, tb.Srv} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			authKey := []byte("0123456789abcdef")
			dst := tb.Dst6
			dst[15] ^= 0xc3
			for i := uint32(0); ; i++ {
				select {
				case <-done:
					return
				default:
				}
				time.Sleep(50 * time.Microsecond)
				spi := uint32(0x40000 + i%512)
				if i%2 == 0 {
					s.Keys.Add(&bsd6.SA{SPI: spi, Dst: dst, Proto: bsd6.ProtoAH,
						AuthAlg: "keyed-md5", AuthKey: authKey})
				} else {
					s.Keys.Delete(spi-1, dst, bsd6.ProtoAH)
				}
			}
		}()
	}
	return func() {
		close(done)
		wg.Wait()
	}
}

// lookupSink keeps the demux loop observable.
var lookupSink *pcb.PCB

// conns regenerates the connection-scaling table: the hash demux's
// established-connection lookup and per-connection churn (attach,
// adopt a tuple, demux, detach) must stay flat as the PCB table grows
// from 10k to a million entries — the row pattern a linear-scan table
// turns into milliseconds.
func conns(s *sheet) {
	local, peer := mustIP6("2001:db8::1"), mustIP6("2001:db8:cafe::2")
	faddr := func(i int) inet.IP6 {
		a := mustIP6("2001:db8:feed::")
		a[12], a[13], a[14], a[15] = byte(i>>24), byte(i>>16), byte(i>>8), byte(i)
		return a
	}
	// timeOp calibrates the iteration count until the timed region is
	// long enough to swamp timer granularity.
	timeOp := func(op func(i int)) func() (float64, error) {
		return func() (float64, error) {
			for iters := 1 << 10; ; iters *= 2 {
				start := time.Now()
				for i := 0; i < iters; i++ {
					op(i)
				}
				if elapsed := time.Since(start); elapsed >= 100*time.Millisecond {
					return float64(elapsed.Nanoseconds()) / float64(iters), nil
				}
			}
		}
	}
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		tb := pcb.NewTable()
		for i := 0; i < 4; i++ {
			l := tb.Attach(inet.AFInet6, nil)
			tb.SetTuple(l, inet.IP6{}, uint16(8000+i), inet.IP6{}, 0)
		}
		for i := 0; i < n; i++ {
			p := tb.Attach(inet.AFInet6, nil)
			tb.SetTuple(p, local, 8000, faddr(i), uint16(1024+i%60000))
		}
		stats, _ := netperf.Repeat(timeOp(func(i int) {
			j := i % n
			lookupSink = tb.Lookup(local, 8000, faddr(j), uint16(1024+j%60000), false)
		}), timeOp(func(i int) {
			p := tb.Attach(inet.AFInet6, nil)
			tb.SetTuple(p, local, 9000, peer, uint16(1024+i%60000))
			lookupSink = tb.Lookup(local, 9000, peer, uint16(1024+i%60000), false)
			tb.Detach(p)
		}))
		stats[0].Leg, stats[1].Leg = "lookup", "churn"
		s.add(strconv.Itoa(n), stats)
	}
}

func mustIP6(s string) bsd6.IP6 {
	a, err := inet.ParseIP6(s)
	if err != nil {
		die(err)
	}
	return a
}

// tunnelTable prints the transition-path rows: the native legs first,
// then each tunnel mode, then ESP-secured 6in6 — the encapsulation
// tax at each level of the transition stack.
func tunnelTable(s *sheet) {
	bulk := func(tb *netperf.Testbed, legs ...netperf.Leg) []netperf.Stat {
		defer s.close(tb)
		return measure(netperf.Cell{Cli: tb.Cli, Srv: tb.Srv, Legs: legs,
			TCP: true, Stream: true, Size: 8192, Sockbuf: 57344})
	}
	tb := netperf.NewTestbed()
	s.add("native", bulk(tb, tb.Legs()...))
	for _, p := range []struct {
		label string
		mode  bsd6.TunnelMode
		esp   string
	}{
		{"IPv6 over 6in4", bsd6.Tunnel6in4, ""},
		{"IPv4 over 4in6", bsd6.Tunnel4in6, ""},
		{"IPv6 over 6in6", bsd6.Tunnel6in6, ""},
		{"6in6 + ESP (des-cbc)", bsd6.Tunnel6in6, "des-cbc"},
		{"6in6 + ESP (aes-gcm)", bsd6.Tunnel6in6, "aes-gcm"},
	} {
		tb := netperf.NewTestbed()
		s.add(p.label, bulk(tb, tunnelLeg(tb, p.mode, p.esp)))
	}
}

// tunnelLeg joins tb's stacks with a configured tunnel of the given
// mode, whose outer packets cross the testbed's link, and returns the
// leg to the server's inner address.  With esp set, gateway-style ESP
// tunnel-mode associations under that cipher cover the outer
// endpoints and a system-wide "use" policy wraps the encapsulated
// traffic — the full §3 composition.
func tunnelLeg(tb *netperf.Testbed, mode bsd6.TunnelMode, esp string) netperf.Leg {
	cfgC := bsd6.TunnelConfig{Name: "tun0", Mode: mode}
	cfgS := bsd6.TunnelConfig{Name: "tun0", Mode: mode}
	if mode == bsd6.Tunnel6in4 {
		cli4 := bsd6.IP4{10, 0, 0, 1}
		cfgC.Local4, cfgC.Remote4 = cli4, tb.Dst4
		cfgS.Local4, cfgS.Remote4 = tb.Dst4, cli4
	} else {
		cfgC.Local6, cfgC.Remote6 = mustIP6("2001:db8:c0::1"), mustIP6("2001:db8:c0::2")
		cfgS.Local6, cfgS.Remote6 = cfgC.Remote6, cfgC.Local6
		tb.Cli.ConfigureV6(tb.Cli.Interfaces()[0], cfgC.Local6, 64)
		tb.Srv.ConfigureV6(tb.Srv.Interfaces()[0], cfgS.Local6, 64)
	}
	tunC, err := tb.Cli.AddTunnel(cfgC)
	if err != nil {
		die(err)
	}
	tunS, err := tb.Srv.AddTunnel(cfgS)
	if err != nil {
		die(err)
	}
	if esp != "" {
		encKey := []byte("DESCBC!!")
		if esp != "des-cbc" {
			encKey = netperf.KeyOf(20) // aes-gcm: 16-byte key || 4-byte salt
		}
		c6, s6 := cfgC.Local6, cfgS.Local6
		for _, s := range []*bsd6.Stack{tb.Cli, tb.Srv} {
			s.Keys.Add(&bsd6.SA{SPI: 0x61, Src: c6, Dst: s6, Proto: bsd6.ProtoESPTunnel,
				EncAlg: esp, EncKey: encKey, SelDst: s6, SelPlen: 128})
			s.Keys.Add(&bsd6.SA{SPI: 0x62, Src: s6, Dst: c6, Proto: bsd6.ProtoESPTunnel,
				EncAlg: esp, EncKey: encKey, SelDst: c6, SelPlen: 128})
			s.Sec.SetSystemPolicy(bsd6.SockOpts{ESPTunnel: bsd6.LevelUse})
		}
	}
	if mode == bsd6.Tunnel4in6 {
		in4S := bsd6.IP4{192, 168, 7, 2}
		tb.Cli.ConfigureV4(tunC.Ifp, bsd6.IP4{192, 168, 7, 1}, 24)
		tb.Srv.ConfigureV4(tunS.Ifp, in4S, 24)
		return netperf.Leg{Name: "tunnel", Dst: bsd6.Addr4(in4S, 0)}
	}
	in6S := mustIP6("fd00::2")
	tb.Cli.ConfigureV6(tunC.Ifp, mustIP6("fd00::1"), 64)
	tb.Srv.ConfigureV6(tunS.Ifp, in6S, 64)
	return netperf.Leg{Name: "tunnel", Dst: bsd6.Addr6(in6S, 0)}
}

// topoTable measures end-to-end IPv6 throughput through line
// topologies with 1, 2 and 4 transit routers, on the real clock.  The
// single-router row should sit near the two-stack native numbers; each
// added hop then prices one more full forwarding pass (route lookup or
// held route, hop-limit decrement, re-transmit) — the table that keeps
// the multi-hop fast path honest.
func topoTable(s *sheet) {
	for _, routers := range []int{1, 2, 4} {
		n := routers + 2
		nw, err := topo.Build(topo.Spec{Kind: topo.Line, N: n, Seed: 1})
		if err != nil {
			die(err)
		}
		src, dst := nw.Nodes[0].S, nw.Nodes[n-1]
		addr, _ := dst.Addr()
		leg := func(name string) []netperf.Leg { return []netperf.Leg{{Name: name, Dst: bsd6.Addr6(addr, 0)}} }
		stats := append(
			measure(netperf.Cell{Cli: src, Srv: dst.S, Legs: leg("TCP"), TCP: true, Stream: true, Size: 8192, Sockbuf: 57344}),
			measure(netperf.Cell{Cli: src, Srv: dst.S, Legs: leg("UDP"), Stream: true, Size: 1024, Sockbuf: 32767})...)
		for _, node := range nw.Nodes {
			s.Count(node.S)
		}
		nw.Close()
		s.add(fmt.Sprintf("%d/%d", routers, n-1), stats)
	}
}

func main() {
	flag.Parse()
	if *flagProfile != "" {
		f, err := os.Create(*flagProfile)
		if err != nil {
			die(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			die(err)
		}
		defer pprof.StopCPUProfile()
	}
	report := netperf.Report{Date: time.Now().Format("2006-01-02"), Trials: netperf.Trials, Iters: *flagIters, MB: *flagMB}
	for _, t := range tables {
		if *flagTable != "all" && !slices.Contains(strings.Split(*flagTable, ","), t.name) {
			continue
		}
		fmt.Printf("\n%s (%s, median ±IQR of n trials)\n", t.title, t.unit)
		s := &sheet{Table: &netperf.Table{Name: t.name, Unit: t.unit, Key: t.key}}
		t.run(s)
		report.Tables = append(report.Tables, *s.Table)
	}
	if *flagJSON {
		data, err := json.MarshalIndent(&report, "", "  ")
		if err != nil {
			die(err)
		}
		if err := os.WriteFile("BENCH.json", append(data, '\n'), 0o644); err != nil {
			die(err)
		}
		fmt.Println("\nwrote BENCH.json")
	}
}
