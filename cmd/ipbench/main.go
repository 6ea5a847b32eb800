// ipbench regenerates the paper's evaluation tables and figure (§7)
// over two simulated stacks, printing rows in the paper's format.
//
// Usage:
//
//	ipbench [-t table1|table2|table3|table4|table5|figure8|conns|tunnel|topo|all] [-iters N] [-mb N] [-json] [-tag NAME] [-baseline]
//
// -t also accepts a comma-separated list (e.g. -t table5,tunnel) so
// one run — and one JSON report — can cover several tables.
//
// With -json, every measured cell is also written to BENCH_<date>.json
// so before/after runs can be diffed mechanically.  -tag inserts a
// suffix into the filename (several runs can then coexist on one
// date), and -baseline appends "-baseline" — the convention for the
// pre-change run of a before/after pair.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"bsd6"
	"bsd6/internal/core"
	"bsd6/internal/inet"
	"bsd6/internal/netperf"
	"bsd6/internal/pcb"
	"bsd6/internal/topo"
)

var (
	flagTable    = flag.String("t", "all", "which table/figure to regenerate")
	flagIters    = flag.Int("iters", 2000, "request-response transactions per cell")
	flagMB       = flag.Int("mb", 8, "megabytes per throughput cell")
	flagJSON     = flag.Bool("json", false, "also write results to BENCH_<date>.json")
	flagTag      = flag.String("tag", "", "suffix for the BENCH_<date> filename")
	flagBaseline = flag.Bool("baseline", false, "mark this run as the baseline of a before/after pair")
	flagProfile  = flag.String("cpuprofile", "", "write a CPU profile of the measured region to this file")
)

// latencyCell is one row of a request-response table (Tables 1-2,
// Figure 8): best-of-three mean RTT per IP version, in microseconds.
type latencyCell struct {
	Proto string  `json:"proto,omitempty"`
	Size  int     `json:"size"`
	V4us  float64 `json:"v4_us"`
	V6us  float64 `json:"v6_us"`
}

// streamCell is one row of a throughput table (Tables 3-4):
// best-of-three receiver-side KB/s per IP version.
type streamCell struct {
	Size    int     `json:"size"`
	Sockbuf int     `json:"sockbuf"`
	V4KBps  float64 `json:"v4_kbps"`
	V6KBps  float64 `json:"v6_kbps"`
}

// securityCell is one row of Table 5: IPv6 TCP throughput under a
// security configuration.  Alg names the transform family (the paper's
// des-cbc/keyed-md5 oracles or the AEAD entries), SAs is the size of
// the association table the row was measured against, and Churn marks
// rows where PF_KEY mutations raced the datapath.
type securityCell struct {
	Security string  `json:"security"`
	Alg      string  `json:"alg,omitempty"`
	SAs      int     `json:"sas,omitempty"`
	Churn    bool    `json:"churn,omitempty"`
	KBps     float64 `json:"kbps"`
}

// tunnelCell is one row of the transition-path table: bulk TCP
// throughput across a configured tunnel, next to the native baselines
// so the encapsulation tax is legible.
type tunnelCell struct {
	Path string  `json:"path"`
	KBps float64 `json:"kbps"`
}

// topoCell is one row of the multi-hop forwarding table: end-to-end
// IPv6 throughput and packet rate through a chain of transit routers,
// every hop paying the full forwarding path (route lookup or held
// route, hop-limit decrement, re-transmit).
type topoCell struct {
	Routers int     `json:"routers"`
	Hops    int     `json:"hops"` // links traversed end to end
	TCPKBps float64 `json:"tcp_kbps"`
	UDPKBps float64 `json:"udp_kbps"`
	UDPpps  float64 `json:"udp_pps"`
}

// connCell is one row of the connection-scaling table: established
// demux latency and one full connection lifetime (attach, adopt tuple,
// demux, detach) against a PCB table of the given size.
type connCell struct {
	Conns    int     `json:"conns"`
	LookupNs float64 `json:"lookup_ns"`
	ChurnNs  float64 `json:"churn_ns"`
}

// report aggregates every measured cell for the -json output.
type report struct {
	Date    string         `json:"date"`
	Iters   int            `json:"iters"`
	MB      int            `json:"mb"`
	Table1  []latencyCell  `json:"table1,omitempty"`
	Table2  []latencyCell  `json:"table2,omitempty"`
	Table3  []streamCell   `json:"table3,omitempty"`
	Table4  []streamCell   `json:"table4,omitempty"`
	Table5  []securityCell `json:"table5,omitempty"`
	Figure8 []latencyCell  `json:"figure8,omitempty"`
	Conns   []connCell     `json:"conns,omitempty"`
	Tunnel  []tunnelCell   `json:"tunnel,omitempty"`
	Topo    []topoCell     `json:"topo,omitempty"`
	// Snapshots holds the full counter state of every stack used by
	// the run, captured at teardown — the structured netstat that lets
	// a reader verify a cell was measured on a clean path (no retrans,
	// no drops) instead of trusting the throughput number alone.
	Snapshots []core.Snapshot `json:"snapshots,omitempty"`
}

var results report

type testbed struct {
	cli, srv *bsd6.Stack
	dst4     bsd6.IP4
	dst6     bsd6.IP6
	cli6     bsd6.IP6
	port     uint16
}

func newTestbed() *testbed {
	hub := bsd6.NewHub()
	cli := bsd6.NewStack("cli", bsd6.Options{})
	srv := bsd6.NewStack("srv", bsd6.Options{})
	cIf := cli.AttachLink(hub, bsd6.LinkAddr{2, 0, 0, 0, 0, 1}, 1500)
	sIf := srv.AttachLink(hub, bsd6.LinkAddr{2, 0, 0, 0, 0, 2}, 1500)
	cli.ConfigureV4(cIf, bsd6.IP4{10, 0, 0, 1}, 24)
	srv.ConfigureV4(sIf, bsd6.IP4{10, 0, 0, 2}, 24)
	cliLL, _ := cIf.LinkLocal6(time.Now())
	srvLL, _ := sIf.LinkLocal6(time.Now())
	return &testbed{cli: cli, srv: srv, dst4: bsd6.IP4{10, 0, 0, 2}, dst6: srvLL, cli6: cliLL, port: 20000}
}

func (tb *testbed) close() {
	if *flagJSON {
		results.Snapshots = append(results.Snapshots, tb.cli.Snapshot(), tb.srv.Snapshot())
	}
	tb.cli.Close()
	tb.srv.Close()
}

func (tb *testbed) addr(v6 bool, port uint16) core.Sockaddr6 {
	if v6 {
		return bsd6.Addr6(tb.dst6, port)
	}
	return bsd6.Addr4(tb.dst4, port)
}

func (tb *testbed) nextPort() uint16 { tb.port++; return tb.port }

// keyOf derives a deterministic key of the size an algorithm switch
// entry demands.
func keyOf(n int) []byte {
	k := make([]byte, n)
	for i := range k {
		k[i] = byte(i*7 + 13)
	}
	return k
}

// saEpoch distinguishes successive setSAs generations: each gets
// distinct keys, so straggler packets from a previous row's dying
// connections fail the ICV harmlessly instead of decrypting under a
// same-keyed fresh association and sliding its replay window to their
// ancient sequence numbers.
var saEpoch byte

// setSAs flushes both engines and installs the four stream
// associations (AH + ESP transport in each direction) under the given
// transform family, so a Table 5 row measures exactly one algorithm
// generation.
func (tb *testbed) setSAs(ahAlg string, ahKey []byte, espAlg string, espKey []byte) {
	saEpoch++
	salt := func(k []byte) []byte {
		out := append([]byte(nil), k...)
		out[0] ^= saEpoch
		return out
	}
	ahKey, espKey = salt(ahKey), salt(espKey)
	for _, s := range []*bsd6.Stack{tb.cli, tb.srv} {
		s.Keys.Flush()
		s.Keys.Add(&bsd6.SA{SPI: 0x100, Src: tb.cli6, Dst: tb.dst6, Proto: bsd6.ProtoAH, AuthAlg: ahAlg, AuthKey: ahKey})
		s.Keys.Add(&bsd6.SA{SPI: 0x101, Src: tb.dst6, Dst: tb.cli6, Proto: bsd6.ProtoAH, AuthAlg: ahAlg, AuthKey: ahKey})
		s.Keys.Add(&bsd6.SA{SPI: 0x200, Src: tb.cli6, Dst: tb.dst6, Proto: bsd6.ProtoESPTransport, EncAlg: espAlg, EncKey: espKey})
		s.Keys.Add(&bsd6.SA{SPI: 0x201, Src: tb.dst6, Dst: tb.cli6, Proto: bsd6.ProtoESPTransport, EncAlg: espAlg, EncKey: espKey})
	}
}

// addDecoySAs grows both association tables to n entries with
// associations for unrelated destinations: they load the inbound SPI index
// and the outbound destination index without ever matching the
// measured stream, which is exactly what a busy security gateway's
// table looks like.
func (tb *testbed) addDecoySAs(n int) {
	authKey := []byte("0123456789abcdef")
	for _, s := range []*bsd6.Stack{tb.cli, tb.srv} {
		for i := 0; i < n; i++ {
			dst := tb.dst6
			dst[15] ^= byte(i) | 0x80 // never the real peer
			dst[14] ^= byte(i >> 8)
			dst[13] ^= byte(i >> 16)
			s.Keys.Add(&bsd6.SA{SPI: uint32(0x10000 + i), Dst: dst, Proto: bsd6.ProtoAH,
				AuthAlg: "keyed-md5", AuthKey: authKey})
		}
	}
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "ipbench:", err)
	os.Exit(1)
}

// rr measures mean round-trip latency in microseconds.
func (tb *testbed) rr(tcp, v6 bool, size int) float64 {
	port := tb.nextPort()
	sv, err := netperf.NewEchoServer(tb.srv, tcp, port, 0, nil)
	if err != nil {
		die(err)
	}
	defer sv.Close()
	if _, err := netperf.RunRR(tb.cli, tb.addr(v6, port), tcp, size, 10, 0, nil); err != nil {
		die(err)
	}
	// Best of three trials: scheduling noise only ever adds latency.
	best := 0.0
	for trial := 0; trial < 3; trial++ {
		res, err := netperf.RunRR(tb.cli, tb.addr(v6, port), tcp, size, *flagIters, 0, nil)
		if err != nil {
			die(err)
		}
		µs := float64(res.MeanRTT.Nanoseconds()) / 1e3
		if trial == 0 || µs < best {
			best = µs
		}
	}
	return best
}

// stream measures throughput in KB/s (best of three trials:
// scheduling noise only ever lowers throughput).
func (tb *testbed) stream(tcp, v6 bool, msgSize, sockbuf int, tune netperf.SocketTuner) float64 {
	port := tb.nextPort()
	sv, err := netperf.NewSinkServer(tb.srv, tcp, port, sockbuf, tune)
	if err != nil {
		die(err)
	}
	defer sv.Close()
	total := int64(*flagMB) << 20
	best := 0.0
	for trial := 0; trial < 3; trial++ {
		res, err := netperf.RunStream(tb.cli, sv, tb.addr(v6, port), tcp, msgSize, sockbuf, total, tune)
		if err != nil {
			die(err)
		}
		if res.KBps > best {
			best = res.KBps
		}
	}
	return best
}

func pct(v4, v6 float64) string {
	return fmt.Sprintf("%+.0f%%", (v6-v4)/v4*100)
}

func latencyTable(title string, tcp bool) []latencyCell {
	fmt.Printf("\n%s (microseconds per request/response transaction)\n", title)
	fmt.Printf("%10s %12s %12s %10s\n", "bytes", "IPv4 (µs)", "IPv6 (µs)", "increase")
	tb := newTestbed()
	defer tb.close()
	var cells []latencyCell
	for _, size := range []int{1, 64, 1024, 2048, 4096, 8192} {
		v4 := tb.rr(tcp, false, size)
		v6 := tb.rr(tcp, true, size)
		fmt.Printf("%10d %12.1f %12.1f %10s\n", size, v4, v6, pct(v4, v6))
		cells = append(cells, latencyCell{Size: size, V4us: v4, V6us: v6})
	}
	return cells
}

func table3() {
	fmt.Println("\nTable 3: TCP Throughput (KB/s)")
	fmt.Printf("%10s %12s %12s %12s %10s\n", "data", "sockbuf", "IPv4", "IPv6", "drop")
	tb := newTestbed()
	defer tb.close()
	for _, sockbuf := range []int{57344, 32768, 8192} {
		for _, size := range []int{4096, 8192, 32768} {
			v4 := tb.stream(true, false, size, sockbuf, nil)
			v6 := tb.stream(true, true, size, sockbuf, nil)
			fmt.Printf("%10d %12d %12.0f %12.0f %9.2f%%\n", size, sockbuf, v4, v6, (v4-v6)/v4*100)
			results.Table3 = append(results.Table3, streamCell{Size: size, Sockbuf: sockbuf, V4KBps: v4, V6KBps: v6})
		}
	}
}

func table4() {
	fmt.Println("\nTable 4: UDP Throughput (KB/s)")
	fmt.Printf("%10s %12s %12s %12s %10s\n", "data", "sockbuf", "IPv4", "IPv6", "drop")
	tb := newTestbed()
	defer tb.close()
	for _, size := range []int{64, 1024} {
		v4 := tb.stream(false, false, size, 32767, nil)
		v6 := tb.stream(false, true, size, 32767, nil)
		fmt.Printf("%10d %12d %12.0f %12.0f %9.2f%%\n", size, 32767, v4, v6, (v4-v6)/v4*100)
		results.Table4 = append(results.Table4, streamCell{Size: size, Sockbuf: 32767, V4KBps: v4, V6KBps: v6})
	}
}

// secCases are the paper's four Table 5 configurations; the tuner sets
// the measured socket's required services.
var secCases = []struct {
	name string
	tune netperf.SocketTuner
}{
	{"None", nil},
	{"Authentication", func(s *core.Socket) {
		s.SetSecurity(bsd6.SoSecurityAuthentication, bsd6.LevelRequire)
	}},
	{"Encryption", func(s *core.Socket) {
		s.SetSecurity(bsd6.SoSecurityEncryptTrans, bsd6.LevelRequire)
	}},
	{"Both", func(s *core.Socket) {
		s.SetSecurity(bsd6.SoSecurityAuthentication, bsd6.LevelRequire)
		s.SetSecurity(bsd6.SoSecurityEncryptTrans, bsd6.LevelRequire)
	}},
}

func table5() {
	fmt.Println("\nTable 5: Impact of IPv6 Security On Throughput (ttcp-style, KB/s)")
	fmt.Printf("%-16s %-22s %8s %6s %12s\n", "Security", "Alg", "SAs", "churn", "Throughput")
	tb := newTestbed()
	defer tb.close()
	emit := func(security, alg string, sas int, churn bool, kbps float64) {
		c := "-"
		if churn {
			c = "yes"
		}
		fmt.Printf("%-16s %-22s %8d %6s %12.0f\n", security, alg, sas, c, kbps)
		results.Table5 = append(results.Table5, securityCell{
			Security: security, Alg: alg, SAs: sas, Churn: churn, KBps: kbps})
	}

	// The paper's table, twice over: once under the 1996 conformance
	// oracles (keyed-MD5 AH, DES-CBC ESP) and once under the AEAD
	// switch entries (HMAC-SHA-256 AH, AES-GCM ESP).  Trials are
	// interleaved across the four configurations so machine-load drift
	// hits every row equally; each row keeps its best.
	families := []struct {
		label         string
		ahAlg, espAlg string
		ahKey, espKey []byte
		algFor        [4]string // per-configuration alg column
	}{
		{label: "classic", ahAlg: "keyed-md5", espAlg: "des-cbc",
			ahKey: keyOf(16), espKey: []byte("DESCBC!!"),
			algFor: [4]string{"-", "keyed-md5", "des-cbc", "des-cbc+keyed-md5"}},
		{label: "aead", ahAlg: "hmac-sha256", espAlg: "aes-gcm",
			ahKey: keyOf(32), espKey: keyOf(20),
			algFor: [4]string{"-", "hmac-sha256", "aes-gcm", "aes-gcm+hmac-sha256"}},
	}
	for fi, fam := range families {
		tb.setSAs(fam.ahAlg, fam.ahKey, fam.espAlg, fam.espKey)
		best := make([]float64, len(secCases))
		for round := 0; round < 4; round++ {
			for i, c := range secCases {
				if fi == 1 && i == 0 {
					continue // the cleartext row does not change with the family
				}
				if v := tb.stream(true, true, 8192, 32768, c.tune); v > best[i] {
					best[i] = v
				}
			}
		}
		for i, c := range secCases {
			if fi == 1 && i == 0 {
				continue
			}
			emit(c.name, fam.algFor[i], 4, false, best[i])
		}
	}

	// SA-population scaling: the same AES-GCM ESP stream measured
	// against association tables of 1k and 100k entries.  With the
	// hashed SPI index and the PCB verdict cache these rows should
	// sit on top of the 4-entry row.
	for _, pop := range []int{1_000, 100_000} {
		fam := families[1]
		tb.setSAs(fam.ahAlg, fam.ahKey, fam.espAlg, fam.espKey)
		tb.addDecoySAs(pop - 4)
		best := 0.0
		for round := 0; round < 2; round++ {
			if v := tb.stream(true, true, 8192, 32768, secCases[2].tune); v > best {
				best = v
			}
		}
		emit("Encryption", "aes-gcm", pop, false, best)
	}

	// PF_KEY churn racing the datapath: unrelated associations are
	// added and deleted at full speed on both engines while the
	// AES-GCM stream runs.  Every mutation bumps the generation and
	// invalidates every cached verdict, so this row prices the
	// re-resolution path, not just the steady-state cache hit.
	{
		fam := families[1]
		tb.setSAs(fam.ahAlg, fam.ahKey, fam.espAlg, fam.espKey)
		tb.addDecoySAs(1_000 - 4)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for _, s := range []*bsd6.Stack{tb.cli, tb.srv} {
			wg.Add(1)
			go func(s *bsd6.Stack) {
				defer wg.Done()
				authKey := []byte("0123456789abcdef")
				for i := uint32(0); ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					time.Sleep(50 * time.Microsecond)
					dst := tb.dst6
					dst[15] ^= 0xc3
					spi := uint32(0x40000 + i%512)
					if i%2 == 0 {
						s.Keys.Add(&bsd6.SA{SPI: spi, Dst: dst, Proto: bsd6.ProtoAH,
							AuthAlg: "keyed-md5", AuthKey: authKey})
					} else {
						s.Keys.Delete(spi-1, dst, bsd6.ProtoAH)
					}
				}
			}(s)
		}
		best := 0.0
		for round := 0; round < 2; round++ {
			if v := tb.stream(true, true, 8192, 32768, secCases[2].tune); v > best {
				best = v
			}
		}
		close(stop)
		wg.Wait()
		emit("Encryption", "aes-gcm", 1_000, true, best)
	}
}

func figure8() {
	fmt.Println("\nFigure 8: UDP and TCP Latency series (µs vs message size)")
	tb := newTestbed()
	defer tb.close()
	for _, proto := range []struct {
		name string
		tcp  bool
	}{{"UDP", false}, {"TCP", true}} {
		fmt.Printf("\n# %s latency\n# bytes IPv4 IPv6\n", proto.name)
		for _, size := range []int{1, 64, 256, 1024, 2048, 4096, 8192} {
			v4 := tb.rr(proto.tcp, false, size)
			v6 := tb.rr(proto.tcp, true, size)
			fmt.Printf("%7d %8.1f %8.1f\n", size, v4, v6)
			results.Figure8 = append(results.Figure8, latencyCell{Proto: proto.name, Size: size, V4us: v4, V6us: v6})
		}
	}
}

// lookupSink keeps the demux loop observable.
var lookupSink *pcb.PCB

// conns regenerates the connection-scaling table: the hash demux's
// established-connection lookup and per-connection churn cost must stay
// flat as the PCB table grows from 10k to a million entries — the row
// pattern a linear-scan table turns into milliseconds.
func conns() {
	fmt.Println("\nConns: demux scaling (PCB hash)")
	fmt.Printf("%10s %14s %14s\n", "conns", "lookup ns/op", "churn ns/op")
	local, err := inet.ParseIP6("2001:db8::1")
	if err != nil {
		die(err)
	}
	faddr := func(i int) inet.IP6 {
		a, _ := inet.ParseIP6("2001:db8:feed::")
		a[12], a[13], a[14], a[15] = byte(i>>24), byte(i>>16), byte(i>>8), byte(i)
		return a
	}
	// timeOp calibrates the iteration count until the timed region is
	// long enough to swamp timer granularity.
	timeOp := func(op func(i int)) float64 {
		iters := 1 << 10
		var elapsed time.Duration
		for {
			start := time.Now()
			for i := 0; i < iters; i++ {
				op(i)
			}
			elapsed = time.Since(start)
			if elapsed >= 100*time.Millisecond {
				break
			}
			iters *= 2
		}
		return float64(elapsed.Nanoseconds()) / float64(iters)
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
		lookup := timeOp(func(i int) {
			j := i % n
			lookupSink = tb.Lookup(local, 8000, faddr(j), uint16(1024+j%60000), false)
		})
		peer, _ := inet.ParseIP6("2001:db8:cafe::2")
		churn := timeOp(func(i int) {
			p := tb.Attach(inet.AFInet6, nil)
			tb.SetTuple(p, local, 9000, peer, uint16(1024+i%60000))
			lookupSink = tb.Lookup(local, 9000, peer, uint16(1024+i%60000), false)
			tb.Detach(p)
		})
		fmt.Printf("%10d %14.1f %14.1f\n", n, lookup, churn)
		results.Conns = append(results.Conns, connCell{Conns: n, LookupNs: lookup, ChurnNs: churn})
	}
}

// tunnelStream builds a two-stack world whose hub carries only the
// outer protocol, joins the stacks with configured tunnels of the
// given mode, and measures bulk TCP throughput across the tunnel
// (best of three).  With espAlg set, gateway-style ESP tunnel-mode
// associations under that cipher cover the outer endpoints and a
// system-wide "use" policy wraps the encapsulated traffic — the full
// §3 composition.
func tunnelStream(mode bsd6.TunnelMode, espAlg string) float64 {
	hub := bsd6.NewHub()
	cli := bsd6.NewStack("cli", bsd6.Options{})
	srv := bsd6.NewStack("srv", bsd6.Options{})
	defer func() {
		if *flagJSON {
			results.Snapshots = append(results.Snapshots, cli.Snapshot(), srv.Snapshot())
		}
		cli.Close()
		srv.Close()
	}()
	cIf := cli.AttachLink(hub, bsd6.LinkAddr{2, 0, 0, 0, 0, 1}, 1500)
	sIf := srv.AttachLink(hub, bsd6.LinkAddr{2, 0, 0, 0, 0, 2}, 1500)

	cfgC := bsd6.TunnelConfig{Name: "tun0", Mode: mode}
	cfgS := bsd6.TunnelConfig{Name: "tun0", Mode: mode}
	var core6C, core6S bsd6.IP6
	if mode == bsd6.Tunnel6in4 {
		v4C, v4S := bsd6.IP4{10, 0, 0, 1}, bsd6.IP4{10, 0, 0, 2}
		cli.ConfigureV4(cIf, v4C, 24)
		srv.ConfigureV4(sIf, v4S, 24)
		cfgC.Local4, cfgC.Remote4 = v4C, v4S
		cfgS.Local4, cfgS.Remote4 = v4S, v4C
	} else {
		core6C = mustIP6("2001:db8:c0::1")
		core6S = mustIP6("2001:db8:c0::2")
		cli.ConfigureV6(cIf, core6C, 64)
		srv.ConfigureV6(sIf, core6S, 64)
		cfgC.Local6, cfgC.Remote6 = core6C, core6S
		cfgS.Local6, cfgS.Remote6 = core6S, core6C
	}
	tunC, err := cli.AddTunnel(cfgC)
	if err != nil {
		die(err)
	}
	tunS, err := srv.AddTunnel(cfgS)
	if err != nil {
		die(err)
	}

	var dial func(port uint16) core.Sockaddr6
	if mode == bsd6.Tunnel4in6 {
		in4C, in4S := bsd6.IP4{192, 168, 7, 1}, bsd6.IP4{192, 168, 7, 2}
		cli.ConfigureV4(tunC.Ifp, in4C, 24)
		srv.ConfigureV4(tunS.Ifp, in4S, 24)
		dial = func(port uint16) core.Sockaddr6 { return bsd6.Addr4(in4S, port) }
	} else {
		in6C, in6S := mustIP6("fd00::1"), mustIP6("fd00::2")
		cli.ConfigureV6(tunC.Ifp, in6C, 64)
		srv.ConfigureV6(tunS.Ifp, in6S, 64)
		dial = func(port uint16) core.Sockaddr6 { return bsd6.Addr6(in6S, port) }
	}

	if espAlg != "" {
		encKey := []byte("DESCBC!!")
		if espAlg != "des-cbc" {
			encKey = keyOf(20) // aes-gcm: 16-byte key || 4-byte salt
		}
		for _, s := range []*bsd6.Stack{cli, srv} {
			s.Keys.Add(&bsd6.SA{SPI: 0x61, Src: core6C, Dst: core6S, Proto: bsd6.ProtoESPTunnel,
				EncAlg: espAlg, EncKey: encKey, SelDst: core6S, SelPlen: 128})
			s.Keys.Add(&bsd6.SA{SPI: 0x62, Src: core6S, Dst: core6C, Proto: bsd6.ProtoESPTunnel,
				EncAlg: espAlg, EncKey: encKey, SelDst: core6C, SelPlen: 128})
			s.Sec.SetSystemPolicy(bsd6.SockOpts{ESPTunnel: bsd6.LevelUse})
		}
	}

	port := uint16(21000)
	sv, err := netperf.NewSinkServer(srv, true, port, 57344, nil)
	if err != nil {
		die(err)
	}
	defer sv.Close()
	total := int64(*flagMB) << 20
	best := 0.0
	for trial := 0; trial < 3; trial++ {
		res, err := netperf.RunStream(cli, sv, dial(port), true, 8192, 57344, total, nil)
		if err != nil {
			die(err)
		}
		if res.KBps > best {
			best = res.KBps
		}
	}
	return best
}

func mustIP6(s string) bsd6.IP6 {
	a, err := inet.ParseIP6(s)
	if err != nil {
		die(err)
	}
	return a
}

// tunnelTable prints the transition-path throughput rows: native
// baselines first, then each tunnel mode, then ESP-secured 6in6 — the
// encapsulation tax at each level of the transition stack.
func tunnelTable() {
	fmt.Println("\nTunnel: transition-path TCP throughput (KB/s)")
	fmt.Printf("%-22s %12s\n", "Path", "Throughput")
	row := func(name string, kbps float64) {
		fmt.Printf("%-22s %12.0f\n", name, kbps)
		results.Tunnel = append(results.Tunnel, tunnelCell{Path: name, KBps: kbps})
	}
	tb := newTestbed()
	row("native IPv4", tb.stream(true, false, 8192, 57344, nil))
	row("native IPv6", tb.stream(true, true, 8192, 57344, nil))
	tb.close()
	row("IPv6 over 6in4", tunnelStream(bsd6.Tunnel6in4, ""))
	row("IPv4 over 4in6", tunnelStream(bsd6.Tunnel4in6, ""))
	row("IPv6 over 6in6", tunnelStream(bsd6.Tunnel6in6, ""))
	row("6in6 + ESP (des-cbc)", tunnelStream(bsd6.Tunnel6in6, "des-cbc"))
	row("6in6 + ESP (aes-gcm)", tunnelStream(bsd6.Tunnel6in6, "aes-gcm"))
}

// topoTable measures end-to-end IPv6 throughput and UDP packet rate
// through line topologies with 1, 2 and 4 transit routers, on the real
// clock.  The single-router row should sit near the two-stack native
// numbers; each added hop then prices one more full forwarding pass —
// the table that keeps the multi-hop fast path honest.
func topoTable() {
	fmt.Println("\nTopo: multi-hop forwarding, IPv6 through router chains")
	fmt.Printf("%8s %6s %12s %12s %12s\n", "routers", "hops", "tcp KB/s", "udp KB/s", "udp pps")
	const udpMsg = 1024
	for _, routers := range []int{1, 2, 4} {
		n := routers + 2
		nw, err := topo.Build(topo.Spec{Kind: topo.Line, N: n, Seed: 1})
		if err != nil {
			die(err)
		}
		src := nw.Nodes[0].S
		dstNode := nw.Nodes[n-1]
		dst, _ := dstNode.Addr()
		total := int64(*flagMB) << 20

		bestStream := func(tcp bool, port uint16, msg, sockbuf int) float64 {
			sv, err := netperf.NewSinkServer(dstNode.S, tcp, port, sockbuf, nil)
			if err != nil {
				die(err)
			}
			defer sv.Close()
			best := 0.0
			for trial := 0; trial < 3; trial++ {
				res, err := netperf.RunStream(src, sv, bsd6.Addr6(dst, port), tcp, msg, sockbuf, total, nil)
				if err != nil {
					die(err)
				}
				if res.KBps > best {
					best = res.KBps
				}
			}
			return best
		}
		tcp := bestStream(true, 23000, 8192, 57344)
		udp := bestStream(false, 23001, udpMsg, 32767)
		pps := udp * 1024 / udpMsg
		if *flagJSON {
			for _, node := range nw.Nodes {
				results.Snapshots = append(results.Snapshots, node.S.Snapshot())
			}
		}
		nw.Close()
		fmt.Printf("%8d %6d %12.0f %12.0f %12.0f\n", routers, n-1, tcp, udp, pps)
		results.Topo = append(results.Topo, topoCell{
			Routers: routers, Hops: n - 1, TCPKBps: tcp, UDPKBps: udp, UDPpps: pps,
		})
	}
}

// writeJSON dumps the collected cells to BENCH_<date>[-tag][-baseline].json.
func writeJSON() {
	results.Date = time.Now().Format("2006-01-02")
	results.Iters = *flagIters
	results.MB = *flagMB
	suffix := ""
	if *flagTag != "" {
		suffix += "-" + *flagTag
	}
	if *flagBaseline {
		suffix += "-baseline"
	}
	name := fmt.Sprintf("BENCH_%s%s.json", time.Now().Format("2006-01-02"), suffix)
	data, err := json.MarshalIndent(&results, "", "  ")
	if err != nil {
		die(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(name, data, 0o644); err != nil {
		die(err)
	}
	fmt.Printf("\nwrote %s\n", name)
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
	run := func(name string) bool {
		if *flagTable == "all" {
			return true
		}
		for _, t := range strings.Split(*flagTable, ",") {
			if t == name {
				return true
			}
		}
		return false
	}
	if run("table1") {
		results.Table1 = latencyTable("Table 1: TCP Latency", true)
	}
	if run("table2") {
		results.Table2 = latencyTable("Table 2: UDP Latency", false)
	}
	if run("table3") {
		table3()
	}
	if run("table4") {
		table4()
	}
	if run("table5") {
		table5()
	}
	if run("figure8") {
		figure8()
	}
	if run("conns") {
		conns()
	}
	if run("tunnel") {
		tunnelTable()
	}
	if run("topo") {
		topoTable()
	}
	if *flagJSON {
		writeJSON()
	}
}
