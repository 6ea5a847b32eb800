// Benchmarks regenerating the paper's evaluation (§7): one benchmark
// per table, using the NetPerf-style harness over two stacks joined by
// a zero-loss simulated link.  Figure 8 is the same data as Tables 1
// and 2 rendered as curves; cmd/ipbench prints all of them in the
// paper's row format.
//
// Absolute numbers are microseconds through a user-space Go stack, not
// milliseconds through 1995 kernels; the reproduced result is the
// SHAPE: IPv6 latency above IPv4 (longer addresses + preparse, §7),
// IPv6 throughput slightly below IPv4, and security costing
// None < AH < ESP < AH+ESP (Table 5's ordering).
package bsd6_test

import (
	"fmt"
	"testing"
	"time"

	"bsd6"
	"bsd6/internal/core"
	"bsd6/internal/netperf"
)

var (
	benchMacA = bsd6.LinkAddr{2, 0, 0, 0, 0, 0xa}
	benchMacB = bsd6.LinkAddr{2, 0, 0, 0, 0, 0xb}
)

// benchNet is the measurement testbed: two dual-stack hosts on one
// link (the paper's pair of systems on an Ethernet).
type benchNet struct {
	cli, srv *bsd6.Stack
	dst4     bsd6.IP4
	dst6     bsd6.IP6
	cli6     bsd6.IP6
}

func newBenchNet(tb testing.TB) *benchNet {
	hub := bsd6.NewHub()
	cli := bsd6.NewStack("cli", bsd6.Options{})
	srv := bsd6.NewStack("srv", bsd6.Options{})
	tb.Cleanup(cli.Close)
	tb.Cleanup(srv.Close)
	cIf := cli.AttachLink(hub, benchMacA, 1500)
	sIf := srv.AttachLink(hub, benchMacB, 1500)
	cli.ConfigureV4(cIf, bsd6.IP4{10, 0, 0, 1}, 24)
	srv.ConfigureV4(sIf, bsd6.IP4{10, 0, 0, 2}, 24)
	cliLL, _ := cIf.LinkLocal6(time.Now())
	srvLL, _ := sIf.LinkLocal6(time.Now())
	return &benchNet{cli: cli, srv: srv, dst4: bsd6.IP4{10, 0, 0, 2}, dst6: srvLL, cli6: cliLL}
}

func (n *benchNet) addr(v6 bool, port uint16) core.Sockaddr6 {
	if v6 {
		return bsd6.Addr6(n.dst6, port)
	}
	return bsd6.Addr4(n.dst4, port)
}

// addAuthSAs installs bidirectional AH associations (keyed MD5, the
// §3 mandatory algorithm).
func (n *benchNet) addAuthSAs(tb testing.TB) {
	k := []byte("0123456789abcdef")
	for i, s := range []*bsd6.Stack{n.cli, n.srv} {
		_ = i
		if err := s.Keys.Add(&bsd6.SA{SPI: 0x1000, Src: n.cli6, Dst: n.dst6, Proto: bsd6.ProtoAH, AuthAlg: "keyed-md5", AuthKey: k}); err != nil {
			tb.Fatal(err)
		}
		if err := s.Keys.Add(&bsd6.SA{SPI: 0x1001, Src: n.dst6, Dst: n.cli6, Proto: bsd6.ProtoAH, AuthAlg: "keyed-md5", AuthKey: k}); err != nil {
			tb.Fatal(err)
		}
	}
}

// addESPSAs installs bidirectional ESP transport associations
// (DES-CBC, the §3 mandatory algorithm).
func (n *benchNet) addESPSAs(tb testing.TB) {
	k := []byte("DESCBCK!")
	for _, s := range []*bsd6.Stack{n.cli, n.srv} {
		if err := s.Keys.Add(&bsd6.SA{SPI: 0x2000, Src: n.cli6, Dst: n.dst6, Proto: bsd6.ProtoESPTransport, EncAlg: "des-cbc", EncKey: k}); err != nil {
			tb.Fatal(err)
		}
		if err := s.Keys.Add(&bsd6.SA{SPI: 0x2001, Src: n.dst6, Dst: n.cli6, Proto: bsd6.ProtoESPTransport, EncAlg: "des-cbc", EncKey: k}); err != nil {
			tb.Fatal(err)
		}
	}
}

// The paper's parameter grids.
var (
	latencySizes  = []int{1, 64, 1024, 2048, 4096, 8192} // Tables 1-2, Figure 8
	tcpDataSizes  = []int{4096, 8192, 32768}             // Table 3 rows
	tcpSockBufs   = []int{57344, 32768, 8192}            // Table 3 columns
	udpDataSizes  = []int{64, 1024}                      // Table 4
	udpSockBuf    = 32767                                //
	benchRRPort   = uint16(12865)                        // netperf's port, for flavor
	benchBulkPort = uint16(5501)
)

// benchRR measures request-response latency: one op = one transaction.
func benchRR(b *testing.B, tcp, v6 bool, size int) {
	n := newBenchNet(b)
	sv, err := netperf.NewEchoServer(n.srv, tcp, benchRRPort, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer sv.Close()
	// Warm up (connection + ND/ARP resolution) outside the timer.
	if _, err := netperf.RunRR(n.cli, n.addr(v6, benchRRPort), tcp, size, 2, 0, nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	res, err := netperf.RunRR(n.cli, n.addr(v6, benchRRPort), tcp, size, b.N, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(res.MeanRTT.Nanoseconds())/1e3, "µs/rtt")
}

// BenchmarkTable1_TCPLatency is Table 1: TCP request-response latency,
// IPv4 vs IPv6, across the paper's message sizes.
func BenchmarkTable1_TCPLatency(b *testing.B) {
	for _, size := range latencySizes {
		for _, v := range []struct {
			name string
			v6   bool
		}{{"IPv4", false}, {"IPv6", true}} {
			b.Run(fmt.Sprintf("%s/bytes=%d", v.name, size), func(b *testing.B) {
				benchRR(b, true, v.v6, size)
			})
		}
	}
}

// BenchmarkTable2_UDPLatency is Table 2: UDP request-response latency.
func BenchmarkTable2_UDPLatency(b *testing.B) {
	for _, size := range latencySizes {
		for _, v := range []struct {
			name string
			v6   bool
		}{{"IPv4", false}, {"IPv6", true}} {
			b.Run(fmt.Sprintf("%s/bytes=%d", v.name, size), func(b *testing.B) {
				benchRR(b, false, v.v6, size)
			})
		}
	}
}

// benchStream measures bulk throughput: one op = one msgSize write.
func benchStream(b *testing.B, tcp, v6 bool, msgSize, sockbuf int, tune netperf.SocketTuner) {
	n := newBenchNet(b)
	if tune != nil { // security rows need associations
		n.addAuthSAs(b)
		n.addESPSAs(b)
	}
	sv, err := netperf.NewSinkServer(n.srv, tcp, benchBulkPort, sockbuf, tune)
	if err != nil {
		b.Fatal(err)
	}
	defer sv.Close()
	total := int64(b.N) * int64(msgSize)
	b.SetBytes(int64(msgSize))
	b.ResetTimer()
	res, err := netperf.RunStream(n.cli, sv, n.addr(v6, benchBulkPort), tcp, msgSize, sockbuf, total, tune)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.KBps, "KB/s")
}

// BenchmarkTable3_TCPThroughput is Table 3: TCP stream throughput over
// the paper's data-size × socket-buffer grid, IPv4 vs IPv6.
func BenchmarkTable3_TCPThroughput(b *testing.B) {
	for _, sockbuf := range tcpSockBufs {
		for _, size := range tcpDataSizes {
			for _, v := range []struct {
				name string
				v6   bool
			}{{"IPv4", false}, {"IPv6", true}} {
				b.Run(fmt.Sprintf("%s/data=%d/sockbuf=%d", v.name, size, sockbuf), func(b *testing.B) {
					benchStream(b, true, v.v6, size, sockbuf, nil)
				})
			}
		}
	}
}

// BenchmarkTable4_UDPThroughput is Table 4: UDP stream throughput.
func BenchmarkTable4_UDPThroughput(b *testing.B) {
	for _, size := range udpDataSizes {
		for _, v := range []struct {
			name string
			v6   bool
		}{{"IPv4", false}, {"IPv6", true}} {
			b.Run(fmt.Sprintf("%s/data=%d/sockbuf=%d", v.name, size, udpSockBuf), func(b *testing.B) {
				benchStream(b, false, v.v6, size, udpSockBuf, nil)
			})
		}
	}
}

// BenchmarkTable5_SecurityThroughput is Table 5: the impact of IPv6
// security on TCP throughput — None, Authentication (AH/keyed-MD5),
// Encryption (ESP/DES-CBC), and Both.
func BenchmarkTable5_SecurityThroughput(b *testing.B) {
	cases := []struct {
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
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			benchStream(b, true, true, 8192, 32768, c.tune)
		})
	}
}

// BenchmarkAblation_AlgorithmSwitch checks §3.6's claim: "Supporting
// multiple algorithms in the kernel does not exact a significant
// performance penalty."  Authenticated RR latency is measured with the
// stock switch and with dozens of extra registered algorithms.
func BenchmarkAblation_AlgorithmSwitch(b *testing.B) {
	run := func(b *testing.B) {
		n := newBenchNet(b)
		n.addAuthSAs(b)
		tune := func(s *core.Socket) {
			s.SetSecurity(bsd6.SoSecurityAuthentication, bsd6.LevelRequire)
		}
		sv, err := netperf.NewEchoServer(n.srv, false, benchRRPort, 0, tune)
		if err != nil {
			b.Fatal(err)
		}
		defer sv.Close()
		if _, err := netperf.RunRR(n.cli, n.addr(true, benchRRPort), false, 64, 2, 0, tune); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		if _, err := netperf.RunRR(n.cli, n.addr(true, benchRRPort), false, 64, b.N, 0, tune); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("switch=stock", run)
	b.Run("switch=crowded", func(b *testing.B) {
		registerDummyAlgorithms(48)
		run(b)
	})
}
