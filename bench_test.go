// Benchmarks regenerating the paper's evaluation (§7): one benchmark
// per table, on netperf's testbed and grids — two stacks joined by a
// zero-loss simulated link.  Figure 8 is the same data as Tables 1
// and 2 rendered as curves; cmd/ipbench prints all of them in the
// paper's row format, each cell over repeated trials.
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

	"bsd6/internal/netperf"
)

const (
	benchRRPort   = uint16(12865) // netperf's port, for flavor
	benchBulkPort = uint16(5501)
)

// testbed is a fresh netperf testbed for one benchmark; with secure
// set its stacks hold Table 5's classic associations.
func testbed(b *testing.B, secure bool) *netperf.Testbed {
	tb := netperf.NewTestbed()
	b.Cleanup(tb.Close)
	if secure {
		if err := tb.SetSAs(netperf.Classic); err != nil {
			b.Fatal(err)
		}
	}
	return tb
}

// families runs bench as IPv4/<sub> and IPv6/<sub>.
func families(b *testing.B, sub string, bench func(b *testing.B, v6 bool)) {
	for _, v6 := range []bool{false, true} {
		name := "IPv4/"
		if v6 {
			name = "IPv6/"
		}
		b.Run(name+sub, func(b *testing.B) { bench(b, v6) })
	}
}

// benchRR measures request-response latency: one op = one transaction.
func benchRR(b *testing.B, tcp, v6 bool, size int, tune netperf.SocketTuner) {
	tb := testbed(b, tune != nil)
	sv, err := netperf.NewEchoServer(tb.Srv, tcp, benchRRPort, 0, tune)
	if err != nil {
		b.Fatal(err)
	}
	defer sv.Close()
	// Warm up (connection + ND/ARP resolution) outside the timer.
	dst := tb.Addr(v6, benchRRPort)
	if _, err := netperf.RunRR(tb.Cli, dst, tcp, size, 2, 0, tune); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	res, err := netperf.RunRR(tb.Cli, dst, tcp, size, b.N, 0, tune)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(res.MeanRTT.Nanoseconds())/1e3, "µs/rtt")
}

// BenchmarkTable1_TCPLatency is Table 1: TCP request-response latency,
// IPv4 vs IPv6, across the paper's message sizes.
func BenchmarkTable1_TCPLatency(b *testing.B) {
	for _, size := range netperf.LatencySizes {
		families(b, fmt.Sprintf("bytes=%d", size), func(b *testing.B, v6 bool) { benchRR(b, true, v6, size, nil) })
	}
}

// BenchmarkTable2_UDPLatency is Table 2: UDP request-response latency.
func BenchmarkTable2_UDPLatency(b *testing.B) {
	for _, size := range netperf.LatencySizes {
		families(b, fmt.Sprintf("bytes=%d", size), func(b *testing.B, v6 bool) { benchRR(b, false, v6, size, nil) })
	}
}

// benchStream measures bulk throughput: one op = one msgSize write.
func benchStream(b *testing.B, tcp, v6 bool, msgSize, sockbuf int, tune netperf.SocketTuner) {
	tb := testbed(b, tune != nil)
	sv, err := netperf.NewSinkServer(tb.Srv, tcp, benchBulkPort, sockbuf, tune)
	if err != nil {
		b.Fatal(err)
	}
	defer sv.Close()
	total := int64(b.N) * int64(msgSize)
	b.SetBytes(int64(msgSize))
	b.ResetTimer()
	res, err := netperf.RunStream(tb.Cli, sv, tb.Addr(v6, benchBulkPort), tcp, msgSize, sockbuf, total, tune)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.KBps, "KB/s")
}

// BenchmarkTable3_TCPThroughput is Table 3: TCP stream throughput over
// the paper's data-size × socket-buffer grid, IPv4 vs IPv6.
func BenchmarkTable3_TCPThroughput(b *testing.B) {
	for _, sockbuf := range netperf.TCPSockBufs {
		for _, size := range netperf.TCPDataSizes {
			families(b, fmt.Sprintf("data=%d/sockbuf=%d", size, sockbuf), func(b *testing.B, v6 bool) {
				benchStream(b, true, v6, size, sockbuf, nil)
			})
		}
	}
}

// BenchmarkTable4_UDPThroughput is Table 4: UDP stream throughput.
func BenchmarkTable4_UDPThroughput(b *testing.B) {
	for _, size := range netperf.UDPDataSizes {
		families(b, fmt.Sprintf("data=%d/sockbuf=%d", size, netperf.UDPSockBuf), func(b *testing.B, v6 bool) {
			benchStream(b, false, v6, size, netperf.UDPSockBuf, nil)
		})
	}
}

// BenchmarkTable5_SecurityThroughput is Table 5: the impact of IPv6
// security on TCP throughput — None, Authentication (AH/keyed-MD5),
// Encryption (ESP/DES-CBC), and Both.
func BenchmarkTable5_SecurityThroughput(b *testing.B) {
	for _, c := range netperf.SecCases {
		b.Run(c.Name, func(b *testing.B) {
			benchStream(b, true, true, netperf.SecMsg, netperf.SecSockBuf, c.Tune)
		})
	}
}

// BenchmarkAblation_AlgorithmSwitch checks §3.6's claim: "Supporting
// multiple algorithms in the kernel does not exact a significant
// performance penalty."  Authenticated RR latency is measured with the
// stock switch and with dozens of extra registered algorithms.
func BenchmarkAblation_AlgorithmSwitch(b *testing.B) {
	run := func(b *testing.B) { benchRR(b, false, true, 64, netperf.SecCases[1].Tune) }
	b.Run("switch=stock", run)
	b.Run("switch=crowded", func(b *testing.B) {
		registerDummyAlgorithms(48)
		run(b)
	})
}
