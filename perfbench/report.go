package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// metricDef names one reported metric; the lists below are the
// benchmark's contract and BENCHMARK.json repeats them.
type metricDef struct {
	name, unit, better string
}

// endToEnd is printed by every untraced run, for every workload.  Each
// describes the workload's primary leg (legs[0]); an op is one 8 KiB
// write delivered (stream, secure), one transaction (rr) or one
// datagram delivered (forward).  Allocations and the median are taken
// over the leg's whole measured region; mem_MB is the median of the
// slices' mean.  Every workload is a closed loop with a fixed amount
// in flight, so op_p50_us also carries its throughput.  Goodput, p99
// and CPU time per op read noisier on a shared host (CPU time per op
// follows the host's speed most closely of all) and are reported among
// the per-layer figures instead.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"mem_MB", "MB", "lower"},
	{"allocs_per_op", "count", "lower"},
	{"op_p50_us", "us", "lower"},
}

// perLayer is printed by every traced run.  A figure whose layer the
// workload does not exercise reads 0.
var perLayer = []metricDef{
	{"fail_ratio", "ratio", "lower"},
	{"core.stalls", "count", "lower"},
	{"leg.goodput_MBps", "MB/s", "higher"},
	{"leg.op_p99_us", "us", "lower"},
	{"leg.cpu_us_per_op", "us", "lower"},
	{"leg.goodput_v4_MBps", "MB/s", "higher"},
	{"leg.txn_per_s", "1/s", "higher"},
	{"leg.txn_v4_p50_us", "us", "lower"},
	{"leg.conn_p50_us", "us", "lower"},
	{"leg.conn_per_s", "1/s", "higher"},
	{"leg.pps", "1/s", "higher"},
	{"trace.overhead_us_per_op", "us", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"core.send_us", "us", "lower"},
	{"core.read_wait_us", "us", "lower"},
	{"core.connect_us", "us", "lower"},
	{"core.accept_us", "us", "lower"},
	{"core.inq_drops", "count", "lower"},
	{"core.inq_depth_max", "count", "lower"},
	{"path.out_us", "us", "lower"},
	{"path.turn_us", "us", "lower"},
	{"path.in_us", "us", "lower"},
	{"path.txn_p50_us", "us", "lower"},
	{"path.remainder_us", "us", "lower"},
	{"path.handshake_us", "us", "lower"},
	{"path.hop_us", "us", "lower"},
	{"netif.frames_per_op", "frames/op", "lower"},
	{"netif.acks_per_MB", "1/MB", "lower"},
	{"netif.wire_bytes_per_payload_byte", "ratio", "lower"},
	{"netif.gso_frames_per_super", "ratio", "higher"},
	{"netif.gso_frames_per_super_v4", "ratio", "higher"},
	{"tcp.gro_segs_per_super", "ratio", "higher"},
	{"tcp.pred_dat_ratio", "ratio", "higher"},
	{"tcp.pred_ack_ratio", "ratio", "higher"},
	{"tcp.rexmit_per_MB", "1/MB", "lower"},
	{"tcp.delacks_per_op", "1/op", "lower"},
	{"tcp.timewait_overflow", "count", "lower"},
	{"tcp.syn_drops", "count", "lower"},
	{"udp.in_per_op", "1/op", "lower"},
	{"udp.drops", "count", "lower"},
	{"ip6.fastpath_ratio", "ratio", "higher"},
	{"ip6.fwd_cache_ratio", "ratio", "higher"},
	{"ip6.drops", "count", "lower"},
	{"ip4.drops", "count", "lower"},
	{"ip4.in_per_op", "1/op", "lower"},
	{"ipv6.preparse_ns", "ns", "lower"},
	{"inet.checksum_ns_per_KB", "ns/KB", "lower"},
	{"route.lookup_ns", "ns", "lower"},
	{"route.cached_ns", "ns", "lower"},
	{"pcb.lookup_ns", "ns", "lower"},
	{"pcb.len", "count", "lower"},
	{"ipsec.out_cache_ratio", "ratio", "higher"},
	{"ipsec.in_fail", "count", "lower"},
	{"ipsec.seal_ns_per_KB", "ns/KB", "lower"},
	{"ipsec.open_ns_per_KB", "ns/KB", "lower"},
	{"key.lookup_spi_ns", "ns", "lower"},
	{"key.miss_ratio", "ratio", "lower"},
	{"mbuf.gets_per_op", "1/op", "lower"},
	{"mbuf.prepend_spills", "count", "lower"},
	{"mbuf.outstanding_end", "bytes", "lower"},
	{"go.gc_pause_us", "us", "lower"},
	{"go.heap_bytes_per_op", "B/op", "lower"},
}

// expectedDrops are drop reasons a clean run produces by design: the
// connect leg fills the TIME_WAIT table past its cap on purpose.
var expectedDrops = map[string]string{
	"tcp-time-wait-overflow": "connect",
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// report is everything one run prints and stores.
type report struct {
	w         *workload
	r         *run
	secs      int
	traced    bool
	setups    []float64
	plain     []legResult
	tracedL   []legResult
	checks    []check
	e2e       metrics
	layers    metrics
	legLines  []string
	attempted int64
	failed    int64 // operations that did not complete correctly, plus failed checks
	stalled   int64 // operations that completed correctly after a stall
	// outstanding is the pooled mbuf bytes still out after quiescence.
	outstanding int64
}

func newReport(w *workload, r *run, secs int, traced bool, setups []float64, plain, tracedL []legResult, outstanding int64) *report {
	rep := &report{w: w, r: r, secs: secs, traced: traced, setups: setups, plain: plain, tracedL: tracedL, outstanding: outstanding}
	a := r.a
	drops := make(map[string]uint64)
	for _, l := range append(append([]legResult(nil), plain...), tracedL...) {
		for k, v := range l.reg.drops() {
			if expectedDrops[k] != l.name {
				drops[k] += v
			}
		}
		rep.attempted += l.attempted
		rep.failed += l.failed
		rep.stalled += l.stalled
	}
	errDetail := strings.Join(a.errSamples, "; ")
	rep.checks = []check{
		{"payload_exact", a.mismatches.Load() == 0, fmt.Sprintf("%d payloads differed from what was sent", a.mismatches.Load())},
		{"calls_ok", a.errs.Load() == 0, fmt.Sprintf("%d calls failed: %s", a.errs.Load(), errDetail)},
		{"datagrams_delivered", a.lost.Load() == 0, fmt.Sprintf("%d datagrams never arrived", a.lost.Load())},
		{"mbuf_outstanding_zero", outstanding == 0, fmt.Sprintf("%d bytes of pooled mbufs still out after quiescence", outstanding)},
		{"no_unexpected_drops", len(drops) == 0, fmt.Sprintf("unexpected drop reasons: %v", drops)},
	}
	for _, c := range rep.checks {
		rep.attempted++
		if !c.OK {
			rep.failed++
		}
	}

	p := &plain[0]
	rep.e2e = make(metrics)
	m := rep.e2e
	m.set("setup_s", "s", median(setups))
	m.sliced("mem_MB", "MB", p, func(s slice) float64 { return float64(s.memMean) / 1e6 })
	m.whole("allocs_per_op", "count", p, allocsPerOp)
	m.whole("op_p50_us", "us", p, pctUs(0.5))
	for i := range plain {
		rep.legLines = append(rep.legLines, legLine(&plain[i]))
	}
	return rep
}

// Per-slice figures.
func goodput(s slice) float64 { return float64(s.bytes) / s.secs / 1e6 }

func opRate(s slice) float64 { return float64(s.ops) / s.secs }

func perOp(f func(slice) float64) func(slice) float64 {
	return func(s slice) float64 { return ratio{f(s), float64(s.ops), ""}.value() }
}

var (
	cpuPerOp    = perOp(func(s slice) float64 { return float64(s.cpu) / 1e3 })
	allocsPerOp = perOp(func(s slice) float64 { return float64(s.mallocs) })
)

func pctUs(q float64) func(slice) float64 {
	return func(s slice) float64 {
		v, _ := s.lat.quantile(q)
		return v / 1e3
	}
}

// sliced sets name to the median over l's slices of f, recording the
// slice count and the operations behind it as the base.
func (m metrics) sliced(name, unit string, l *legResult, f func(slice) float64) {
	vs := make([]float64, 0, len(l.slices))
	var n int64
	for _, s := range l.slices {
		vs = append(vs, f(s))
		n += s.lat.n
	}
	m[name] = metric{v: median(vs), unit: unit, base: fmt.Sprintf("median of %d slices, %d samples", len(vs), n)}
}

// whole sets name to f of l's whole measured region: the slices'
// times, counts and latency samples summed.
func (m metrics) whole(name, unit string, l *legResult, f func(slice) float64) {
	w := slice{lat: new(hist)}
	for _, s := range l.slices {
		w.secs += s.secs
		w.ops += s.ops
		w.bytes += s.bytes
		w.cpu += s.cpu
		w.mallocs += s.mallocs
		w.lat.merge(s.lat)
	}
	m[name] = metric{v: f(w), unit: unit, base: fmt.Sprintf("whole region of %d slices, %d samples", len(l.slices), w.lat.n)}
}

// legFigures are the figures of one untraced leg under the names the
// paper's tables use.
func legFigures(l *legResult) metrics {
	m := make(metrics)
	switch l.name {
	case "stream6", "secure":
		m.sliced("goodput_MBps", "MB/s", l, goodput)
	case "stream4":
		m.sliced("goodput_v4_MBps", "MB/s", l, goodput)
	case "rr6":
		m.sliced("txn_p50_us", "us", l, pctUs(0.5))
		m.sliced("txn_p99_us", "us", l, pctUs(0.99))
		m.sliced("txn_per_s", "1/s", l, opRate)
	case "rr4":
		m.sliced("txn_v4_p50_us", "us", l, pctUs(0.5))
		m.sliced("txn_v4_per_s", "1/s", l, opRate)
	case "connect":
		c50, cn := l.conn.quantile(0.5)
		m["conn_p50_us"] = metric{v: c50 / 1e3, unit: "us", base: countBase(cn)}
		m.sliced("conn_per_s", "1/s", l, opRate)
	case "forward":
		m.sliced("pps", "1/s", l, opRate)
	}
	m.sliced("op_p99_us", "us", l, pctUs(0.99))
	for _, s := range l.slices {
		if !tailOK(0.99, s.lat.n) {
			mt := m["op_p99_us"]
			mt.base += "; a slice has fewer than 10 samples beyond its p99"
			m["op_p99_us"] = mt
			break
		}
	}
	m.ratio("fail_ratio", "ratio", ratio{float64(l.failed + l.stalled), float64(l.attempted), "ops attempted; stalled or failed"})
	m.sliced("cpu_us_per_op", "us", l, cpuPerOp)
	m.sliced("allocs_per_op", "count", l, allocsPerOp)
	return m
}

func legLine(l *legResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "leg %-8s %9d ops in %.2fs, %d attempted, %d stalled, %d failed", l.name, l.ops, l.reg.secs(), l.attempted, l.stalled, l.failed)
	figs := legFigures(l)
	for _, k := range sortedKeys(figs) {
		fmt.Fprintf(&b, "\n    %-16s %s", k, fmtMetric(figs[k]))
	}
	return b.String()
}

func fmtMetric(m metric) string {
	s := fmt.Sprintf("%.6g %s", m.v, m.unit)
	if m.base != "" {
		s += "  [" + m.base + "]"
	}
	return s
}

// addLayers fills the per-layer metrics from the traced legs, the
// untraced legs' secondary figures, and the tracing overhead.
func (rep *report) addLayers(plain, traced []legResult) {
	m := make(metrics)
	for i := range traced {
		for k, v := range traced[i].layers {
			if _, dup := m[k]; !dup {
				m[k] = v
			}
		}
	}
	m.ratio("fail_ratio", "ratio", ratio{float64(rep.failed + rep.stalled), float64(rep.attempted), "ops attempted, both passes, plus checks; stalled or failed"})
	m.set("core.stalls", "count", float64(rep.r.a.stalls.Load()))
	primary := legFigures(&plain[0])
	m["leg.op_p99_us"] = primary["op_p99_us"]
	m.whole("leg.cpu_us_per_op", "us", &plain[0], cpuPerOp)
	m.sliced("leg.goodput_MBps", "MB/s", &plain[0], goodput)
	for i := range plain {
		figs := legFigures(&plain[i])
		for src, dst := range map[string]string{
			"goodput_v4_MBps": "leg.goodput_v4_MBps", "txn_per_s": "leg.txn_per_s",
			"txn_v4_p50_us": "leg.txn_v4_p50_us", "conn_p50_us": "leg.conn_p50_us",
			"conn_per_s": "leg.conn_per_s", "pps": "leg.pps",
		} {
			if v, ok := figs[src]; ok {
				m[dst] = v
			}
		}
	}
	// Tracing overhead: wall time per op of the primary leg, traced
	// minus untraced.
	wall := func(l *legResult) float64 { return ratio{l.reg.secs() * 1e6, float64(l.ops), ""}.value() }
	u, t := wall(&plain[0]), wall(&traced[0])
	m.set("trace.overhead_us_per_op", "us", t-u)
	m.ratio("trace.overhead_pct", "%", ratio{(t - u) * 100, u, "untraced us per op"})
	m.set("mbuf.outstanding_end", "bytes", float64(rep.outstanding))
	for _, d := range perLayer {
		if _, ok := m[d.name]; !ok {
			m.set(d.name, d.unit, 0)
		}
	}
	rep.layers = m
}

// print writes the human-readable lines.
func (rep *report) print(w io.Writer) {
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%d trace=%v wire=in-process netif.Hub (no real link, zero faults)\n",
		rep.w.name, rep.r.in.seed, rep.secs, rep.traced)
	fmt.Fprintf(w, "why: %s\n", rep.w.why)
	fmt.Fprintf(w, "host: %s\n", mustJSON(host()))
	fmt.Fprintf(w, "setup: median %.4fs of %v\n", median(rep.setups), rep.setups)
	for _, s := range rep.legLines {
		fmt.Fprintln(w, s)
	}
	for _, c := range rep.checks {
		state := "ok  "
		if !c.OK {
			state = "FAIL"
		}
		fmt.Fprintf(w, "check %s %s: %s\n", state, c.Name, c.Detail)
	}
	fmt.Fprintf(w, "stalls: %d calls hit the %v deadline with work outstanding %v; of %d attempted, %d stalled and then completed correctly, %d failed\n",
		rep.r.a.stalls.Load(), callDeadline, rep.r.a.stallsByCall(), rep.attempted, rep.stalled, rep.failed)
	for _, d := range rep.defs() {
		fmt.Fprintf(w, "metric %-34s %s\n", d.name, fmtMetric(rep.shown()[d.name]))
	}
}

func (rep *report) defs() []metricDef {
	if rep.traced {
		return perLayer
	}
	return endToEnd
}

func (rep *report) shown() metrics {
	if rep.traced {
		return rep.layers
	}
	return rep.e2e
}

func (rep *report) correct() bool {
	for _, c := range rep.checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// printResult writes the final JSON line.
func (rep *report) printResult(w io.Writer) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{rep.correct(), max(rep.attempted, 1), rep.failed, make(map[string]mv)}
	for _, d := range rep.defs() {
		out.Metrics[d.name] = mv{rep.shown()[d.name].v, d.unit}
	}
	fmt.Fprintf(w, "%s\n", mustJSON(out))
}

// writeFile stores the run's detail: host, seed, wire, per-leg
// figures and counter deltas, checks and metrics with their bases.
func (rep *report) writeFile(path string) error {
	type metricOut struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
		Base  string  `json:"base,omitempty"`
	}
	conv := func(m metrics) map[string]metricOut {
		out := make(map[string]metricOut)
		for k, v := range m {
			out[k] = metricOut{v.v, v.unit, v.base}
		}
		return out
	}
	type legOut struct {
		Name      string                       `json:"name"`
		Pass      string                       `json:"pass"`
		Seconds   float64                      `json:"seconds"`
		Ops       int64                        `json:"ops"`
		Attempted int64                        `json:"attempted"`
		Stalled   int64                        `json:"stalled"`
		Failed    int64                        `json:"failed"`
		Figures   map[string]metricOut         `json:"figures"`
		Slices    [][6]float64                 `json:"slices_secs_ops_MBps_cpuus_p50us_p99us"`
		Counters  map[string]map[string]uint64 `json:"counter_deltas"`
	}
	var legs []legOut
	for pass, ls := range map[string][]legResult{"untraced": rep.plain, "traced": rep.tracedL} {
		for i := range ls {
			l := &ls[i]
			var sl [][6]float64
			for _, x := range l.slices {
				sl = append(sl, [6]float64{x.secs, float64(x.ops), goodput(x), cpuPerOp(x), pctUs(0.5)(x), pctUs(0.99)(x)})
			}
			legs = append(legs, legOut{l.name, pass, l.reg.secs(), l.ops, l.attempted, l.stalled, l.failed, conv(legFigures(l)), sl, l.reg.counterDeltas()})
		}
	}
	doc := map[string]any{
		"workload":  rep.w.name,
		"why":       rep.w.why,
		"seed":      rep.r.in.seed,
		"seconds":   rep.secs,
		"traced":    rep.traced,
		"wire":      "in-process netif.Hub, zero faults, no real link",
		"host":      host(),
		"setup_s":   rep.setups,
		"legs":      legs,
		"checks":    rep.checks,
		"stalls":    rep.r.a.stalls.Load(),
		"stalls_by": rep.r.a.stallsByCall(),
		"attempted": rep.attempted,
		"stalled":   rep.stalled,
		"failed":    rep.failed,
		"metrics":   conv(rep.shown()),
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
