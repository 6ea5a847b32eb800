// Command perfbench is the repository benchmark.  It drives the bsd6
// stack through its public functions over the in-process simulated
// wire (netif.Hub, zero faults, no real link), with one load process,
// closed-loop generators and at most two connections, and checks that
// every delivered byte is correct.
//
//	perfbench --workload stream|rr|secure|forward --seed N --seconds S --trace 0|1
//
// With --trace 0 it measures the workload untraced and prints the
// end-to-end metrics.  With --trace 1 it measures the workload twice,
// untraced and then traced (spans around every socket call, hub
// capture timestamps, counter deltas and a replay of the captured
// packets through per-packet functions), and prints the per-layer
// metrics with the tracing overhead.  The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// An operation fails when it does not complete correctly (a call
// errs, a payload is wrong, a datagram never arrives) and each failed
// check counts as one more; an operation whose call hit its deadline
// and then completed correctly is stalled, reported in the stall
// figures and the per-layer fail_ratio, not in "failed".
// Per-run detail (host, seed, counter deltas, checks, stall dumps,
// spans) goes to files under --out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"bsd6/internal/inet"
	"bsd6/internal/mbuf"
)

// setupRounds is how many times a run builds its testbed; setup_s is
// the median, and the last testbed built is the one measured.
const setupRounds = 51

// legWarm is each leg's unmeasured warm-up: connection ramp, caches.
const legWarm = 200 * time.Millisecond

// run is one invocation's shared state.
type run struct {
	in   *inputs
	a    *acct
	base time.Time
	tr   *tracer // nil in an untraced pass
}

func (r *run) since(t time.Time) int64 { return int64(t.Sub(r.base)) }

// legDef is one leg of a workload; share is its part of the pass time.
type legDef struct {
	kind  string
	share float64
	run   func(r *run, b *bed, warm, dur time.Duration) legResult
}

type workload struct {
	name, why string
	build     func(r *run, traced bool) (*bed, error)
	legs      []legDef // legs[0] is the primary leg the end-to-end metrics describe
}

var workloads = []*workload{
	{
		name: "stream",
		why:  "bulk TCP (8 KiB writes, 56 KiB buffers), IPv6 then IPv4: GSO, GRO, header prediction, checksum, mbuf chains and copy-out do the work; the IPv4 leg has no GSO",
		build: func(r *run, traced bool) (*bed, error) {
			b := newPair(traced, r.base)
			return b, b.ready(r, []listenSpec{
				{"stream6", inet.AFInet6, 0, streamBuf, false, true},
				{"stream4", inet.AFInet, 1, streamBuf, false, true},
			})
		},
		legs: []legDef{
			{"stream6", 0.5, func(r *run, b *bed, warm, dur time.Duration) legResult {
				return streamLeg(r, b, "stream6", inet.AFInet6, r.in.port, false, warm, dur)
			}},
			{"stream4", 0.5, func(r *run, b *bed, warm, dur time.Duration) legResult {
				return streamLeg(r, b, "stream4", inet.AFInet, r.in.port+1, false, warm, dur)
			}},
		},
	},
	{
		name: "rr",
		why:  "64-byte TCP request/response, one outstanding (IPv6, IPv4), then connect-transact-close: every packet crosses every layer once with nothing to batch",
		build: func(r *run, traced bool) (*bed, error) {
			b := newPair(traced, r.base)
			return b, b.ready(r, []listenSpec{
				{"rr6", inet.AFInet6, 0, 0, false, true},
				{"rr4", inet.AFInet, 1, 0, false, true},
				{"connect", inet.AFInet6, 2, 0, false, false},
			})
		},
		legs: []legDef{
			{"rr6", 0.5, func(r *run, b *bed, warm, dur time.Duration) legResult {
				return rrLeg(r, b, "rr6", inet.AFInet6, r.in.port, warm, dur)
			}},
			{"rr4", 0.25, func(r *run, b *bed, warm, dur time.Duration) legResult {
				return rrLeg(r, b, "rr4", inet.AFInet, r.in.port+1, warm, dur)
			}},
			{"connect", 0.25, func(r *run, b *bed, warm, dur time.Duration) legResult {
				return connectLeg(r, b, "connect", r.in.port+2, warm, dur)
			}},
		},
	},
	{
		name: "secure",
		why:  "the stream IPv6 leg under AES-GCM ESP transport both ways, sockets requiring encryption: ipsec and key do the work and GRO is bypassed",
		build: func(r *run, traced bool) (*bed, error) {
			b := newPair(traced, r.base)
			if err := b.addESP(r.in.seed); err != nil {
				b.close()
				return nil, err
			}
			return b, b.ready(r, []listenSpec{{"secure", inet.AFInet6, 0, streamBuf, true, true}})
		},
		legs: []legDef{
			{"secure", 1, func(r *run, b *bed, warm, dur time.Duration) legResult {
				return streamLeg(r, b, "secure", inet.AFInet6, r.in.port, true, warm, dur)
			}},
		},
	},
	{
		name: "forward",
		why:  "64-byte UDP over IPv6 through two topo routers with a fixed window: per-packet forwarding, route cache, router netisr and udp, no TCP",
		build: func(r *run, traced bool) (*bed, error) {
			b, err := newLine(traced, r.base, r.in.seed)
			if err != nil {
				return nil, err
			}
			return b, b.readyLine(r.in.port)
		},
		legs: []legDef{
			{"forward", 1, func(r *run, b *bed, warm, dur time.Duration) legResult {
				return forwardLeg(r, b, "forward", r.in.port, warm, dur)
			}},
		},
	},
}

// pass runs every leg of w once on b, splitting total by leg share.
// A traced pass reads each leg's per-layer figures before the next leg
// restarts the captures.
func (r *run) pass(w *workload, b *bed, total time.Duration) []legResult {
	var out []legResult
	for _, l := range w.legs {
		res := l.run(r, b, legWarm, time.Duration(float64(total)*l.share))
		if r.tr != nil {
			res.layers = legLayers(r, b, l.kind, &res)
		}
		out = append(out, res)
	}
	return out
}

func main() {
	wname := flag.String("workload", "", "stream, rr, secure or forward")
	seed := flag.Int64("seed", 1, "workload seed: payload bytes and ports")
	secs := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 adds a traced pass and prints per-layer metrics")
	outDir := flag.String("out", filepath.Join(".bench_build", "perfbench-results"), "directory for per-run detail files")
	flag.Parse()

	var w *workload
	for _, c := range workloads {
		if c.name == *wname {
			w = c
		}
	}
	if w == nil || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload stream|rr|secure|forward --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	prefix := fmt.Sprintf("%s-seed%d-trace%d", w.name, *seed, *trace)
	r := &run{in: newInputs(*seed), a: &acct{dumpDir: *outDir, dumpPrefix: prefix}, base: time.Now()}
	traced := *trace == 1

	var setups []float64
	var b *bed
	for i := 0; i < setupRounds; i++ {
		t0 := time.Now()
		nb, err := w.build(r, traced)
		if err != nil {
			fatal(fmt.Errorf("set up %s: %w", w.name, err))
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupRounds-1 {
			nb.shutdown()
		} else {
			b = nb
		}
	}

	total := time.Duration(*secs) * time.Second
	var plain, tracedLegs []legResult
	var tr *tracer
	if traced {
		plain = r.pass(w, b, total/2)
		tr = newTracer(r.base)
		rt := *r
		rt.tr = tr
		tracedLegs = rt.pass(w, b, total/2)
	} else {
		plain = r.pass(w, b, total)
	}

	b.shutdown()
	outstanding := waitMbufZero(2 * time.Second)

	rep := newReport(w, r, *secs, traced, setups, plain, tracedLegs, outstanding)
	if traced {
		rep.addLayers(plain, tracedLegs)
		if err := tr.write(filepath.Join(*outDir, w.name+"-spans.csv")); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: spans:", err)
		}
	}
	rep.print(os.Stdout)
	if err := rep.writeFile(filepath.Join(*outDir, prefix+".json")); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: results file:", err)
	}
	rep.printResult(os.Stdout)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// waitMbufZero waits up to limit for every pooled mbuf to come back
// and returns the bytes still out.
func waitMbufZero(limit time.Duration) int64 {
	deadline := time.Now().Add(limit)
	for mbuf.Outstanding() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return mbuf.Outstanding()
}

// host describes where the run happened.
func host() map[string]any {
	sha := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				sha = s.Value
			}
		}
	}
	return map[string]any{
		"cores":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"git_sha":    sha,
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		fatal(err)
	}
	return b
}
