package netperf

import (
	"fmt"
	"slices"
	"sync/atomic"

	"bsd6/internal/core"
)

// Trials is how many times Measure runs each leg of a cell.  A cell
// reports the median and the spread between the quartiles of its
// trials, as Raicu's empirical IPv6 study reports each cell over
// repeated trials (PAPERS.md), so that a change can be told from
// noise.
const Trials = 5

// Stat is one leg's figure over its trials.
type Stat struct {
	Leg    string    `json:"leg"`
	N      int       `json:"n"`
	Median float64   `json:"median"`
	IQR    float64   `json:"iqr"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Trials []float64 `json:"trials"` // in the order they ran
}

// A Leg is one path a cell measures: the server address the client
// connects to (Measure chooses the port) and the options both ends'
// sockets take.
type Leg struct {
	Name string
	Dst  core.Sockaddr6
	Tune SocketTuner
}

// A Cell is one NetPerf measurement from Cli to Srv, taken over each
// of its legs.
type Cell struct {
	Cli, Srv *core.Stack
	Legs     []Leg
	TCP      bool
	Stream   bool  // throughput in KB/s; otherwise request-response latency in µs
	Size     int   // bytes per message
	Sockbuf  int   // socket buffer bytes; 0 keeps the default
	Iters    int   // transactions per request-response trial
	Bytes    int64 // bytes per stream trial
}

// ports numbers the servers Measure starts, so none reuses a port a
// dying connection of an earlier cell may still hold.
var ports atomic.Uint32

// Measure takes cell: it starts a server per leg, warms each leg with
// a short untimed run (connection set-up, ARP or ND), and then runs
// Trials trials of every leg through Repeat.
func Measure(c Cell) ([]Stat, error) {
	runs := make([]func() (float64, error), len(c.Legs))
	for i, leg := range c.Legs {
		port := uint16(20000 + ports.Add(1)%40000)
		sv, err := newServer(c.Srv, c.TCP, port, c.Sockbuf, leg.Tune, !c.Stream) // a sink for a stream, else an echo
		if err != nil {
			return nil, fmt.Errorf("netperf: %s server: %w", leg.Name, err)
		}
		defer sv.Close()
		leg.Dst.Port = port
		warm := c
		warm.Iters, warm.Bytes = 10, 16*int64(c.Size)
		if _, err := warm.trial(sv, leg); err != nil {
			return nil, fmt.Errorf("netperf: %s warm-up: %w", leg.Name, err)
		}
		runs[i] = func() (float64, error) { return c.trial(sv, leg) }
	}
	stats, err := Repeat(runs...)
	if err != nil {
		return nil, fmt.Errorf("netperf: trial: %w", err)
	}
	for i := range stats {
		stats[i].Leg = c.Legs[i].Name
	}
	return stats, nil
}

// trial runs the cell once over leg, whose server is sv.
func (c Cell) trial(sv *Server, leg Leg) (float64, error) {
	if c.Stream {
		res, err := RunStream(c.Cli, sv, leg.Dst, c.TCP, c.Size, c.Sockbuf, c.Bytes, leg.Tune)
		return res.KBps, err
	}
	res, err := RunRR(c.Cli, leg.Dst, c.TCP, c.Size, c.Iters, c.Sockbuf, leg.Tune)
	return float64(res.MeanRTT.Nanoseconds()) / 1e3, err
}

// Repeat runs each leg Trials times and summarises each one's
// figures.  The leg that goes first rotates from trial to trial (IPv4
// then IPv6, then IPv6 then IPv4, ...), so drift in the host's load
// falls on every leg alike.
func Repeat(legs ...func() (float64, error)) ([]Stat, error) {
	figs := make([][]float64, len(legs))
	for t := range Trials {
		for k := range legs {
			i := (t + k) % len(legs)
			v, err := legs[i]()
			if err != nil {
				return nil, err
			}
			figs[i] = append(figs[i], v)
		}
	}
	stats := make([]Stat, len(legs))
	for i, f := range figs {
		stats[i] = summarize(f)
	}
	return stats, nil
}

// summarize takes the median and quartiles of trials, each the trial
// of the nearest rank (of 5 trials: the 2nd, 3rd and 4th).
func summarize(trials []float64) Stat {
	s := slices.Clone(trials)
	slices.Sort(s)
	q := func(p float64) float64 { return s[int(p*float64(len(s)-1)+0.5)] }
	st := Stat{N: len(s), Q1: q(0.25), Median: q(0.5), Q3: q(0.75), Trials: trials}
	st.IQR = st.Q3 - st.Q1
	return st
}

// A Row is one line of a table: what it measured and each leg's Stat.
type Row struct {
	Label string `json:"label"`
	Stats []Stat `json:"stats"`
}

// A Table is one table of a run: its rows, and the protocol counters
// and drop reasons the table's stacks moved.
type Table struct {
	Name     string            `json:"name"`
	Unit     string            `json:"unit"`
	Key      string            `json:"key"` // what a row's label gives
	Rows     []Row             `json:"rows"`
	Counters map[string]uint64 `json:"counters,omitempty"`
}

// Report is a whole run, as ipbench -json writes it.
type Report struct {
	Date   string  `json:"date"`
	Trials int     `json:"trials"`
	Iters  int     `json:"iters"` // transactions per request-response trial
	MB     int     `json:"mb"`    // megabytes per stream trial
	Tables []Table `json:"tables"`
}

// Count adds what stacks have counted to t.Counters: each non-zero
// protocol counter as "<protocol>.<Counter>" and each drop reason as
// "drop.<reason>".  A stack's counters start at zero, so counting a
// table's stacks as it tears them down records what its runs moved.
func (t *Table) Count(stacks ...*core.Stack) {
	for _, s := range stacks {
		snap := s.Snapshot()
		for proto, m := range map[string]map[string]uint64{
			"ip6": snap.IP6, "ip4": snap.IP4, "icmp6": snap.ICMP6, "icmp4": snap.ICMP4,
			"tcp": snap.TCP, "udp": snap.UDP, "ipsec": snap.IPsec, "key": snap.Key, "drop": snap.Reasons,
		} {
			for name, n := range m {
				if n == 0 {
					continue
				}
				if t.Counters == nil {
					t.Counters = map[string]uint64{}
				}
				t.Counters[proto+"."+name] += n
			}
		}
	}
}
