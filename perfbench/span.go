package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span names.  A span wraps one call into the stack (core.*) or one
// benchmark-level operation (op.*, srv.*) whose children are the
// calls that served it.
const (
	spSend uint8 = iota
	spReadWait
	spConnect
	spAccept
	spClose
	spOpWrite
	spOpTxn
	spOpConn
	spOpDgram
	spSrvEcho
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"core.send", "core.read_wait", "core.connect", "core.accept", "core.close",
	"op.write", "op.txn", "op.conn", "op.dgram", "srv.echo",
}

// span is one timed interval; times are nanoseconds since the
// tracer's base.  parent indexes the same buffer (-1 for a root) and
// txn ties the spans of one operation together across goroutines.
type span struct {
	start, end int64
	txn        int64
	parent     int32
	name       uint8
}

// spanBuf is one goroutine's span log: appends need no lock.  It
// holds at most max spans; later spans are counted but not kept, so
// a long traced run has a bounded memory cost.
type spanBuf struct {
	tr      *tracer
	leg     string
	spans   []span
	max     int
	dropped int
}

// tracer owns the span buffers of a traced pass.  A nil *tracer and
// a nil *spanBuf are valid and record nothing, so the untraced pass
// runs the same code.
type tracer struct {
	base time.Time
	mu   sync.Mutex
	bufs []*spanBuf
}

func newTracer(base time.Time) *tracer { return &tracer{base: base} }

// buf returns a new span log for one goroutine of leg.
func (t *tracer) buf(leg string, max int) *spanBuf {
	if t == nil {
		return nil
	}
	b := &spanBuf{tr: t, leg: leg, max: max}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// begin opens a span and returns its index (-1 when not kept).
func (b *spanBuf) begin(name uint8, parent int32, txn int64) int32 {
	if b == nil {
		return -1
	}
	if len(b.spans) >= b.max {
		b.dropped++
		return -1
	}
	b.spans = append(b.spans, span{start: int64(time.Since(b.tr.base)), txn: txn, parent: parent, name: name})
	return int32(len(b.spans) - 1)
}

// end closes span i.
func (b *spanBuf) end(i int32) {
	if b == nil || i < 0 {
		return
	}
	b.spans[i].end = int64(time.Since(b.tr.base))
}

// selfTimes returns each span's duration minus the part of its
// interval covered by its children (overlapping children count once).
func selfTimes(spans []span) []int64 {
	kids := make(map[int32][]int32)
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start
		ks := kids[int32(i)]
		if len(ks) == 0 {
			continue
		}
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].start < spans[ks[b]].start })
		covered := int64(0)
		curS, curE := int64(-1), int64(-1)
		for _, k := range ks {
			cs, ce := max(spans[k].start, s.start), min(spans[k].end, s.end)
			if ce <= cs {
				continue
			}
			if cs > curE {
				covered += curE - curS
				curS, curE = cs, ce
			} else if ce > curE {
				curE = ce
			}
		}
		covered += curE - curS
		self[i] -= covered
	}
	return self
}

// kept reports whether s is a closed span lying inside [t0, t1].
func kept(s span, t0, t1 int64) bool { return s.end != 0 && s.start >= t0 && s.end <= t1 }

// selfByName collects the self times of the spans of one leg that lie
// inside [t0, t1], per span name.
func (t *tracer) selfByName(leg string, t0, t1 int64) [numSpanNames]hist {
	var out [numSpanNames]hist
	if t == nil {
		return out
	}
	for _, b := range t.bufs {
		if b.leg != leg {
			continue
		}
		self := selfTimes(b.spans)
		for i, s := range b.spans {
			if kept(s, t0, t1) {
				out[s.name].add(self[i])
			}
		}
	}
	return out
}

// spansOf returns the spans of one leg named name inside [t0, t1].
func (t *tracer) spansOf(leg string, name uint8, t0, t1 int64) []span {
	var out []span
	if t == nil {
		return out
	}
	for _, b := range t.bufs {
		if b.leg != leg {
			continue
		}
		for _, s := range b.spans {
			if s.name == name && kept(s, t0, t1) {
				out = append(out, s)
			}
		}
	}
	return out
}

// durations is the whole-span times of spansOf.
func (t *tracer) durations(leg string, name uint8, t0, t1 int64) *hist {
	h := new(hist)
	for _, s := range t.spansOf(leg, name, t0, t1) {
		h.add(s.end - s.start)
	}
	return h
}

// write stores every kept span as CSV: leg, goroutine, index, name,
// start_ns, end_ns, self_ns, parent, txn.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "leg,goroutine,index,name,start_ns,end_ns,self_ns,parent,txn")
	dropped := 0
	for g, b := range t.bufs {
		self := selfTimes(b.spans)
		for i, s := range b.spans {
			fmt.Fprintf(w, "%s,%d,%d,%s,%d,%d,%d,%d,%d\n", b.leg, g, i, spanNames[s.name], s.start, s.end, self[i], s.parent, s.txn)
		}
		dropped += b.dropped
	}
	fmt.Fprintf(w, "# spans beyond the per-goroutine cap, not recorded: %d\n", dropped)
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
