package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bsd6/internal/core"
)

// callDeadline bounds every socket call the generator and servers
// make.  A call that reaches it while the work it waits for is
// outstanding is a stall: it marks its operation stalled and is then
// resumed, so a lost wakeup shows in the stall figures instead of
// hanging or aborting the run.  A stalled operation that then
// completes with the right bytes has not failed; only one that does
// not complete correctly has.  Normal calls finish in microseconds;
// the deadline is also what each lost wakeup costs the throughput.
const callDeadline = 20 * time.Millisecond

// patternLen is the period of the payload byte sequence.  It is prime,
// so 8 KiB writes land at a different phase of the pattern each time.
const patternLen = 65521

// inputs is everything a run generates: payload bytes and ports.  It
// is a function of the seed alone.
type inputs struct {
	seed int64
	// pattern is patternLen seeded bytes followed by a copy of its
	// first 64 KiB, so any window of up to 64 KiB starting inside the
	// period is one contiguous slice.
	pattern []byte
	// port is the first of the run's listening ports.
	port uint16
}

func newInputs(seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	p := make([]byte, patternLen+64<<10)
	rng.Read(p[:patternLen])
	copy(p[patternLen:], p)
	return &inputs{seed: seed, pattern: p, port: uint16(20000 + rng.Intn(30000))}
}

// at returns the n payload bytes at stream offset off (n ≤ 64 KiB).
func (in *inputs) at(off int64, n int) []byte {
	o := int(off % patternLen)
	return in.pattern[o : o+n]
}

// matches reports whether b equals the payload at stream offset off.
func (in *inputs) matches(off int64, b []byte) bool {
	for len(b) > 0 {
		k := min(len(b), 64<<10)
		if !bytes.Equal(b[:k], in.at(off, k)) {
			return false
		}
		b, off = b[k:], off+int64(k)
	}
	return true
}

// acct counts a run's stalls and correctness failures.  It is shared
// by every goroutine of the run.
type acct struct {
	stalls     atomic.Int64 // calls that hit callDeadline with work outstanding
	mismatches atomic.Int64 // payloads that differ from what was sent
	errs       atomic.Int64 // calls that failed outright (reset, refused)
	lost       atomic.Int64 // datagrams sent and never delivered
	dumpDir    string
	dumpPrefix string
	dumps      atomic.Int64
	mu         sync.Mutex
	errSamples []string
	stallsBy   map[string]int64 // stalls by the call that hit the deadline
}

// maxDumps bounds the stall dumps one run writes.
const maxDumps = 3

// stuckAfter is how many deadlines in a row one call may reach with
// its work outstanding before it gives up (one second).  A lost
// wakeup is over at the first deadline, when the call looks again; a
// call still waiting this long waits for something that is not coming,
// and the run must end with a result instead of hanging.
const stuckAfter = 50

var errStuck = fmt.Errorf("no progress in %d deadlines of %v", stuckAfter, callDeadline)

// stall records one deadline stall in call and writes a goroutine dump
// beside the results for the first few.
func (a *acct) stall(call string) {
	a.stalls.Add(1)
	a.mu.Lock()
	if a.stallsBy == nil {
		a.stallsBy = make(map[string]int64)
	}
	a.stallsBy[call]++
	a.mu.Unlock()
	if n := a.dumps.Add(1); n <= maxDumps {
		a.dump(fmt.Sprintf("stall%d", n), fmt.Sprintf("stalled call: %s (deadline %v)", call, callDeadline))
	}
}

// stuck records a call that gave up after stuckAfter stalls in a row,
// with a goroutine dump, and returns its error.
func (a *acct) stuck(call string) error {
	err := fmt.Errorf("%s: %w", call, errStuck)
	a.dump("stuck-"+call, "stuck call: "+err.Error())
	return err
}

// dump writes every goroutine's stack beside the results.
func (a *acct) dump(suffix, header string) {
	if a.dumpDir == "" {
		return
	}
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	name := filepath.Join(a.dumpDir, a.dumpPrefix+"-"+suffix+".txt")
	if err := os.WriteFile(name, []byte(header+"\n\n"+string(buf)), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: goroutine dump:", err)
	}
}

// fail records a call that returned an error other than its deadline.
func (a *acct) fail(call string, err error) {
	a.errs.Add(1)
	a.mu.Lock()
	if len(a.errSamples) < 8 {
		a.errSamples = append(a.errSamples, call+": "+err.Error())
	}
	a.mu.Unlock()
}

// stamp is what an operation reads before and after itself: if bad
// moved, some call serving the operation failed or a payload was
// wrong; if only stalls moved, a call stalled and was resumed.
type stamp struct{ stalls, bad int64 }

func (a *acct) stamp() stamp {
	return stamp{a.stalls.Load(), a.errs.Load() + a.mismatches.Load()}
}

// stallsByCall copies the per-call stall counts.
func (a *acct) stallsByCall() map[string]int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]int64, len(a.stallsBy))
	for k, v := range a.stallsBy {
		out[k] = v
	}
	return out
}

// isTimeout reports a call that hit its deadline.
func isTimeout(err error) bool { return errors.Is(err, core.ErrTimeoutSock) }

// sendAll writes all of p on a stream socket, resuming after each
// deadline stall.  It returns the first error other than a stall, or
// errStuck once stuckAfter stalls pass without a byte sent.
func (a *acct) sendAll(s *core.Socket, p []byte, sb *spanBuf, parent int32, txn int64) error {
	for inRow := 0; len(p) > 0; {
		sp := sb.begin(spSend, parent, txn)
		n, err := s.Send(p, callDeadline)
		sb.end(sp)
		p = p[n:]
		if n > 0 {
			inRow = 0
		}
		switch {
		case err == nil:
		case isTimeout(err):
			a.stall("Send")
			if inRow++; inRow == stuckAfter {
				err = a.stuck("Send")
				a.fail("Send", err)
				return err
			}
		default:
			a.fail("Send", err)
			return err
		}
	}
	return nil
}

// readSome reads into p once data arrives.  A deadline counts as a
// stall only while pending reports work outstanding for this reader;
// otherwise the peer is simply idle.  Once stop is set a deadline ends
// the wait instead, and stuckAfter stalls in a row end it with
// errStuck.
func (a *acct) readSome(s *core.Socket, p []byte, pending func() bool, stop *atomic.Bool, sb *spanBuf, parent int32, txn int64) (int, error) {
	for inRow := 0; ; {
		sp := sb.begin(spReadWait, parent, txn)
		n, err := s.ReadInto(p, callDeadline)
		sb.end(sp)
		switch {
		case err == nil:
			return n, nil
		case isTimeout(err):
			if stop != nil && stop.Load() {
				return 0, err
			}
			if pending() {
				a.stall("ReadInto")
				if inRow++; inRow == stuckAfter {
					return 0, a.stuck("ReadInto")
				}
			}
		default:
			return 0, err
		}
	}
}

// readFull reads exactly len(p) bytes (the client side of a
// transaction always has work outstanding).
func (a *acct) readFull(s *core.Socket, p []byte, sb *spanBuf, parent int32, txn int64) error {
	for got := 0; got < len(p); {
		n, err := a.readSome(s, p[got:], func() bool { return true }, nil, sb, parent, txn)
		if err != nil {
			a.fail("ReadInto", err)
			return err
		}
		got += n
	}
	return nil
}
