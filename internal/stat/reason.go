// Drop-reason taxonomy and the flight recorder.
//
// The paper's only window into the stack is the modified netstat(8)
// (§4.3, §3.4): counters exist, but a packet that vanishes on an input
// path vanishes silently.  The taxonomy below names every discard the
// stack can perform; each silent `return` on an input path increments
// exactly one Reason, so a hostile-link run can be diffed down to *why*
// packets disappeared, not merely *that* they did.  The Recorder pairs
// the counter map with a bounded trace ring — the last N drop/control
// events with their virtual-clock timestamps — the way production
// stacks grew `netstat -s` plus drop-reason tracepoints.
package stat

import (
	"sync"
	"time"
)

// Reason identifies one packet-discard cause in the stack-wide
// taxonomy.  Reasons are stable identifiers: tests and snapshot diffs
// key on their names.
type Reason uint8

const (
	// ReasonNone is the zero Reason; it is never counted.
	ReasonNone Reason = iota

	// Link layer / netisr.
	RLinkFiltered // frame rejected by the MAC filter or a down interface
	RInqFull      // netisr input queue overflowed (BSD's IF_DROP)

	// IPv6 input (ipv6_input / preparse, §2.2).
	RV6BadHeader    // unparseable or short base header
	RV6Truncated    // payload shorter than the payload-length field
	RV6NotForUs     // not our address and not forwarding
	RV6BadExtChain  // malformed or misordered extension chain
	RV6OptionDrop   // option with a discard action (§2.1 option types)
	RV6RouteHdrErr  // malformed or unsatisfiable routing header
	RV6UnknownProt  // no transport registered for the final header
	RV6ReasmFail    // fragment rejected by the reassembly buffer
	RV6ReasmTimeout // reassembly abandoned: 60s elapsed without completion
	RV6HopLimit     // hop limit exhausted while forwarding
	RV6NoRoute      // no route while forwarding
	RV6TooBig       // forwarding would exceed the link MTU (PTB sent)
	RV6ReinjectLoop // decryption/reassembly reinjection depth exceeded

	// IPv4 input.
	RV4BadHeader    // unparseable header, bad checksum, or short packet
	RV4NotForUs     // not our address and not forwarding
	RV4UnknownProt  // no transport registered for the protocol field
	RV4ReasmFail    // fragment rejected by the reassembly buffer
	RV4ReasmTimeout // reassembly abandoned: lifetime elapsed incomplete
	RV4TTLExceeded  // TTL exhausted while forwarding
	RV4NoRoute      // no route while forwarding
	RArpBad         // malformed or self-addressed ARP packet

	// ICMPv6 (§4).
	RICMP6Short       // message shorter than the fixed header or body
	RICMP6BadSum      // pseudo-header checksum failure
	RNDBadHopLimit    // ND message without hop limit 255 (off-link forgery)
	RMLDBadHopLimit   // group message without hop limit 1 (off-link forgery)
	RMLDBadSource     // group message from a non-link-local source
	RICMP6CtlShort    // error message whose embedded offender is truncated
	RICMP6PolicyDrop  // echo suppressed by the input security policy
	RICMP6RateLimited // outbound error suppressed by the RFC 1885 token bucket
	RICMP6PTBClamped  // Packet Too Big below the IPv6 minimum MTU (forged PTB)

	// TCP input (§5.3).
	RTCPBadSum     // pseudo-header checksum failure
	RTCPBadHeader  // segment shorter than its own data offset
	RTCPNoPCB      // no matching connection (RST answered, segment dropped)
	RTCPPolicyDrop // segment suppressed by the input security policy

	// UDP input (§5.2).
	RUDPShort      // datagram shorter than its own length field
	RUDPBadSum     // pseudo-header checksum failure
	RUDPNoSum6     // IPv6 datagram illegally lacking a checksum
	RUDPNoPort     // no socket bound to the destination port
	RUDPPolicyDrop // datagram suppressed by the input security policy

	// IP security input/output (§3.3, §3.4).
	RSecAuthFail    // AH/ESP authenticator mismatch
	RSecNoSA        // no security association for the arriving SPI
	RSecDecryptFail // ESP payload would not decrypt or unpad
	RSecPolicyDrop  // cleartext packet a policy says must be protected
	RSecTunnelAddr  // inner/outer source mismatch on a tunneled datagram
	RSecNoSAOut     // required association unavailable on output (EIPSEC)
	RSecReplay      // sequence number outside or already in the replay window
	RSecBadICV      // AEAD ESP integrity check value failed
	RSecExpired     // association past its hard lifetime but not yet reaped
	RSecStaleSA     // SPI of a recently deleted association (rekey race)

	// Resource governance: induced discards when a ceiling is hit.
	RV6ReasmOverflow // reassembly quota evicted an in-progress v6 datagram
	RV4ReasmOverflow // reassembly quota evicted an in-progress v4 datagram
	RNbrCacheEvicted // neighbor-cache cap evicted a dynamic host route
	RNDQueueFull     // per-neighbor pending-packet queue overflowed
	RArpQueueFull    // per-ARP-entry pending-packet queue overflowed
	RMbufLimit       // netisr queued-byte ceiling refused an input frame

	// Connection-demux governance (SYN cookies and the TIME_WAIT table).
	RTCPSynCookieFailed  // listener ACK failed SYN-cookie validation (forged or stale)
	RTCPTimeWaitOverflow // TIME_WAIT table cap evicted the oldest 2MSL record

	// Configured tunnels (6in4 / 4in6 / 6in6 decap, RFC 2473 rules).
	RTunNoEndpoint // encapsulated packet from no configured tunnel endpoint
	RTunBadHeader  // inner packet unparseable or wrong version for the mode
	RTunNestLimit  // RFC 2473 tunnel-nesting limit exceeded (encap loop)
	RTunMartian    // inner source is loopback/multicast/unspecified
	RTunAFMismatch // outer address family does not match the tunnel mode

	// Neighbor resolution: packets held for a neighbor that never
	// answered, freed when its entry is rejected.
	RArpResolveFailed // ARP resolution used up its requests
	RNDResolveFailed  // Neighbor Discovery used up its solicitations

	// IPv6 reassembly policy (RFC 5722): fragments that overlap
	// abandon their datagram.
	RV6ReasmOverlap // overlapping fragments abandoned an IPv6 datagram

	// Fragments refused before reassembly: a non-final fragment whose
	// length is not a multiple of 8 (RFC 8200 §4.5, FreeBSD's
	// ip_reass), and a first fragment that does not carry the whole
	// header chain (RFC 7112).
	RV6FragUnaligned   // non-final IPv6 fragment not a multiple of 8 bytes
	RV4FragUnaligned   // non-final IPv4 fragment not a multiple of 8 bytes
	RV6FragHeaderChain // first IPv6 fragment without the whole header chain

	RICMP4RateLimited // outbound ICMPv4 error refused by the layer's token bucket

	reasonCount // sentinel: number of reasons, keep last
)

// reasonNames maps each Reason to its stable snapshot key.
var reasonNames = [reasonCount]string{
	ReasonNone:        "none",
	RLinkFiltered:     "link-filtered",
	RInqFull:          "netisr-queue-full",
	RV6BadHeader:      "ip6-bad-header",
	RV6Truncated:      "ip6-truncated",
	RV6NotForUs:       "ip6-not-for-us",
	RV6BadExtChain:    "ip6-bad-ext-chain",
	RV6OptionDrop:     "ip6-option-discard",
	RV6RouteHdrErr:    "ip6-routing-header",
	RV6UnknownProt:    "ip6-unknown-proto",
	RV6ReasmFail:      "ip6-reasm-fail",
	RV6ReasmTimeout:   "ip6-reasm-timeout",
	RV6HopLimit:       "ip6-hop-limit",
	RV6NoRoute:        "ip6-no-route",
	RV6TooBig:         "ip6-too-big",
	RV6ReinjectLoop:   "ip6-reinject-loop",
	RV4BadHeader:      "ip4-bad-header",
	RV4NotForUs:       "ip4-not-for-us",
	RV4UnknownProt:    "ip4-unknown-proto",
	RV4ReasmFail:      "ip4-reasm-fail",
	RV4ReasmTimeout:   "ip4-reasm-timeout",
	RV4TTLExceeded:    "ip4-ttl-exceeded",
	RV4NoRoute:        "ip4-no-route",
	RArpBad:           "arp-bad-packet",
	RICMP6Short:       "icmp6-short",
	RICMP6BadSum:      "icmp6-bad-checksum",
	RNDBadHopLimit:    "nd-bad-hop-limit",
	RMLDBadHopLimit:   "mld-bad-hop-limit",
	RMLDBadSource:     "mld-bad-source",
	RICMP6CtlShort:    "icmp6-ctl-truncated",
	RICMP6PolicyDrop:  "icmp6-policy-drop",
	RICMP6RateLimited: "icmp6-rate-limited",
	RICMP6PTBClamped:  "icmp6-ptb-clamped",
	RTCPBadSum:        "tcp-bad-checksum",
	RTCPBadHeader:     "tcp-bad-header",
	RTCPNoPCB:         "tcp-no-pcb",
	RTCPPolicyDrop:    "tcp-policy-drop",
	RUDPShort:         "udp-short",
	RUDPBadSum:        "udp-bad-checksum",
	RUDPNoSum6:        "udp-missing-checksum6",
	RUDPNoPort:        "udp-no-port",
	RUDPPolicyDrop:    "udp-policy-drop",
	RSecAuthFail:      "ipsec-auth-fail",
	RSecNoSA:          "ipsec-no-sa",
	RSecDecryptFail:   "ipsec-decrypt-fail",
	RSecPolicyDrop:    "ipsec-policy-drop",
	RSecTunnelAddr:    "ipsec-tunnel-src",
	RSecNoSAOut:       "ipsec-no-sa-out",
	RSecReplay:        "ipsec-replay",
	RSecBadICV:        "ipsec-bad-icv",
	RSecExpired:       "ipsec-sa-expired",
	RSecStaleSA:       "ipsec-sa-stale",
	RV6ReasmOverflow:  "ip6-reasm-overflow",
	RV4ReasmOverflow:  "ip4-reasm-overflow",
	RNbrCacheEvicted:  "nd-cache-evicted",
	RNDQueueFull:      "nd-queue-overflow",
	RArpQueueFull:     "arp-queue-overflow",
	RMbufLimit:        "mbuf-limit",

	RTCPSynCookieFailed:  "tcp-syn-cookie-failed",
	RTCPTimeWaitOverflow: "tcp-time-wait-overflow",

	RTunNoEndpoint: "tunnel-no-endpoint",
	RTunBadHeader:  "tunnel-bad-inner",
	RTunNestLimit:  "tunnel-nest-limit",
	RTunMartian:    "tunnel-martian",
	RTunAFMismatch: "tunnel-af-mismatch",

	RArpResolveFailed: "arp-resolve-failed",
	RNDResolveFailed:  "nd-resolve-failed",

	RV6ReasmOverlap: "ip6-reasm-overlap",

	RV6FragUnaligned:   "ip6-frag-unaligned",
	RV4FragUnaligned:   "ip4-frag-unaligned",
	RV6FragHeaderChain: "ip6-frag-header-chain",

	RICMP4RateLimited: "icmp4-rate-limited",
}

// String returns the reason's stable snapshot key.
func (r Reason) String() string {
	if int(r) < len(reasonNames) && reasonNames[r] != "" {
		return reasonNames[r]
	}
	return "unknown"
}

// NumReasons returns the size of the taxonomy (excluding ReasonNone);
// the audit test walks [1, NumReasons] asserting every entry is named.
func NumReasons() int { return int(reasonCount) - 1 }

// Reasons is the stack-wide drop-reason counter map, keyed by the
// Reason enum.  The zero value is ready to use; it must not be copied
// after first use.
type Reasons struct {
	_ noCopy
	c [reasonCount]Counter
}

// Inc counts one drop for the reason. ReasonNone and out-of-range
// values are ignored.
func (rs *Reasons) Inc(r Reason) {
	if r > ReasonNone && r < reasonCount {
		rs.c[r].Inc()
	}
}

// Get returns the count for one reason.
func (rs *Reasons) Get(r Reason) uint64 {
	if r >= reasonCount {
		return 0
	}
	return rs.c[r].Get()
}

// Total returns the sum over the whole taxonomy.
func (rs *Reasons) Total() uint64 {
	var t uint64
	for r := ReasonNone + 1; r < reasonCount; r++ {
		t += rs.c[r].Get()
	}
	return t
}

// Snapshot returns the non-zero counters keyed by reason name —
// JSON-serializable and diffable across runs.
func (rs *Reasons) Snapshot() map[string]uint64 {
	out := make(map[string]uint64)
	for r := ReasonNone + 1; r < reasonCount; r++ {
		if v := rs.c[r].Get(); v != 0 {
			out[r.String()] = v
		}
	}
	return out
}

// TraceEvent is one flight-recorder entry: a drop or a received
// control (ICMP error) event, stamped with the stack's (virtual)
// clock.  Pkt holds the leading bytes of the discarded packet when the
// drop site had one; internal/dump renders it into a one-liner at
// query time so the hot path never pays for formatting.
type TraceEvent struct {
	Seq    uint64    `json:"seq"`
	Time   time.Time `json:"time"`
	Kind   string    `json:"kind"` // "drop" or "ctl"
	Reason string    `json:"reason,omitempty"`
	Note   string    `json:"note,omitempty"` // src>dst or control detail
	Pkt    []byte    `json:"pkt,omitempty"`  // leading bytes of the packet
}

// traceSnap bounds how much of a dropped packet the ring retains —
// enough for dump to render addresses, the extension chain, and the
// transport header.
const traceSnap = 96

// Recorder is one stack's drop observability state: the Reasons
// counter map plus the bounded flight-recorder ring.  A nil *Recorder
// is valid and counts nothing, so modules assembled without a stack
// (unit tests) need no wiring.  All methods are safe for concurrent
// use.
type Recorder struct {
	Reasons Reasons
	// Now is the event timestamp source; the stack points it at its
	// (possibly virtual) clock. nil stamps zero times.
	Now func() time.Time

	mu   sync.Mutex
	ring []TraceEvent
	next int // ring insertion index
	seq  uint64
	size int
}

// NewRecorder creates a recorder whose trace ring keeps the last n
// events (n <= 0 disables the ring; counters still work).
func NewRecorder(n int) *Recorder {
	r := &Recorder{size: n}
	if n > 0 {
		r.ring = make([]TraceEvent, 0, n)
	}
	return r
}

// Drop counts a discard with no packet context.
func (r *Recorder) Drop(reason Reason) {
	if r == nil {
		return
	}
	r.Reasons.Inc(reason)
	r.record(TraceEvent{Kind: "drop", Reason: reason.String()})
}

// DropPkt counts a discard and records the packet's leading bytes in
// the trace ring.
func (r *Recorder) DropPkt(reason Reason, pkt []byte) {
	if r == nil {
		return
	}
	r.Reasons.Inc(reason)
	if len(pkt) > traceSnap {
		pkt = pkt[:traceSnap]
	}
	r.record(TraceEvent{Kind: "drop", Reason: reason.String(), Pkt: append([]byte(nil), pkt...)})
}

// DropNote counts a discard and records a caller-formatted note
// (src>dst addresses for sites that no longer hold the raw packet).
func (r *Recorder) DropNote(reason Reason, note string) {
	if r == nil {
		return
	}
	r.Reasons.Inc(reason)
	r.record(TraceEvent{Kind: "drop", Reason: reason.String(), Note: note})
}

// Ctl records a received or suppressed control event (ICMP errors,
// PMTU updates) in the trace ring without touching the counters.
func (r *Recorder) Ctl(note string) {
	if r == nil {
		return
	}
	r.record(TraceEvent{Kind: "ctl", Note: note})
}

func (r *Recorder) record(ev TraceEvent) {
	if r.size <= 0 {
		return
	}
	if r.Now != nil {
		ev.Time = r.Now()
	}
	r.mu.Lock()
	r.seq++
	ev.Seq = r.seq
	if len(r.ring) < r.size {
		r.ring = append(r.ring, ev)
	} else {
		r.ring[r.next] = ev
	}
	r.next = (r.next + 1) % r.size
	r.mu.Unlock()
}

// Events returns the retained trace events, oldest first.
func (r *Recorder) Events() []TraceEvent {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TraceEvent, 0, len(r.ring))
	if len(r.ring) == r.size {
		out = append(out, r.ring[r.next:]...)
		out = append(out, r.ring[:r.next]...)
	} else {
		out = append(out, r.ring...)
	}
	return out
}
