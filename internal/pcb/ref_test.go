package pcb

import "bsd6/internal/inet"

// lookupRef is the original linear-scan in_pcblookup, kept verbatim
// as the reference model for the hash demux. It returns every
// maximum-score candidate: the old map-iteration code picked an
// arbitrary one, so the production Lookup is correct iff its winner is
// a member of this set (nil result ↔ empty set). The differential and
// fuzz tests replay random operation sequences through both paths.
func (t *Table) lookupRef(laddr inet.IP6, lport uint16, faddr inet.IP6, fport uint16, v4 bool) []*PCB {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var best []*PCB
	bestScore := -1
	for p := range t.pcbs {
		if p.LPort != lport {
			continue
		}
		// Family/traffic compatibility.
		if v4 {
			if p.Family == inet.AFInet6 && p.Flags&FlagV6Only != 0 {
				continue
			}
		} else {
			if p.Family == inet.AFInet {
				continue
			}
		}
		score := 0
		if !p.FAddr.IsUnspecified() || p.FPort != 0 {
			if p.FAddr != faddr || p.FPort != fport {
				continue
			}
			score += 2
		}
		if !p.LAddr.IsUnspecified() {
			if p.LAddr != laddr {
				continue
			}
			score++
		}
		switch {
		case score > bestScore:
			best, bestScore = append(best[:0], p), score
		case score == bestScore:
			best = append(best, p)
		}
	}
	return best
}
