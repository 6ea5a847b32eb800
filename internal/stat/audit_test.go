package stat

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestEveryReasonHasADropSite audits the taxonomy against the code:
// every declared Reason must be incremented by at least one non-test
// drop site somewhere in the stack.  A reason with no call site means
// either a discard path lost its instrumentation in a refactor or the
// taxonomy carries a dead entry — both are bugs this test makes loud.
func TestEveryReasonHasADropSite(t *testing.T) {
	src, err := os.ReadFile("reason.go")
	if err != nil {
		t.Fatal(err)
	}
	// The reasonNames map literal names every reason exactly once.
	declRe := regexp.MustCompile(`(?m)^\t(R[A-Z][A-Za-z0-9]*):`)
	var declared []string
	for _, m := range declRe.FindAllStringSubmatch(string(src), -1) {
		if m[1] != "ReasonNone" {
			declared = append(declared, m[1])
		}
	}
	if len(declared) != NumReasons() {
		t.Fatalf("parsed %d reasons from reason.go, taxonomy has %d", len(declared), NumReasons())
	}

	used := make(map[string]int)
	useRe := regexp.MustCompile(`\bstat\.(R[A-Z][A-Za-z0-9]*)\b`)
	for _, root := range []string{"../../internal", "../../cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "stat" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range useRe.FindAllStringSubmatch(string(b), -1) {
				used[m[1]]++
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	sites := 0
	for _, r := range declared {
		n := used[r]
		if n == 0 {
			t.Errorf("reason %s is declared but no drop site increments it", r)
		}
		sites += n
	}
	for r := range used {
		found := false
		for _, d := range declared {
			if d == r {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("code references stat.%s which is not in the taxonomy", r)
		}
	}
	t.Logf("taxonomy: %d reasons, %d instrumented sites", len(declared), sites)
}

// TestEveryTCPCounterHasASource applies the same audit to the TCP
// Stats block: every stat.Counter field declared there must be bumped
// by at least one non-test call site in the tcp package.  This is the
// guard that keeps datapath refactors honest: a counter left declared
// but unwired makes netstat report a live mechanism as "never taken".
func TestEveryTCPCounterHasASource(t *testing.T) {
	src, err := os.ReadFile("../tcp/tcp.go")
	if err != nil {
		t.Fatal(err)
	}
	block := regexp.MustCompile(`(?s)type Stats struct \{.*?\n\}`).Find(src)
	if block == nil {
		t.Fatal("no Stats struct found in ../tcp/tcp.go")
	}
	fieldRe := regexp.MustCompile(`(?m)^\t([A-Z][A-Za-z0-9]*)\s+stat\.Counter`)
	var fields []string
	for _, m := range fieldRe.FindAllStringSubmatch(string(block), -1) {
		fields = append(fields, m[1])
	}
	if len(fields) < 10 {
		t.Fatalf("parsed only %d counter fields; struct regex out of date", len(fields))
	}
	// The must-list pins the counters whose loss a refactor would most
	// plausibly hide: the delayed-ACK timer, the stateless
	// connection-demux machinery (SYN cookies, compressed TIME_WAIT)
	// and the GRO engine, whose silent death would read as "coalescing
	// never engaged".
	for _, must := range []string{
		"DelAcks",
		"SynCookiesSent", "SynCookiesValidated", "SynCookiesFailed",
		"TimeWaitRecycled", "TimeWaitOverflow",
		"GROCoalesced", "GROFlushes",
	} {
		found := false
		for _, f := range fields {
			if f == must {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("fast-path counter %s missing from the TCP Stats struct", must)
		}
	}

	used := make(map[string]int)
	useRe := regexp.MustCompile(`\bStats\.([A-Z][A-Za-z0-9]*)\.(Inc|Add)\(`)
	ents, err := os.ReadDir("../tcp")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		b, err := os.ReadFile(filepath.Join("../tcp", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range useRe.FindAllStringSubmatch(string(b), -1) {
			used[m[1]]++
		}
	}

	sites := 0
	for _, f := range fields {
		n := used[f]
		if n == 0 {
			t.Errorf("counter Stats.%s is declared but never incremented", f)
		}
		sites += n
	}
	t.Logf("tcp stats: %d counters, %d instrumented sites", len(fields), sites)
}

// TestEveryIPsecCounterHasASource applies the source audit to the
// security module's Stats block: every counter must be bumped by a
// non-test site in the ipsec package.  The must-list pins the
// line-rate machinery — the PCB verdict cache, the replay window, and
// the inbound SA-lookup classification — whose silent death would read
// as "security is free" (cache) or "no attacks happened" (replay).
func TestEveryIPsecCounterHasASource(t *testing.T) {
	src, err := os.ReadFile("../ipsec/module.go")
	if err != nil {
		t.Fatal(err)
	}
	block := regexp.MustCompile(`(?s)type Stats struct \{.*?\n\}`).Find(src)
	if block == nil {
		t.Fatal("no Stats struct found in ../ipsec/module.go")
	}
	fieldRe := regexp.MustCompile(`(?m)^\t([A-Z][A-Za-z0-9]*)\s+stat\.Counter`)
	var fields []string
	for _, m := range fieldRe.FindAllStringSubmatch(string(block), -1) {
		fields = append(fields, m[1])
	}
	if len(fields) < 8 {
		t.Fatalf("parsed only %d counter fields; struct regex out of date", len(fields))
	}
	for _, must := range []string{
		"OutCacheHits", "InReplay", "InNoSA",
		"InAuthFail", "InDecryptFail", "OutPolicyDrops",
	} {
		found := false
		for _, f := range fields {
			if f == must {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("line-rate counter %s missing from the ipsec Stats struct", must)
		}
	}

	used := make(map[string]int)
	useRe := regexp.MustCompile(`\bStats\.([A-Z][A-Za-z0-9]*)\.(Inc|Add)\(`)
	ents, err := os.ReadDir("../ipsec")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		b, err := os.ReadFile(filepath.Join("../ipsec", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range useRe.FindAllStringSubmatch(string(b), -1) {
			used[m[1]]++
		}
	}

	sites := 0
	for _, f := range fields {
		n := used[f]
		if n == 0 {
			t.Errorf("counter Stats.%s is declared but never incremented", f)
		}
		sites += n
	}
	t.Logf("ipsec stats: %d counters, %d instrumented sites", len(fields), sites)
}
