package chaos

import (
	"maps"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestDeterministicDecisions: the n-th decision of a site is a pure function
// of (scenario, seed) — two injectors with the same seed agree draw by draw,
// and a different seed produces a different stream.
func TestDeterministicDecisions(t *testing.T) {
	const n = 4096
	draw := func(seed uint64) []bool {
		in := New(Scenario{Seed: seed, TaskPanic: 0.05})
		out := make([]bool, n)
		for i := range out {
			_, out[i] = in.TaskPanic()
		}
		return out
	}
	a, b := draw(42), draw(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 42: decision %d differs between identical injectors", i)
		}
	}
	c := draw(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 produced identical decision streams")
	}
}

// TestHitRateAndCounts: over many draws the empirical rate lands near the
// configured probability, and the hit counter matches the fired decisions.
func TestHitRateAndCounts(t *testing.T) {
	const n = 100_000
	in := New(Scenario{Seed: 7, StealFail: 0.2})
	fired := 0
	for i := 0; i < n; i++ {
		if in.StealFail() {
			fired++
		}
	}
	if got := in.Counts().StealFails; got != uint64(fired) {
		t.Fatalf("Counts().StealFails = %d, observed %d fires", got, fired)
	}
	rate := float64(fired) / n
	if rate < 0.18 || rate > 0.22 {
		t.Fatalf("empirical rate %.4f far from configured 0.2", rate)
	}
}

// TestSitesIndependent: draining one site's stream does not perturb another
// site's — each site salts its own sequence.
func TestSitesIndependent(t *testing.T) {
	const n = 2048
	solo := New(Scenario{Seed: 11, TaskPanic: 0.1, StealFail: 0.1})
	want := make([]bool, n)
	for i := range want {
		_, want[i] = solo.TaskPanic()
	}
	mixed := New(Scenario{Seed: 11, TaskPanic: 0.1, StealFail: 0.1})
	for i := 0; i < 10_000; i++ {
		mixed.StealFail() // burn the other site's stream
	}
	for i := range want {
		if _, ok := mixed.TaskPanic(); ok != want[i] {
			t.Fatalf("TaskPanic decision %d changed after draining StealFail", i)
		}
	}
}

// TestConcurrentDrawSetIsSeedDetermined: the multiset of fired decisions is
// the same whether the stream is drawn by one goroutine or by eight — only
// the assignment of sequence numbers to goroutines varies.
func TestConcurrentDrawSetIsSeedDetermined(t *testing.T) {
	const n = 8 * 4096
	serial := New(Scenario{Seed: 3, TaskPanic: 0.03})
	for i := 0; i < n; i++ {
		serial.TaskPanic()
	}
	parallel := New(Scenario{Seed: 3, TaskPanic: 0.03})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n/8; i++ {
				parallel.TaskPanic()
			}
		}()
	}
	wg.Wait()
	if s, p := serial.Counts().TaskPanics, parallel.Counts().TaskPanics; s != p {
		t.Fatalf("fired %d serially but %d in parallel for the same seed", s, p)
	}
}

// TestParse covers the flag grammar: fragments, combination, seeds, the off
// switch and rejection of unknown names.
func TestParse(t *testing.T) {
	if in, err := Parse(""); err != nil || in != nil {
		t.Fatalf("Parse(\"\") = %v, %v; want nil, nil", in, err)
	}
	if in, err := Parse("off"); err != nil || in != nil {
		t.Fatalf("Parse(\"off\") = %v, %v; want nil, nil", in, err)
	}
	in, err := Parse("panic+stall:42")
	if err != nil {
		t.Fatal(err)
	}
	sc := in.Scenario()
	if sc.Seed != 42 || sc.TaskPanic == 0 || sc.WorkerStall.Prob == 0 || sc.StealFail != 0 {
		t.Fatalf("panic+stall:42 parsed to %+v", sc)
	}
	in, err = Parse("all")
	if err != nil {
		t.Fatal(err)
	}
	sc = in.Scenario()
	if sc.Seed != 1 {
		t.Fatalf("default seed = %d, want 1", sc.Seed)
	}
	if sc.TaskPanic == 0 || sc.StealFail == 0 || sc.WorkerStall.Prob == 0 ||
		sc.InboxDelay.Prob == 0 {
		t.Fatalf("all left a site unset: %+v", sc)
	}
	if _, err := Parse("gremlins:1"); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	if _, err := Parse("panic:banana"); err == nil {
		t.Fatal("bad seed accepted")
	}
}

// FuzzChaosParse feeds arbitrary -chaos values to Parse: it never panics, it
// switches chaos off exactly for the empty spec and "off", and an accepted
// spec means what its fragments say — rewritten canonically (names
// deduplicated and sorted, the effective seed spelled out) it parses to the
// same settings, so order, repetition, spacing and the default seed cannot
// change a scenario. The corpus is the specs cmd/xkserve's chaos test, the
// quickstart and TestParse use, plus the grammar's edges.
func FuzzChaosParse(f *testing.F) {
	for _, spec := range []string{
		"", "off", " off ", "all", "all:3", "panic:42", "panic+stall:42", "stall+panic:7",
		"stall+panic+inbox:7", "steal+inbox", " steal + inbox :9", "panic+panic+all",
		"gremlins:1", "panic:banana", "panic:", ":5", "+", "panic+", "panic:-1", "panic:0",
		"all:18446744073709551615", "all:18446744073709551616", "inbox:1:2",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		in, err := Parse(spec)
		if off := strings.TrimSpace(spec); (in == nil && err == nil) != (off == "" || off == "off") {
			t.Fatalf("Parse(%q) = %v, %v: chaos must be off for the empty spec and \"off\" only", spec, in, err)
		}
		if err != nil || in == nil {
			if err != nil && in != nil {
				t.Fatalf("Parse(%q) returned an injector with error %v", spec, err)
			}
			return
		}
		sc := in.Scenario()
		names, _, _ := strings.Cut(spec, ":") // an accepted spec has at most the seed's colon
		set := map[string]bool{}
		for _, name := range strings.Split(names, "+") {
			set[strings.TrimSpace(name)] = true
		}
		canon := strings.Join(slices.Sorted(maps.Keys(set)), "+") + ":" + strconv.FormatUint(sc.Seed, 10)
		again, err := Parse(canon)
		if err != nil {
			t.Fatalf("Parse(%q) accepted, its canonical form %q rejected: %v", spec, canon, err)
		}
		if got := again.Scenario(); got != sc {
			t.Fatalf("Parse(%q) = %+v, canonical %q = %+v", spec, sc, canon, got)
		}
	})
}

// TestInjectedPanicString: the panic value names its site and sequence so a
// captured PanicError is attributable to the injected fault.
func TestInjectedPanicString(t *testing.T) {
	in := New(Scenario{Seed: 5, TaskPanic: 1})
	v, ok := in.TaskPanic()
	if !ok {
		t.Fatal("probability 1 did not fire")
	}
	ip, ok := v.(InjectedPanic)
	if !ok {
		t.Fatalf("panic value is %T, want InjectedPanic", v)
	}
	if got := ip.String(); got != "chaos: injected task_panics #1" {
		t.Fatalf("String() = %q", got)
	}
}
