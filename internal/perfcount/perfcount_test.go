package perfcount

import (
	"errors"
	"runtime"
	"testing"
)

// burn spins long enough for the kernel to accumulate visible counts.
func burn() float64 {
	x := 1.0
	for i := 0; i < 5_000_000; i++ {
		x += 1.0 / float64(i+1)
	}
	return x
}

var sink float64

// pinToThread keeps the test on the OS thread its counters are opened on:
// perf_event_open(pid=0) follows a thread, and a goroutine that migrates
// between opening the group and burning CPU reads all-zero counters (seen 4
// runs in 20 at GOMAXPROCS=1 on a loaded host). The solver's workers are not
// pinned yet — that is ROADMAP's open perfcount item, not this.
func pinToThread(t *testing.T) {
	runtime.LockOSThread()
	t.Cleanup(runtime.UnlockOSThread)
}

// TestGroupCountsSomething opens the default event set, burns CPU, and
// expects at least one counter to have advanced. Skips — never fails — when
// the system refuses every event (no PMU and perf_event_paranoid too high),
// which is the degradation contract under test on restricted machines.
func TestGroupCountsSomething(t *testing.T) {
	pinToThread(t)
	g, err := Open(DefaultEvents()...)
	if errors.Is(err, ErrUnsupported) {
		t.Skip("perf_event_open unsupported here:", err)
	}
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	t.Logf("opened events: %v", g.Names())
	if err := g.Enable(); err != nil {
		t.Fatal(err)
	}
	sink = burn()
	totals := g.Totals()
	var advanced bool
	for name, v := range totals {
		t.Logf("%s = %d", name, v)
		if v > 0 {
			advanced = true
		}
	}
	if !advanced {
		t.Error("no counter advanced across a CPU burn")
	}
}

// TestCollectorRegions checks region attribution: two regions, each burning
// CPU, must both accumulate counts, and a region that never ran must be
// absent. Skips when counters are unsupported.
func TestCollectorRegions(t *testing.T) {
	pinToThread(t)
	c, err := NewCollector(DefaultEvents()...)
	if errors.Is(err, ErrUnsupported) {
		t.Skip("perf_event_open unsupported here:", err)
	}
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		c.StartRegion("alpha")
		sink = burn()
		c.EndRegion("alpha")
		c.StartRegion("beta")
		sink = burn()
		c.EndRegion("beta")
	}
	phases := c.Phases()
	for _, region := range []string{"alpha", "beta"} {
		bucket := phases[region]
		if bucket == nil {
			t.Fatalf("region %q never recorded", region)
		}
		var advanced bool
		for _, v := range bucket {
			if v > 0 {
				advanced = true
			}
		}
		if !advanced {
			t.Errorf("region %q recorded only zeros: %v", region, bucket)
		}
	}
	if _, ok := phases["gamma"]; ok {
		t.Error("phantom region recorded")
	}
}

// TestEndWithoutStart pins that a stray EndRegion is a no-op, not a panic —
// the probe interface makes no pairing promises to the collector.
func TestEndWithoutStart(t *testing.T) {
	c, err := NewCollector(DefaultEvents()...)
	if errors.Is(err, ErrUnsupported) {
		t.Skip("perf_event_open unsupported here:", err)
	}
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.EndRegion("orphan")
	if len(c.Phases()["orphan"]) != 0 {
		t.Error("orphan EndRegion recorded counts")
	}
}

// TestOpenNothingIsUnsupported checks the all-refused path deterministically
// on every platform: an event type no kernel recognises must leave the group
// empty and Open reporting ErrUnsupported.
func TestOpenNothingIsUnsupported(t *testing.T) {
	_, err := Open(Event{Name: "bogus", Type: 1 << 30, Config: 1 << 30})
	if !errors.Is(err, ErrUnsupported) {
		t.Fatalf("Open(bogus) = %v, want ErrUnsupported", err)
	}
}

// TestScaledDelta pins the multiplex extrapolation arithmetic.
func TestScaledDelta(t *testing.T) {
	// Ran the whole enabled interval: no scaling.
	if got := scaledDelta(sample{0, 0, 0}, sample{100, 50, 50}); got != 100 {
		t.Errorf("unscaled delta = %d, want 100", got)
	}
	// Ran half the enabled interval: doubled.
	if got := scaledDelta(sample{0, 0, 0}, sample{100, 100, 50}); got != 200 {
		t.Errorf("scaled delta = %d, want 200", got)
	}
	// Never ran: raw delta (zero) rather than a division by zero.
	if got := scaledDelta(sample{0, 0, 0}, sample{0, 100, 0}); got != 0 {
		t.Errorf("never-ran delta = %d, want 0", got)
	}
}
