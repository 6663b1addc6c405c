package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// runOpts is one invocation of one workload.
type runOpts struct {
	Workload string
	Seed     uint64
	Seconds  int
	Trace    bool
	Smoke    bool
	Out      string // trace file; "" means benchmark/out/trace-<workload>.json
	Quiet    bool   // suppress the per-metric lines (tests)
}

// bench is the state of one workload run.
type bench struct {
	w    workload
	opts runOpts
	P    int // min(nproc, 4): GOMAXPROCS, client count, Threads of the tP op

	rounds     int
	calibScale int     // the calibration kernel runs at 1/calibScale length (smoke)
	calibRef   float64 // CalibRefS / calibScale
	deadline   time.Time

	rec *recorder // nil unless tracing
	tmp string    // scratch directory inside the checkout

	ref reference // the workload's reference band (full scale only)

	mu      sync.Mutex
	samples map[string][]float64
	// probe holds samples taken by the coverage probes; they only fill
	// metrics the workload's own path left without samples.
	probe   map[string][]float64
	probing bool
	// Jobs completed (verified) and the calibrated wall of the phases they
	// completed in, summed over the untraced rounds: jobs_per_s.
	jobsDone, jobsWall float64

	attempted int
	failed    int
	failures  []string
	nextOp    int
}

// sink is where samples go right now: the workload's own, or the probes'.
func (b *bench) sink() map[string][]float64 {
	if b.probing {
		return b.probe
	}
	return b.samples
}

func (b *bench) add(name string, v float64) {
	b.mu.Lock()
	b.sink()[name] = append(b.sink()[name], v)
	b.mu.Unlock()
}

// set replaces a metric's samples with one computed value.
func (b *bench) set(name string, v float64) {
	b.mu.Lock()
	b.sink()[name] = []float64{v}
	b.mu.Unlock()
}

func (b *bench) get(name string) []float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sink()[name]
}

// opID hands out the identifier the spans of one op share.
func (b *bench) opID() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.nextOp++
	return b.nextOp
}

// attempt counts one op; fail counts one op that failed, was refused, timed
// out or failed verification, and keeps the reason for the report.
func (b *bench) attempt() {
	b.mu.Lock()
	b.attempted++
	b.mu.Unlock()
}

func (b *bench) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	b.mu.Lock()
	b.failed++
	if len(b.failures) < 20 {
		b.failures = append(b.failures, msg)
	}
	b.mu.Unlock()
	fmt.Fprintf(os.Stderr, "FAIL %s: %s\n", b.w.Name, msg)
}

// calibrate runs the calibration kernel on g goroutines, as a span under
// parent when there is one.
func (b *bench) calibrate(g int, parent int) time.Duration {
	id := b.open(parent != 0, parent, "bench.calib", 0)
	d := calib(g, b.calibScale)
	b.close(id)
	// calib.raw_s and calib.spread come from the runs that bracket the
	// workload's jobs: one goroutine for solver workloads, P for the rest.
	if (b.w.Kind == kindSolver) == (g == 1) || b.P == 1 {
		b.add("calib.raw_s", d.Seconds()*float64(b.calibScale))
	}
	return d
}

func (b *bench) cal(raw, before, after time.Duration) float64 {
	return calibrated(raw, before, after, b.calibRef)
}

// open starts a span on the benchmark's own track when on is set and returns
// its ID; 0 (which close ignores) otherwise, so untraced rounds run the same
// code with no recording.
func (b *bench) open(on bool, parent int, name string, op int) int {
	if !on || b.rec == nil {
		return 0
	}
	return b.rec.open(parent, name, op, "bench")
}

func (b *bench) close(id int) {
	if id != 0 {
		b.rec.close(id)
	}
}

// tracedRound reports whether measured round i of a traced run is traced.
// The pattern is U T T U U T T U ...: half the rounds, and each kind follows
// the other as often as it follows itself, so what the previous round left in
// the caches and the heap does not bias trace.overhead_x.
func tracedRound(i int) bool { return (i+1)/2%2 == 1 }

// settle collects garbage between rounds, outside every timing. Each round
// then starts from the same heap, so whether a collection lands inside a
// timed op — and how high the heap climbs before one does (peak_rss_mb) —
// depends on what the round allocates, not on what earlier rounds left behind.
func (b *bench) settle() { runtime.GC() }

// expired reports whether measured round i (0-based) should not start. The
// work is fixed, but the reference host has minutes when everything takes
// twice as long, and the harness has a time limit: once the process is 1.15x
// its window old, it stops — though never before rssRound, so every run reaches
// the round peak_rss_mb is read at.
func (b *bench) expired(i int) bool {
	return i > b.rssRound() && time.Now().After(b.deadline)
}

// rssRound is the measured round after which peak_rss_mb is read. An engine
// keeps every job it has run, so a service workload's resident set grows with
// the rounds completed; reading it at a fixed round keeps a run the deadline
// cut short comparable with one that finished.
func (b *bench) rssRound() int { return b.rounds / 2 }

// roundDone is called after measured round i.
func (b *bench) roundDone(i int) {
	if i == b.rssRound() {
		b.set("peak_rss_mb", peakRSSMB())
	}
}

// --- process and host facts ------------------------------------------------

// procStatusKB reads one "kB" line of /proc/self/status (VmHWM, VmRSS).
func procStatusKB(field string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, field+":") {
			fs := strings.Fields(line[len(field)+1:])
			if len(fs) > 0 {
				v, _ := strconv.ParseFloat(fs[0], 64)
				return v
			}
		}
	}
	return math.NaN()
}

// peakRSSMB is the process's high-water resident set. Where /proc has no
// VmHWM, getrusage's maxrss (kB on Linux) stands in.
func peakRSSMB() float64 {
	if kb := procStatusKB("VmHWM"); !math.IsNaN(kb) && kb > 0 {
		return kb / 1024
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		return float64(ru.Maxrss) / 1024
	}
	return math.NaN()
}

// cpuSeconds is user+system CPU time of the process so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return math.NaN()
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// procMark is a point-in-time reading of the process counters behind the
// proc.* metrics; the metrics are differences of two marks over the ops
// between them.
type procMark struct {
	alloc   uint64
	pauseNS uint64
	cpu     float64
}

func markProc() procMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procMark{alloc: ms.TotalAlloc, pauseNS: ms.PauseTotalNs, cpu: cpuSeconds()}
}

func (b *bench) recordProc(from procMark, ops int) {
	to := markProc()
	if ops < 1 {
		ops = 1
	}
	b.set("proc.alloc_mb_per_op", float64(to.alloc-from.alloc)/(1<<20)/float64(ops))
	b.set("proc.gc_pause_s", float64(to.pauseNS-from.pauseNS)/1e9)
	b.set("proc.cpu_s_per_op", (to.cpu-from.cpu)/float64(ops))
}

// cacheSizes lists the data/unified cache sizes of cpu0 from sysfs, e.g.
// "L1d=96K L2=4096K L3=266240K"; empty when sysfs does not expose them.
func cacheSizes() string {
	var parts []string
	for i := 0; i < 8; i++ {
		dir := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/", i)
		level, err := os.ReadFile(dir + "level")
		if err != nil {
			break
		}
		typ, _ := os.ReadFile(dir + "type")
		size, _ := os.ReadFile(dir + "size")
		t := strings.TrimSpace(string(typ))
		if t == "Instruction" {
			continue
		}
		name := "L" + strings.TrimSpace(string(level))
		if t == "Data" {
			name += "d"
		}
		parts = append(parts, name+"="+strings.TrimSpace(string(size)))
	}
	return strings.Join(parts, " ")
}

// hostFacts is recorded with every result so a number can be read against the
// machine it came from.
func hostFacts(P int) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": P,
		"go":         runtime.Version(),
		"goarch":     runtime.GOARCH,
		"caches":     cacheSizes(),
	}
}
