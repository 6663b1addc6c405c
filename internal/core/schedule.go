package core

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// ScheduleKind mirrors the OpenMP schedule clauses the paper sweeps in
// Fig 4. The particle histories vary in length, so the choice trades
// scheduling overhead against load balance — the paper measured at most a
// 1.07x difference on its test problems.
type ScheduleKind int

const (
	// ScheduleStatic gives each worker one contiguous block
	// (OpenMP schedule(static)).
	ScheduleStatic ScheduleKind = iota
	// ScheduleStaticChunk deals fixed-size chunks round-robin
	// (schedule(static, chunk)).
	ScheduleStaticChunk
	// ScheduleDynamic hands out fixed-size chunks on demand from a
	// shared counter (schedule(dynamic, chunk)).
	ScheduleDynamic
	// ScheduleGuided hands out shrinking chunks proportional to the
	// remaining work (schedule(guided, chunk)).
	ScheduleGuided
)

// String names the schedule in OpenMP style.
func (k ScheduleKind) String() string {
	switch k {
	case ScheduleStatic:
		return "static"
	case ScheduleStaticChunk:
		return "static-chunk"
	case ScheduleDynamic:
		return "dynamic"
	case ScheduleGuided:
		return "guided"
	default:
		return fmt.Sprintf("ScheduleKind(%d)", int(k))
	}
}

// Schedule is a schedule kind plus its chunk parameter.
type Schedule struct {
	Kind ScheduleKind
	// Chunk is the chunk size for the chunked kinds; ignored by
	// ScheduleStatic. Zero defaults to 64.
	Chunk int
}

// String renders e.g. "dynamic(64)".
func (s Schedule) String() string {
	if s.Kind == ScheduleStatic {
		return "static"
	}
	return fmt.Sprintf("%s(%d)", s.Kind, s.chunk())
}

// ParseSchedule reads "static", "static-chunk", "dynamic" or "guided".
// Chunk sizes are set separately.
func ParseSchedule(s string) (ScheduleKind, error) {
	switch s {
	case "static":
		return ScheduleStatic, nil
	case "static-chunk":
		return ScheduleStaticChunk, nil
	case "dynamic":
		return ScheduleDynamic, nil
	case "guided":
		return ScheduleGuided, nil
	default:
		return 0, fmt.Errorf("core: unknown schedule %q", s)
	}
}

func (s Schedule) chunk() int {
	if s.Chunk <= 0 {
		return 64
	}
	return s.Chunk
}

func (s Schedule) validate() error {
	if s.Chunk < 0 {
		return fmt.Errorf("core: negative schedule chunk %d", s.Chunk)
	}
	switch s.Kind {
	case ScheduleStatic, ScheduleStaticChunk, ScheduleDynamic, ScheduleGuided:
		return nil
	default:
		return fmt.Errorf("core: unknown schedule kind %d", int(s.Kind))
	}
}

// parallelFor runs body over [0, n) split across workers per the schedule.
// body receives the worker index and a half-open range. It is the
// goroutine equivalent of `#pragma omp parallel for schedule(...)`: one
// launch loop, in which each worker runs the ranges its schedule's claim
// function hands it until there are none left.
func parallelFor(workers, n int, sched Schedule, body func(worker, lo, hi int)) {
	if n == 0 {
		return
	}
	if workers <= 1 {
		body(0, 0, n)
		return
	}
	claim := sched.claimer(workers, n)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for k := 0; ; k++ {
				lo, hi, ok := claim(w, k)
				if !ok {
					return
				}
				body(w, lo, hi)
			}
		}(w)
	}
	wg.Wait()
}

// claimer returns the schedule's claim function for one launch over [0, n):
// worker w's k-th call yields its next half-open range, ok false once it has
// none. The static kinds compute the range from (w, k) alone; dynamic and
// guided take it off a cursor the workers share.
func (s Schedule) claimer(workers, n int) func(w, k int) (lo, hi int, ok bool) {
	chunk := s.chunk()
	switch s.Kind {
	case ScheduleStatic:
		return func(w, k int) (int, int, bool) {
			lo, hi := w*n/workers, (w+1)*n/workers
			return lo, hi, k == 0 && lo < hi
		}
	case ScheduleStaticChunk:
		return func(w, k int) (int, int, bool) {
			lo := (k*workers + w) * chunk
			return lo, min(lo+chunk, n), lo < n
		}
	case ScheduleDynamic:
		var next atomic.Int64
		return func(int, int) (int, int, bool) {
			lo := int(next.Add(int64(chunk))) - chunk
			return lo, min(lo+chunk, n), lo < n
		}
	case ScheduleGuided:
		// A chunk proportional to the work remaining at claim time,
		// floored at the minimum chunk, via CAS on the cursor.
		var next atomic.Int64
		return func(int, int) (int, int, bool) {
			for {
				lo := int(next.Load())
				if lo >= n {
					return 0, 0, false
				}
				hi := min(lo+max((n-lo)/workers, chunk), n)
				if next.CompareAndSwap(int64(lo), int64(hi)) {
					return lo, hi, true
				}
			}
		}
	default:
		panic("core: unreachable schedule kind")
	}
}
