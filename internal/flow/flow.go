// Package flow implements a compact analogue of the arch project's flow
// mini-app: an explicit, structured-grid hydrodynamics proxy whose
// performance profile is memory-bandwidth bound.
//
// The paper uses flow as the contrast case for neutral in Figs 3 and 6: its
// streaming stencil sweeps saturate memory bandwidth, so it scales almost
// perfectly with cores on machines with many memory controllers (POWER8),
// gains nothing from hyperthreading, and speeds up ~5x moving from DRAM to
// MCDRAM — while neutral, being latency bound, behaves the opposite way in
// every case.
//
// The scheme is a first-order Lax–Friedrichs update of a 2D conserved
// scalar field under a constant velocity, with periodic boundaries. It is
// deliberately simple: the point is the memory access pattern (long
// unit-stride streams over arrays much larger than cache), not the
// hydrodynamics.
package flow

import (
	"errors"
	"math"
	"sync"
)

// Solver holds the double-buffered field of a flow run.
type Solver struct {
	NX, NY int
	// VX, VY is the constant advection velocity in cells/step; the CFL
	// limit for Lax–Friedrichs is |v| <= 1 per axis.
	VX, VY float64
	cur    []float64
	next   []float64
	steps  int
}

// New builds a solver with an initial Gaussian density bump in the centre.
func New(nx, ny int, vx, vy float64) (*Solver, error) {
	if nx < 3 || ny < 3 {
		return nil, errors.New("flow: grid must be at least 3x3")
	}
	if math.Abs(vx) > 1 || math.Abs(vy) > 1 {
		return nil, errors.New("flow: velocity violates CFL limit of 1 cell/step")
	}
	s := &Solver{NX: nx, NY: ny, VX: vx, VY: vy,
		cur:  make([]float64, nx*ny),
		next: make([]float64, nx*ny),
	}
	cx, cy := float64(nx)/2, float64(ny)/2
	sigma := float64(min(nx, ny)) / 8
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			dx, dy := float64(i)-cx, float64(j)-cy
			s.cur[j*nx+i] = math.Exp(-(dx*dx + dy*dy) / (2 * sigma * sigma))
		}
	}
	return s, nil
}

// Field returns the current field (not a copy).
func (s *Solver) Field() []float64 { return s.cur }

// Steps reports how many steps have run.
func (s *Solver) Steps() int { return s.steps }

// Mass returns the conserved total of the field.
func (s *Solver) Mass() float64 {
	var m float64
	for _, v := range s.cur {
		m += v
	}
	return m
}

// Step advances one timestep using threads workers, each sweeping a
// contiguous band of rows — the long unit-stride streams that make the
// mini-app bandwidth bound.
func (s *Solver) Step(threads int) {
	if threads < 1 {
		threads = 1
	}
	nx, ny := s.NX, s.NY
	cur, next := s.cur, s.next
	vx, vy := s.VX, s.VY

	var wg sync.WaitGroup
	wg.Add(threads)
	for w := 0; w < threads; w++ {
		go func(w int) {
			defer wg.Done()
			for j := w * ny / threads; j < (w+1)*ny/threads; j++ {
				jm := (j - 1 + ny) % ny
				jp := (j + 1) % ny
				row := cur[j*nx : (j+1)*nx]
				rowM := cur[jm*nx : (jm+1)*nx]
				rowP := cur[jp*nx : (jp+1)*nx]
				out := next[j*nx : (j+1)*nx]
				for i := 0; i < nx; i++ {
					im := (i - 1 + nx) % nx
					ip := (i + 1) % nx
					// Lax–Friedrichs: average of neighbours
					// minus central flux differences.
					out[i] = 0.25*(row[im]+row[ip]+rowM[i]+rowP[i]) -
						0.5*vx*(row[ip]-row[im]) -
						0.5*vy*(rowP[i]-rowM[i])
				}
			}
		}(w)
	}
	wg.Wait()
	s.cur, s.next = s.next, s.cur
	s.steps++
}

// Run advances n steps and returns the final mass.
func (s *Solver) Run(n, threads int) float64 {
	for i := 0; i < n; i++ {
		s.Step(threads)
	}
	return s.Mass()
}

// BytesPerStep estimates the memory traffic of one step: each cell is read
// as part of five stencil loads (of which ~three come from cache) and
// written once; a bandwidth model charges two effective transfers per cell.
func (s *Solver) BytesPerStep() float64 {
	return float64(s.NX*s.NY) * 8 * 2
}
