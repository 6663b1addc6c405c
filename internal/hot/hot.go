// Package hot implements a compact analogue of the arch project's hot
// mini-app: a conjugate-gradient solver for implicit heat conduction on a
// structured 2D grid.
//
// The paper uses hot alongside flow as a memory-bandwidth-bound contrast to
// neutral in its thread-scaling study (Fig 3). Each CG iteration is a
// five-point stencil apply plus a handful of vector operations and
// reductions — all long unit-stride streams.
//
// The system solved per timestep is (I - alpha * Laplacian) T' = T with
// homogeneous Dirichlet boundaries; the operator is symmetric positive
// definite, so unpreconditioned CG converges.
package hot

import (
	"errors"
	"math"
	"sync"
)

// Solver holds the grid and CG work vectors.
type Solver struct {
	NX, NY int
	// Alpha is the implicit diffusion number (conductivity * dt / dx^2).
	Alpha float64
	// Tol is the relative residual tolerance for CG.
	Tol float64
	// MaxIter caps CG iterations per timestep.
	MaxIter int

	t          []float64 // temperature field
	r, p, q, z []float64 // CG work vectors
}

// New builds a solver with a hot square in the grid centre.
func New(nx, ny int, alpha float64) (*Solver, error) {
	if nx < 3 || ny < 3 {
		return nil, errors.New("hot: grid must be at least 3x3")
	}
	if alpha <= 0 {
		return nil, errors.New("hot: alpha must be positive")
	}
	s := &Solver{
		NX: nx, NY: ny, Alpha: alpha,
		Tol: 1e-8, MaxIter: 10000,
		t: make([]float64, nx*ny),
		r: make([]float64, nx*ny),
		p: make([]float64, nx*ny),
		q: make([]float64, nx*ny),
		z: make([]float64, nx*ny),
	}
	for j := ny / 3; j < 2*ny/3; j++ {
		for i := nx / 3; i < 2*nx/3; i++ {
			s.t[j*nx+i] = 100
		}
	}
	return s, nil
}

// Field returns the temperature field (not a copy).
func (s *Solver) Field() []float64 { return s.t }

// Heat returns the total field energy (not conserved: Dirichlet walls leak).
func (s *Solver) Heat() float64 {
	var h float64
	for _, v := range s.t {
		h += v
	}
	return h
}

// apply computes q = (I - alpha*Laplacian) p with Dirichlet walls, split
// across threads by row bands.
func (s *Solver) apply(p, q []float64, threads int) {
	nx, ny, alpha := s.NX, s.NY, s.Alpha
	parallelRows(ny, threads, func(j0, j1 int) {
		for j := j0; j < j1; j++ {
			for i := 0; i < nx; i++ {
				c := p[j*nx+i]
				var lap float64
				if i > 0 {
					lap += p[j*nx+i-1] - c
				} else {
					lap -= c
				}
				if i < nx-1 {
					lap += p[j*nx+i+1] - c
				} else {
					lap -= c
				}
				if j > 0 {
					lap += p[(j-1)*nx+i] - c
				} else {
					lap -= c
				}
				if j < ny-1 {
					lap += p[(j+1)*nx+i] - c
				} else {
					lap -= c
				}
				q[j*nx+i] = c - alpha*lap
			}
		}
	})
}

// Step advances one implicit timestep by solving the SPD system with CG,
// returning the iteration count.
func (s *Solver) Step(threads int) int {
	n := s.NX * s.NY
	// b is the current field; initial guess x = b.
	x := s.t
	// r = b - A x
	s.apply(x, s.q, threads)
	for i := 0; i < n; i++ {
		s.r[i] = x[i] - s.q[i]
		s.p[i] = s.r[i]
	}
	rr := dot(s.r, s.r, threads)
	b2 := dot(x, x, threads)
	if b2 == 0 {
		b2 = 1
	}
	iters := 0
	for ; iters < s.MaxIter && rr > s.Tol*s.Tol*b2; iters++ {
		s.apply(s.p, s.q, threads)
		alpha := rr / dot(s.p, s.q, threads)
		axpy(x, s.p, alpha, threads)
		axpy(s.r, s.q, -alpha, threads)
		rrNew := dot(s.r, s.r, threads)
		beta := rrNew / rr
		rr = rrNew
		xpay(s.p, s.r, beta, threads)
	}
	return iters
}

// Residual returns ||b - Ax|| / ||b|| for the last solve's state.
func (s *Solver) Residual(threads int) float64 {
	s.apply(s.t, s.q, threads)
	// After the solve, t holds x and the residual r is maintained; use
	// the recomputed one for an honest answer. b is unavailable after
	// the in-place update, so report the CG-maintained residual norm.
	return math.Sqrt(dot(s.r, s.r, threads)) / math.Sqrt(dot(s.t, s.t, threads)+1e-300)
}

// Run advances n timesteps and returns total CG iterations.
func (s *Solver) Run(n, threads int) int {
	total := 0
	for i := 0; i < n; i++ {
		total += s.Step(threads)
	}
	return total
}

// BytesPerIteration estimates per-CG-iteration memory traffic: the stencil
// apply streams p and q, and the vector updates stream x, r, p again.
func (s *Solver) BytesPerIteration() float64 {
	return float64(s.NX*s.NY) * 8 * 7
}

// dot computes the inner product with a parallel reduction: each worker sums
// its band in order, and the band sums are added in worker order.
func dot(a, b []float64, threads int) float64 {
	if threads < 2 {
		return sumProducts(a, b)
	}
	partial := make([]float64, threads)
	var wg sync.WaitGroup
	wg.Add(threads)
	n := len(a)
	for w := 0; w < threads; w++ {
		go func(w int) {
			defer wg.Done()
			lo, hi := w*n/threads, (w+1)*n/threads
			partial[w] = sumProducts(a[lo:hi], b[lo:hi])
		}(w)
	}
	wg.Wait()
	var sum float64
	for _, p := range partial {
		sum += p
	}
	return sum
}

// sumProducts is Σ a[i]·b[i] in index order. The band bounds are its
// arguments, not a loop condition, which the compiler would recompute, a
// division, on every element.
func sumProducts(a, b []float64) float64 {
	b = b[:len(a)]
	var sum float64
	for i := range a {
		sum += a[i] * b[i]
	}
	return sum
}

// axpy computes y += a*x in parallel.
func axpy(y, x []float64, a float64, threads int) {
	parallelRange(len(y), threads, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			y[i] += a * x[i]
		}
	})
}

// xpay computes p = r + beta*p in parallel.
func xpay(p, r []float64, beta float64, threads int) {
	parallelRange(len(p), threads, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p[i] = r[i] + beta*p[i]
		}
	})
}

func parallelRange(n, threads int, body func(lo, hi int)) {
	if threads < 2 {
		body(0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(threads)
	for w := 0; w < threads; w++ {
		go func(w int) {
			defer wg.Done()
			body(w*n/threads, (w+1)*n/threads)
		}(w)
	}
	wg.Wait()
}

func parallelRows(ny, threads int, body func(j0, j1 int)) {
	if threads < 2 {
		body(0, ny)
		return
	}
	var wg sync.WaitGroup
	wg.Add(threads)
	for w := 0; w < threads; w++ {
		go func(w int) {
			defer wg.Done()
			body(w*ny/threads, (w+1)*ny/threads)
		}(w)
	}
	wg.Wait()
}
