package xs

import "math"

// The mini-app's tables are synthetic ("dummy data tables ... that mimic the
// capture and scatter cross sections for a single material", paper §IV-D).
// The shapes below follow the familiar features of real neutron data:
//
//   - capture: a 1/v law at low energy, a resonance region of smooth bumps
//     between ~1 eV and ~10 keV, and a modest fast plateau;
//   - elastic scatter: a broad, slowly varying plateau with mild structure,
//     tuned so a fast source particle in the dense test problems has a mean
//     free path shorter than a mesh cell (the paper's scatter problem keeps
//     most particles inside their birth cell).
//
// Everything is deterministic so tests and both parallelisation schemes see
// identical data.

// DefaultPoints is the default table size: a dense broad-group dummy
// library. The paper sizes its dummy tables to be "representative of the
// nuclear data lookup tables that might be used in a real application";
// ours is sized so that one collision's energy dampening moves the lookup a
// few dozen bins — the regime in which the paper's cached linear search
// beats a binary search (§VI-A). Pass a larger count to study bigger
// tables.
const DefaultPoints = 1024

// EnergyGrid returns n logarithmically spaced energies spanning
// [1e-3 eV, 2e7 eV], the usual span of continuous-energy neutron data.
func EnergyGrid(n int) []float64 {
	if n < 2 {
		n = 2
	}
	lo, hi := math.Log(1e-3), math.Log(2e7)
	g := make([]float64, n)
	for i := range g {
		g[i] = math.Exp(lo + (hi-lo)*float64(i)/float64(n-1))
	}
	// Pin the endpoints exactly; exp(log(x)) rounds.
	g[0] = 1e-3
	g[n-1] = 2e7
	return g
}

// captureSigma is the synthetic microscopic capture cross section in barns.
func captureSigma(e float64) float64 {
	// 1/v component, normalised to 50 barns at thermal (0.0253 eV).
	invV := 50 * math.Sqrt(0.0253/e)
	// Smooth resonance bumps in log-energy space.
	res := 0.0
	for _, r := range [...]struct{ center, width, height float64 }{
		{math.Log(6.7), 0.15, 80},
		{math.Log(21), 0.12, 45},
		{math.Log(120), 0.20, 30},
		{math.Log(2300), 0.25, 12},
	} {
		d := (math.Log(e) - r.center) / r.width
		res += r.height * math.Exp(-d*d)
	}
	// Fast plateau keeps absorption meaningful at source energies.
	return invV + res + 8
}

// scatterSigma is the synthetic microscopic elastic-scatter cross section in
// barns. It is deliberately large (tens of barns) across the fast range so
// that the dense problems collide within a cell width.
func scatterSigma(e float64) float64 {
	// Gentle decline from 45 barns at thermal to ~28 barns at 20 MeV.
	base := 28 + 17/(1+math.Pow(e/1e4, 0.35))
	// Mild interference wiggle through the resonance region.
	wiggle := 3 * math.Sin(0.9*math.Log(e+1))
	s := base + wiggle
	if s < 1 {
		s = 1
	}
	return s
}

// generate tabulates sigma on the grid g, whose bucket table is grid.
func generate(kind Kind, g []float64, grid gridIndex, sigma func(float64) float64) *Table {
	s := make([]float64, len(g))
	for i, e := range g {
		s[i] = sigma(e)
	}
	return &Table{kind: kind, energies: g, sigmas: s, grid: grid}
}

// GenerateCapture builds the synthetic capture table on an n-point grid.
func GenerateCapture(n int) *Table {
	g := EnergyGrid(n)
	return generate(Capture, g, newGridIndex(g), captureSigma)
}

// GenerateScatter builds the synthetic elastic-scatter table on an n-point
// grid.
func GenerateScatter(n int) *Table {
	g := EnergyGrid(n)
	return generate(ElasticScatter, g, newGridIndex(g), scatterSigma)
}

// GeneratePair builds both tables on a shared n-point grid: one energy
// slice and one bucket table serve both channels.
func GeneratePair(n int) Pair {
	g := EnergyGrid(n)
	grid := newGridIndex(g)
	return Pair{
		Capture: generate(Capture, g, grid, captureSigma),
		Scatter: generate(ElasticScatter, g, grid, scatterSigma),
		shared:  true,
	}
}

// Avogadro is the Avogadro constant in 1/mol.
const Avogadro = 6.02214076e23

// BarnsToSquareMetres converts barns to m^2.
const BarnsToSquareMetres = 1e-28

// MolarMassKg is the molar mass of the (single, hydrogen-like) material in
// kg/mol. A light moderator maximises per-collision energy loss, matching
// the strongly moderating behaviour of the paper's scatter problem.
const MolarMassKg = 1.0e-3

// NumberDensity converts a mass density (kg/m^3) to a nuclide number density
// (1/m^3) for the single material.
func NumberDensity(rho float64) float64 {
	return rho * Avogadro / MolarMassKg
}

// Macroscopic converts a microscopic cross section (barns) and a mass
// density (kg/m^3) into a macroscopic cross section (1/m). This is the
// per-collision scaling that couples every particle to the density mesh.
func Macroscopic(sigmaBarns, rho float64) float64 {
	return sigmaBarns * BarnsToSquareMetres * NumberDensity(rho)
}
