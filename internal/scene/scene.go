// Package scene implements the declarative problem-description layer of the
// neutral mini-app: named materials, axis-aligned density regions painted
// onto the mesh in order, weighted particle sources with optional birth
// jitter, and per-edge boundary conditions. A Scene is what a run simulates;
// the paper's three test problems (§IV-B) are built-in presets (Preset), and
// arbitrary new scenarios load from JSON files (Parse, LoadFile) — the
// MC/DC- and OpenMC-style input-deck shape for this mini-app.
//
// A Scene is resolution-free: it describes geometry in physical metres, and
// Build paints it onto a mesh of any requested resolution, exactly as the
// old hardcoded problem builder scaled the paper problems.
package scene

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"repro/internal/mesh"
	"repro/internal/particle"
)

// Material names a mass density, in kg/m^3. The transport physics knows a
// single synthetic nuclide (paper §IV-D), so density is the only material
// property; names exist for scene readability and region references.
type Material struct {
	Name    string  `json:"name"`
	Density float64 `json:"density"`
}

// Region paints the axis-aligned physical box [x0,x1) x [y0,y1) with a
// named material. Regions are applied in order, later ones over earlier
// ones, and are clamped to the domain.
type Region struct {
	Material string  `json:"material"`
	X0       float64 `json:"x0"`
	X1       float64 `json:"x1"`
	Y0       float64 `json:"y0"`
	Y1       float64 `json:"y1"`
}

// Source is one weighted particle birth region. Positions are sampled
// uniformly in the box with isotropic directions, exactly as the paper's
// single source (§IV-F); Share apportions the bank population across
// sources, Weight and Energy set the birth record, and the jitters widen
// birth energy, weight and time into uniform windows.
type Source struct {
	X0 float64 `json:"x0"`
	X1 float64 `json:"x1"`
	Y0 float64 `json:"y0"`
	Y1 float64 `json:"y1"`
	// Share is the source's relative share of the particle population;
	// 0 means 1. Particles are apportioned deterministically by bank index,
	// so populations stay identical across layouts, schemes and threads.
	Share float64 `json:"share,omitempty"`
	// Weight is the birth statistical weight; 0 means 1.
	Weight float64 `json:"weight,omitempty"`
	// Energy is the birth kinetic energy in eV; 0 means the paper's 10 MeV.
	Energy float64 `json:"energy,omitempty"`
	// EnergyJitter e draws the birth energy uniformly from
	// Energy·[1−e, 1+e); 0 draws nothing. Must be below 1.
	EnergyJitter float64 `json:"energy_jitter,omitempty"`
	// WeightJitter w draws the birth weight uniformly from
	// Weight·[1−w, 1+w); 0 draws nothing. Must be below 1.
	WeightJitter float64 `json:"weight_jitter,omitempty"`
	// TimeJitter t spreads births across the first timestep: the initial
	// time to census is dt·(1 − t·u), u uniform in [0,1). 0 draws nothing.
	TimeJitter float64 `json:"time_jitter,omitempty"`
}

// Boundaries sets the per-edge boundary conditions, each "reflective"
// (default) or "vacuum".
type Boundaries struct {
	XLo string `json:"x_lo,omitempty"`
	XHi string `json:"x_hi,omitempty"`
	YLo string `json:"y_lo,omitempty"`
	YHi string `json:"y_hi,omitempty"`
}

// Scene is a complete declarative problem description. Validate it once
// (Parse, LoadFile and Preset already do), then treat it as immutable: a
// validated Scene is safe to share across configs, replicas and goroutines.
type Scene struct {
	// Name labels the scene in output; it carries no physics and is
	// excluded from the content hash.
	Name string `json:"name,omitempty"`
	// Width, Height are the physical domain extent in metres; 0 means the
	// paper domain (2.5 m).
	Width  float64 `json:"width,omitempty"`
	Height float64 `json:"height,omitempty"`
	// Background names the material filling the domain before regions are
	// painted; empty means the first material.
	Background string     `json:"background,omitempty"`
	Materials  []Material `json:"materials"`
	Regions    []Region   `json:"regions,omitempty"`
	Sources    []Source   `json:"sources"`
	Boundaries Boundaries `json:"boundaries,omitzero"`

	// Set by Validate.
	hash string
	bcs  [mesh.NumEdges]mesh.BC
}

// Validate checks the scene, resolves every default in place (domain
// extent, background, source shares/weights/energies, boundary names) and
// computes the content hash. It is idempotent; call it once before sharing
// the scene across goroutines.
func (s *Scene) Validate() error {
	if s.hash != "" {
		return nil
	}
	if s.Width < 0 || s.Height < 0 {
		return fmt.Errorf("scene: negative domain extent %gx%g", s.Width, s.Height)
	}
	if s.Width == 0 {
		s.Width = mesh.Extent
	}
	if s.Height == 0 {
		s.Height = mesh.Extent
	}
	if len(s.Materials) == 0 {
		return fmt.Errorf("scene: no materials")
	}
	byName := make(map[string]float64, len(s.Materials))
	for i, m := range s.Materials {
		if m.Name == "" {
			return fmt.Errorf("scene: material %d has no name", i)
		}
		if _, dup := byName[m.Name]; dup {
			return fmt.Errorf("scene: duplicate material %q", m.Name)
		}
		if m.Density < 0 || math.IsNaN(m.Density) || math.IsInf(m.Density, 0) {
			return fmt.Errorf("scene: material %q density %g must be finite and non-negative", m.Name, m.Density)
		}
		byName[m.Name] = m.Density
	}
	if s.Background == "" {
		s.Background = s.Materials[0].Name
	}
	if _, ok := byName[s.Background]; !ok {
		return fmt.Errorf("scene: background material %q not defined", s.Background)
	}
	// A mesh cell is a one-byte material index, so a scene may paint at most
	// mesh.MaxDensities distinct densities: counted here, so the scene is
	// refused whole rather than at whichever region's paint is one too many.
	painted := map[uint64]bool{math.Float64bits(byName[s.Background]): true}
	for i, r := range s.Regions {
		rho, ok := byName[r.Material]
		if !ok {
			return fmt.Errorf("scene: region %d references unknown material %q", i, r.Material)
		}
		if !(r.X1 > r.X0) || !(r.Y1 > r.Y0) {
			return fmt.Errorf("scene: region %d box [%g,%g)x[%g,%g) is empty", i, r.X0, r.X1, r.Y0, r.Y1)
		}
		painted[math.Float64bits(rho)] = true
	}
	if len(painted) > mesh.MaxDensities {
		return fmt.Errorf("scene: background and regions use %d distinct material densities: %w",
			len(painted), mesh.ErrTooManyDensities)
	}
	if len(s.Sources) == 0 {
		return fmt.Errorf("scene: no sources")
	}
	for i := range s.Sources {
		src := &s.Sources[i]
		for _, v := range []float64{src.X0, src.X1, src.Y0, src.Y1, src.Share,
			src.Weight, src.Energy, src.EnergyJitter, src.WeightJitter, src.TimeJitter} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("scene: source %d carries a non-finite parameter", i)
			}
		}
		if src.X1 < src.X0 || src.Y1 < src.Y0 {
			return fmt.Errorf("scene: source %d box is inverted", i)
		}
		if src.X0 < 0 || src.Y0 < 0 || src.X1 > s.Width || src.Y1 > s.Height {
			return fmt.Errorf("scene: source %d box [%g,%g]x[%g,%g] leaves the %gx%g domain",
				i, src.X0, src.X1, src.Y0, src.Y1, s.Width, s.Height)
		}
		if src.Share == 0 {
			src.Share = 1
		}
		if src.Share < 0 {
			return fmt.Errorf("scene: source %d share %g must be positive", i, src.Share)
		}
		if src.Weight == 0 {
			src.Weight = particle.SourceWeight
		}
		if src.Weight < 0 {
			return fmt.Errorf("scene: source %d weight %g must be positive", i, src.Weight)
		}
		if src.Energy == 0 {
			src.Energy = particle.SourceEnergy
		}
		if src.Energy < 0 {
			return fmt.Errorf("scene: source %d energy %g must be positive", i, src.Energy)
		}
		for name, j := range map[string]float64{
			"energy_jitter": src.EnergyJitter, "weight_jitter": src.WeightJitter,
		} {
			if j < 0 || j >= 1 {
				return fmt.Errorf("scene: source %d %s %g must be in [0, 1)", i, name, j)
			}
		}
		if src.TimeJitter < 0 || src.TimeJitter > 1 {
			return fmt.Errorf("scene: source %d time_jitter %g must be in [0, 1]", i, src.TimeJitter)
		}
	}
	for i, name := range []string{s.Boundaries.XLo, s.Boundaries.XHi, s.Boundaries.YLo, s.Boundaries.YHi} {
		bc, err := mesh.ParseBC(name)
		if err != nil {
			return fmt.Errorf("scene: boundary %v: %w", mesh.Edge(i), err)
		}
		s.bcs[i] = bc
	}
	s.hash = s.contentHash()
	return nil
}

// Hash returns the canonical content hash of the scene's physics: every
// field that changes particle histories, with defaults resolved and with
// material names resolved to densities, so physically equivalent scenes hash
// identically regardless of naming. Cosmetic fields (Name) are excluded. An
// unvalidated scene is hashed through a normalised copy without being
// mutated.
func (s *Scene) Hash() string {
	if s.hash != "" {
		return s.hash
	}
	c := *s
	c.Materials = append([]Material(nil), s.Materials...)
	c.Regions = append([]Region(nil), s.Regions...)
	c.Sources = append([]Source(nil), s.Sources...)
	if err := c.Validate(); err != nil {
		// An invalid scene has no physics to identify; hash the raw JSON
		// form so the value is still deterministic.
		raw, _ := json.Marshal(s)
		sum := sha256.Sum256(raw)
		return "invalid-" + hex.EncodeToString(sum[:])
	}
	return c.hash
}

// contentHash digests the validated scene.
func (s *Scene) contentHash() string {
	density := make(map[string]float64, len(s.Materials))
	for _, m := range s.Materials {
		density[m.Name] = m.Density
	}
	h := sha256.New()
	fb := func(v float64) uint64 { return math.Float64bits(v) }
	fmt.Fprintf(h, "w=%x h=%x bg=%x ", fb(s.Width), fb(s.Height), fb(density[s.Background]))
	for _, r := range s.Regions {
		fmt.Fprintf(h, "r=%x,%x,%x,%x,%x ",
			fb(r.X0), fb(r.X1), fb(r.Y0), fb(r.Y1), fb(density[r.Material]))
	}
	for _, src := range s.Sources {
		fmt.Fprintf(h, "s=%x,%x,%x,%x,%x,%x,%x,%x,%x,%x ",
			fb(src.X0), fb(src.X1), fb(src.Y0), fb(src.Y1),
			fb(src.Share), fb(src.Weight), fb(src.Energy),
			fb(src.EnergyJitter), fb(src.WeightJitter), fb(src.TimeJitter))
	}
	fmt.Fprintf(h, "bc=%d,%d,%d,%d", s.bcs[0], s.bcs[1], s.bcs[2], s.bcs[3])
	return hex.EncodeToString(h.Sum(nil))
}

// Build paints the scene onto a fresh mesh at the requested resolution:
// background density everywhere, then each region in order, then the
// per-edge boundary conditions. The scene is validated if it has not been
// already.
func (s *Scene) Build(nx, ny int) (*mesh.Mesh, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	density := make(map[string]float64, len(s.Materials))
	for _, m := range s.Materials {
		density[m.Name] = m.Density
	}
	m, err := mesh.New(nx, ny, s.Width, s.Height, density[s.Background])
	if err != nil {
		return nil, err
	}
	for _, r := range s.Regions {
		m.PaintRegion(r.X0, r.Y0, r.X1, r.Y1, density[r.Material])
	}
	for e := mesh.Edge(0); e < mesh.NumEdges; e++ {
		m.SetEdgeBC(e, s.bcs[e])
	}
	return m, nil
}

// SourceTerms converts the validated scene's sources to the sampler form
// particle.PopulateSources consumes.
func (s *Scene) SourceTerms() []particle.SourceTerm {
	terms := make([]particle.SourceTerm, len(s.Sources))
	for i, src := range s.Sources {
		terms[i] = particle.SourceTerm{
			Box:          mesh.SourceBox{X0: src.X0, X1: src.X1, Y0: src.Y0, Y1: src.Y1},
			Share:        src.Share,
			Weight:       src.Weight,
			Energy:       src.Energy,
			EnergyJitter: src.EnergyJitter,
			WeightJitter: src.WeightJitter,
			TimeJitter:   src.TimeJitter,
		}
	}
	return terms
}

// HasVacuum reports whether any edge of the validated scene is a vacuum
// boundary.
func (s *Scene) HasVacuum() bool {
	for _, bc := range s.bcs {
		if bc == mesh.Vacuum {
			return true
		}
	}
	return false
}

// CanonicalJSON serialises the validated scene in its canonical field order
// — the self-describing form snapshots embed.
func (s *Scene) CanonicalJSON() ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(s)
}

// Parse decodes and validates a JSON scene. Unknown fields and trailing
// data after the document are rejected, so a typoed knob or a botched
// concatenation fails loudly instead of silently running a partial scene.
func Parse(data []byte) (*Scene, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Scene
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scene: decode: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("scene: trailing data after the scene document")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadFile reads and validates a JSON scene file.
func LoadFile(path string) (*Scene, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scene: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("scene: %s: %w", path, err)
	}
	return s, nil
}
