// Reactor shielding: the kind of deep-penetration calculation the paper's
// introduction motivates (particle transport "is essential for shielding
// and criticality calculations").
//
// A fast-neutron source on the left face fires into a three-layer shield —
// a light moderator, a void gap, and a dense absorber — built as an inline
// scene, one material and region per layer. The example reports the energy
// deposited in each layer and the population that leaks past the shield.
//
//	go run ./examples/reactor_shield
package main

import (
	"fmt"
	"log"

	neutral "repro"
)

const (
	nx    = 384
	width = 2.5 // domain extent in metres
)

// Layer boundaries as fractions of the domain width. Densities are chosen
// so the layers are a few mean free paths thick (the synthetic cross
// sections give a 10 MeV neutron a ~44 cm mean free path at 1 kg/m^3):
// the moderator attenuates, the absorber nearly stops the remainder.
var layers = []struct {
	name     string
	from, to float64
	density  float64 // kg/m^3
}{
	{"source gap ", 0.00, 0.10, 1e-30},
	{"moderator  ", 0.10, 0.35, 2.0},
	{"void gap   ", 0.35, 0.45, 1e-30},
	{"absorber   ", 0.45, 0.70, 6.0},
	{"beyond     ", 0.70, 1.00, 1e-30},
}

// cols returns the layer's column range: its region is painted from facet
// to facet, so the dose integration below bins by the same columns.
func cols(from, to float64) (int, int) { return int(from * nx), int(to * nx) }

func main() {
	cfg, err := neutral.DefaultConfig("stream")
	if err != nil {
		log.Fatal(err)
	}
	cfg.NX, cfg.NY = nx, nx
	cfg.Particles = 5000
	cfg.KeepCells = true
	cfg.KeepBank = true

	// Build the shield stack, with a thin source column at the left face.
	shield := &neutral.Scene{
		Name: "reactor-shield",
		Sources: []neutral.SceneSource{{
			X0: 0.01 * width, X1: 0.05 * width,
			Y0: 0.3 * width, Y1: 0.7 * width,
		}},
	}
	for _, l := range layers {
		from, to := cols(l.from, l.to)
		shield.Materials = append(shield.Materials, neutral.SceneMaterial{Name: l.name, Density: l.density})
		shield.Regions = append(shield.Regions, neutral.SceneRegion{
			Material: l.name, Y0: 0, Y1: width,
			X0: float64(from) * width / nx, X1: float64(to) * width / nx,
		})
	}
	cfg.Scene = shield

	res, err := neutral.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Integrate deposition per layer, using the same integer column
	// boundaries the density setup used.
	layerDose := make([]float64, len(layers))
	for cy := 0; cy < nx; cy++ {
		for cx := 0; cx < nx; cx++ {
			for i, l := range layers {
				from, to := cols(l.from, l.to)
				if cx >= from && cx < to {
					layerDose[i] += res.Cells[cy*nx+cx]
					break
				}
			}
		}
	}

	fmt.Printf("reactor shield, %d source neutrons at 10 MeV, %v wallclock\n\n",
		cfg.Particles, res.Wall.Round(1e6))
	fmt.Println("layer          density kg/m3     deposited weight-eV   share")
	total := res.TallyTotal
	for i, l := range layers {
		share := 0.0
		if total > 0 {
			share = layerDose[i] / total
		}
		fmt.Printf("%s %14.3g %22.4g %7.1f%%\n", l.name, l.density, layerDose[i], 100*share)
	}

	// Population audit: what leaked past the absorber?
	var leaked, totalWeight float64
	var p neutral.Particle
	for i := 0; i < res.Bank.Len(); i++ {
		res.Bank.Load(i, &p)
		totalWeight += p.Weight
		if p.X > 0.70*width {
			leaked += p.Weight
		}
	}
	fmt.Printf("\nsurviving weight %.1f of %d born; leaked past absorber: %.2f (%.2f%%)\n",
		totalWeight, cfg.Particles, leaked, 100*leaked/float64(cfg.Particles))
	fmt.Printf("conservation error %.2e; %d collisions, %d facet crossings\n",
		res.Conservation.RelativeError, res.Counter.CollisionEvents, res.Counter.FacetEvents)
}
