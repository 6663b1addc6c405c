// Dosimetry: a medical-physics style depth-dose calculation ("for medical
// sciences the algorithms can be used to determine radiation dosages",
// paper §III-A).
//
// A collimated beam enters a tissue-density phantom from the left; the
// example prints the depth-dose curve (energy deposited per depth bin) and
// the depth of maximum dose.
//
//	go run ./examples/dosimetry
package main

import (
	"fmt"
	"log"
	"strings"

	neutral "repro"
)

const (
	nx    = 320
	width = 2.5 // domain extent, metres
)

func main() {
	cfg, err := neutral.DefaultConfig("stream")
	if err != nil {
		log.Fatal(err)
	}
	cfg.NX, cfg.NY = nx, nx
	cfg.Particles = 8000
	cfg.KeepCells = true

	// Phantom occupying x > 0.2 of the domain. 3 kg/m^3 gives a ~15 cm
	// mean free path at the 10 MeV source energy under the synthetic
	// cross sections, so the 2 m phantom spans ~13 mean free paths — a
	// classic attenuating depth-dose profile.
	const phantomStart = 0.2
	cfg.Scene = &neutral.Scene{
		Name: "dosimetry",
		Materials: []neutral.SceneMaterial{
			{Name: "near-vacuum", Density: 1e-30},
			{Name: "tissue", Density: 3.0},
		},
		Regions: []neutral.SceneRegion{
			{Material: "tissue", X0: phantomStart * width, X1: width, Y0: 0, Y1: width},
		},
		// Narrow beam at mid-height entering from the left edge.
		Sources: []neutral.SceneSource{{
			X0: 0.02 * width, X1: 0.06 * width,
			Y0: 0.48 * width, Y1: 0.52 * width,
		}},
	}

	res, err := neutral.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Depth-dose: integrate deposition over y per x column, binned.
	const bins = 24
	dose := make([]float64, bins)
	for cy := 0; cy < nx; cy++ {
		for cx := 0; cx < nx; cx++ {
			b := cx * bins / nx
			dose[b] += res.Cells[cy*nx+cx]
		}
	}
	maxDose, maxBin := 0.0, 0
	for b, d := range dose {
		if d > maxDose {
			maxDose, maxBin = d, b
		}
	}

	fmt.Printf("dosimetry: %d source particles at 10 MeV, phantom from x=%.2f m, %v wallclock\n\n",
		cfg.Particles, phantomStart*width, res.Wall.Round(1e6))
	fmt.Println("depth (m)     dose (weight-eV)")
	for b, d := range dose {
		depth := (float64(b) + 0.5) / bins * width
		bar := ""
		if maxDose > 0 {
			bar = strings.Repeat("#", int(40*d/maxDose))
		}
		fmt.Printf("%8.3f  %12.4g  %s\n", depth, d, bar)
	}
	fmt.Printf("\npeak dose at depth %.3f m (%.3f m into the phantom)\n",
		(float64(maxBin)+0.5)/bins*width,
		(float64(maxBin)+0.5)/bins*width-phantomStart*width)
	fmt.Printf("total dose %.4g weight-eV, conservation error %.2e\n",
		res.TallyTotal, res.Conservation.RelativeError)
}
