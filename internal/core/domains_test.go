package core

import (
	"testing"

	"repro/internal/mesh"
	"repro/internal/particle"
)

// TestRunDomainsMatchesRun: domain ownership only changes who processes a
// particle; the counter-based RNG makes the physics identical to a plain
// run, bit for bit.
func TestRunDomainsMatchesRun(t *testing.T) {
	cfg := smallConfig(mesh.CSP)
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := RunDomains(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	compareBanks(t, plain.Bank, res.Bank)
	if plain.Counter.TotalEvents() != res.Counter.TotalEvents() {
		t.Errorf("event totals differ: %d vs %d",
			plain.Counter.TotalEvents(), res.Counter.TotalEvents())
	}
	if res.Conservation.RelativeError > 1e-9 {
		t.Errorf("conservation error %.3g", res.Conservation.RelativeError)
	}
	if stats.Domains != 4 || len(stats.Busy) != 4 {
		t.Fatalf("stats malformed: %+v", stats)
	}
}

// TestRunDomainsOwnership: birth populations land in the right strips, and
// streaming particles generate census-exchange traffic.
func TestRunDomainsOwnership(t *testing.T) {
	cfg := smallConfig(mesh.CSP) // source in the bottom-left strip
	cfg.Steps = 2
	_, stats, err := RunDomains(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	// csp births are all in the bottom-left tenth of the mesh: domain 0.
	if stats.StartPopulation[0] != cfg.Particles {
		t.Errorf("start population = %v, want all %d in domain 0",
			stats.StartPopulation, cfg.Particles)
	}
	// Streaming across the mesh must migrate particles between strips.
	if stats.TotalMigrations() == 0 {
		t.Error("no census-exchange migrations despite streaming particles")
	}
	if len(stats.Migrations) != cfg.Steps {
		t.Errorf("migration log has %d entries, want %d", len(stats.Migrations), cfg.Steps)
	}
	if stats.Imbalance() < 1 {
		t.Errorf("imbalance %v < 1", stats.Imbalance())
	}
}

// TestRunDomainsScatterStaysHome: the scatter problem's particles die in
// their birth cells, so almost nothing migrates — the decomposition's best
// case.
func TestRunDomainsScatterStaysHome(t *testing.T) {
	cfg := smallConfig(mesh.Scatter)
	_, stats, err := RunDomains(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if frac := float64(stats.TotalMigrations()) / float64(cfg.Particles); frac > 0.2 {
		t.Errorf("scatter migrated %.1f%% of particles, want ~0", 100*frac)
	}
}

// TestRunDomainsVacuumMigrationAccounting: under a scene with vacuum edges,
// escaped particles must never be counted as census-exchange migrations —
// they left the domain, so no MPI rank would ship them. The expected
// migration count is derived independently from a plain run's final bank:
// every particle still in the simulation whose final strip differs from its
// birth strip, and nothing else.
func TestRunDomainsVacuumMigrationAccounting(t *testing.T) {
	cfg := smallConfig(mesh.CSP)
	cfg.Scene = leakScene(t) // csp geometry, +x/+y edges open
	const domains = 4

	// Ground truth from a plain run of the identical physics.
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Counter.Escapes == 0 {
		t.Fatal("leak scene produced no escapes; the accounting test is vacuous")
	}
	domainOf := func(cellX int32) int {
		d := int(cellX) * domains / cfg.NX
		if d >= domains {
			d = domains - 1
		}
		return d
	}
	// Recompute birth strips by resampling the identical source population.
	vcfg := cfg
	if err := vcfg.Validate(); err != nil {
		t.Fatal(err)
	}
	m, err := vcfg.Scene.Build(vcfg.NX, vcfg.NY)
	if err != nil {
		t.Fatal(err)
	}
	birth := particle.NewBank(vcfg.Layout, vcfg.Particles)
	particle.Births(birth, m, vcfg.Scene.SourceTerms(), vcfg.Timestep, vcfg.Seed, 0, 0, birth.Len())

	wantMigrations := 0
	var pb, pf particle.Particle
	for i := 0; i < vcfg.Particles; i++ {
		birth.Load(i, &pb)
		plain.Bank.Load(i, &pf)
		if pf.Status == particle.Dead || pf.Status == particle.Escaped {
			continue
		}
		if domainOf(pf.CellX) != domainOf(pb.CellX) {
			wantMigrations++
		}
	}

	res, stats, err := RunDomains(cfg, domains)
	if err != nil {
		t.Fatal(err)
	}
	compareBanks(t, plain.Bank, res.Bank)
	if res.Counter.Escapes != plain.Counter.Escapes {
		t.Errorf("domain run escapes %d, plain %d", res.Counter.Escapes, plain.Counter.Escapes)
	}
	if got := stats.TotalMigrations(); got != wantMigrations {
		t.Errorf("migrations = %d, want %d (in-flight strip changes only)", got, wantMigrations)
	}
	// Sanity: histories did end in other strips, so the distinction bites —
	// counting escaped particles as migrations would inflate the number.
	inflated := 0
	for i := 0; i < vcfg.Particles; i++ {
		birth.Load(i, &pb)
		plain.Bank.Load(i, &pf)
		if pf.Status == particle.Escaped && domainOf(pf.CellX) != domainOf(pb.CellX) {
			inflated++
		}
	}
	if inflated == 0 {
		t.Error("no escaped particle changed strips; accounting test lacks teeth")
	}
}

func TestRunDomainsValidation(t *testing.T) {
	cfg := smallConfig(mesh.CSP)
	if _, _, err := RunDomains(cfg, 0); err == nil {
		t.Error("zero domains accepted")
	}
	if _, _, err := RunDomains(cfg, -2); err == nil {
		t.Error("negative domains accepted")
	}
	// Single domain degenerates to a serial run.
	res, stats, err := RunDomains(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Imbalance() != 1 {
		t.Errorf("single-domain imbalance = %v, want 1", stats.Imbalance())
	}
	if res.Counter.TotalEvents() == 0 {
		t.Error("no events")
	}
}
