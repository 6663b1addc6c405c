package core

import (
	"strings"
	"testing"

	"repro/internal/mesh"
	"repro/internal/tally"
)

// TestParseSchemeRoundTrip: every scheme name (canonical and alias) parses,
// canonical names survive a String round trip, and junk is rejected.
func TestParseSchemeRoundTrip(t *testing.T) {
	cases := []struct {
		in   string
		want Scheme
	}{
		{"over-particles", OverParticles},
		{"particles", OverParticles},
		{"op", OverParticles},
		{"over-events", OverEvents},
		{"events", OverEvents},
		{"oe", OverEvents},
	}
	for _, c := range cases {
		got, err := ParseScheme(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseScheme(%q) = %v, %v", c.in, got, err)
		}
	}
	for _, s := range []Scheme{OverParticles, OverEvents} {
		back, err := ParseScheme(s.String())
		if err != nil || back != s {
			t.Errorf("round trip %v -> %q -> %v, %v", s, s.String(), back, err)
		}
	}
	if _, err := ParseScheme("breadth-first"); err == nil {
		t.Error("bogus scheme accepted")
	}
	if !strings.Contains(Scheme(9).String(), "9") {
		t.Error("unknown scheme String() hides its value")
	}
}

// TestValidateEnsembleAndWindowErrors is the table of error paths the new
// fields add, plus the normalisations Validate must apply.
func TestValidateEnsembleAndWindowErrors(t *testing.T) {
	bad := []struct {
		name   string
		mutate func(*Config)
	}{
		{"negative replicas", func(c *Config) { c.Replicas = -1 }},
		{"negative replica index", func(c *Config) { c.Replica = -2 }},
		{"window target negative", func(c *Config) {
			c.WeightWindow = WeightWindow{Enabled: true, Target: -0.5}
		}},
		{"window ratio one", func(c *Config) {
			c.WeightWindow = WeightWindow{Enabled: true, Ratio: 1}
		}},
		{"window ratio below one", func(c *Config) {
			c.WeightWindow = WeightWindow{Enabled: true, Ratio: 0.25}
		}},
		{"window split cap negative", func(c *Config) {
			c.WeightWindow = WeightWindow{Enabled: true, SplitMax: -3}
		}},
	}
	for _, c := range bad {
		cfg := Default(mesh.CSP)
		c.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}

	cfg := Default(mesh.CSP)
	cfg.WeightWindow = WeightWindow{Enabled: true}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("defaulted window rejected: %v", err)
	}
	if cfg.Replicas != 1 {
		t.Errorf("Validate left Replicas = %d, want 1", cfg.Replicas)
	}
	ww := cfg.WeightWindow
	if ww.Target != 1 || ww.Ratio != 4 || ww.SplitMax != 8 {
		t.Errorf("window defaults not applied: %+v", ww)
	}
	// A disabled window never validates its knobs.
	cfg = Default(mesh.CSP)
	cfg.WeightWindow = WeightWindow{Ratio: 0.1}
	if err := cfg.Validate(); err != nil {
		t.Errorf("disabled window knobs rejected: %v", err)
	}
	// Replica indices beyond Replicas are legal (ensemble sub-configs).
	cfg = Default(mesh.CSP)
	cfg.Replica = 7
	if err := cfg.Validate(); err != nil {
		t.Errorf("replica sub-config rejected: %v", err)
	}
}

// TestFingerprintCoversEnsembleFields: the new fields must move the
// fingerprint (they change the run or its meaning), normalisation must not
// (Replicas 0 ≡ 1, window defaults ≡ explicit defaults), and the
// serial/parallel distinction of everything else is untouched.
func TestFingerprintCoversEnsembleFields(t *testing.T) {
	base := Default(mesh.CSP)
	fp := func(c Config) string {
		k, ok := c.Fingerprint()
		if !ok {
			t.Fatal("hookless config reported uncacheable")
		}
		return k
	}
	ref := fp(base)

	norm := base
	norm.Replicas = 1
	if fp(norm) != ref {
		t.Error("Replicas 0 and 1 fingerprint differently")
	}
	expl := base
	expl.WeightWindow = WeightWindow{Enabled: true}
	defaulted := base
	defaulted.WeightWindow = WeightWindow{Enabled: true, Target: 1, Ratio: 4, SplitMax: 8}
	if fp(expl) != fp(defaulted) {
		t.Error("window defaults fingerprint differently from explicit values")
	}

	for name, mutate := range map[string]func(*Config){
		"replicas": func(c *Config) { c.Replicas = 8 },
		"replica":  func(c *Config) { c.Replica = 3 },
		"window":   func(c *Config) { c.WeightWindow = WeightWindow{Enabled: true} },
		"window target": func(c *Config) {
			c.WeightWindow = WeightWindow{Enabled: true, Target: 0.5}
		},
	} {
		c := base
		mutate(&c)
		if fp(c) == ref {
			t.Errorf("%s change did not move the fingerprint", name)
		}
	}
}

// TestFingerprintArithmeticEpoch: the same configuration keyed by an earlier
// meaning of the fingerprint must not key the same now, or a blob store
// written then would be served as this code's result. The hashes below are
// the default csp config's before the fixed-point tally (results varied in
// their last bits from run to run) and while the key still covered the
// execution strategy.
func TestFingerprintArithmeticEpoch(t *testing.T) {
	k, _ := Default(mesh.CSP).Fingerprint()
	for epoch, retired := range map[string]string{
		"float-accumulation": "64c4dfcb6587f99be00275899be9b9c90dd7bce8b044341f7186e6c8f09ad700",
		"strategy-keyed":     "433c02715e61c85eba6f6b5984ffcc91b8d3db7814094c2b462bae4969b48df7",
	} {
		if k == retired {
			t.Fatalf("fingerprint of the default csp config is still the %s epoch's", epoch)
		}
	}
}

// TestTallyModeRoundTripAllModes extends the mode round trip over the full
// mode set.
func TestTallyModeRoundTripAllModes(t *testing.T) {
	for _, m := range []tally.Mode{tally.ModeAtomic, tally.ModePrivate, tally.ModeNull} {
		back, err := tally.ParseMode(m.String())
		if err != nil || back != m {
			t.Errorf("round trip %v -> %q -> %v, %v", m, m.String(), back, err)
		}
	}
}
