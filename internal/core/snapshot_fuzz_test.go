package core

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"repro/internal/mesh"
	"repro/internal/particle"
)

// fuzzConfig is the fixed configuration every fuzzed restore is offered
// under: small, two steps, weight window enabled so the variable-length
// bank path is reachable.
func fuzzConfig() Config {
	cfg := Default(mesh.CSP)
	cfg.NX, cfg.NY = 48, 48
	cfg.Particles = 60
	cfg.Steps = 2
	cfg.WeightWindow = WeightWindow{Enabled: true}
	return cfg
}

// fuzzSeeds builds the snapshot corpus: both layouts, every step boundary of
// the fuzz config and one well-framed snapshot with a repeated tally cell,
// plus an analog (fixed-population) variant.
func fuzzSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	var seeds [][]byte
	for _, layout := range []particle.Layout{particle.AoS, particle.SoA} {
		cfg := fuzzConfig()
		cfg.Layout = layout
		sim, err := NewSimulation(cfg)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, sim.Snapshot())
		for !sim.Done() {
			if err := sim.Step(); err != nil {
				tb.Fatal(err)
			}
			seeds = append(seeds, sim.Snapshot())
		}
		// Checksum-valid, every tally entry in range, one cell named four
		// times: the decoder must refuse it, not sum it to zero.
		seeds = append(seeds, repeatTallyCell(tb, sim, 4))
	}
	analog := fuzzConfig()
	analog.WeightWindow = WeightWindow{}
	sim, err := NewSimulation(analog)
	if err != nil {
		tb.Fatal(err)
	}
	seeds = append(seeds, sim.Snapshot())
	return seeds
}

// FuzzRestoreSimulation is the snapshot decoder's safety pin: whatever
// bytes arrive — valid checkpoints, truncations, bit flips, adversarial
// length fields — RestoreSimulation must either succeed on a structurally
// valid snapshot or fail with an error; it must never panic and never
// attempt an allocation the payload cannot back.
func FuzzRestoreSimulation(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
		// Hand-mutated variants seed the interesting failure classes
		// directly: truncation at several depths and corruption in the
		// header, the bank header and the tally region.
		for _, n := range []int{0, 7, 12, 44, 52, len(seed) / 2, len(seed) - 5} {
			if n < len(seed) {
				f.Add(seed[:n])
			}
		}
		for _, off := range []int{8, 11, 44, 52, 60, len(seed) / 3, len(seed) - 6} {
			if off < len(seed) {
				flip := append([]byte(nil), seed...)
				flip[off] ^= 0x80
				f.Add(flip)
			}
		}
	}
	cfg := fuzzConfig()
	f.Fuzz(func(t *testing.T, data []byte) {
		sim, err := RestoreSimulation(cfg, data)
		if err != nil {
			if sim != nil {
				t.Fatal("error return carried a simulation")
			}
			return
		}
		// A restore the decoder accepted must be a usable simulation.
		if sim.StepIndex() < 0 || sim.StepIndex() > sim.Steps() {
			t.Fatalf("restored step %d outside [0, %d]", sim.StepIndex(), sim.Steps())
		}
		for !sim.Done() {
			if err := sim.Step(); err != nil {
				t.Fatalf("restored simulation failed to step: %v", err)
			}
		}
	})
}

// TestRestoreRejectsOversizedBank pins the allocation guard the fuzz target
// relies on: a snapshot whose bank-length field promises more records than
// the payload holds must be rejected as corrupt before any allocation, even
// when the CRC is fixed up to match.
func TestRestoreRejectsOversizedBank(t *testing.T) {
	cfg := fuzzConfig()
	sim, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := sim.Snapshot()

	// The bank length sits after magic+version+hash+step+counter vector.
	off := len(snapshotMagic) + 4 + 32 + 8 + 4 + 8*len(counterVector(&Counters{})) + 1
	var huge [8]byte
	for i := range huge {
		huge[i] = 0xff
	}
	bad := append([]byte(nil), snap...)
	copy(bad[off:], huge[:])
	bad = fixCRC(bad)
	if _, err := RestoreSimulation(cfg, bad); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("oversized bank: %v, want ErrSnapshotCorrupt", err)
	}
}

// fixCRC recomputes the trailing checksum after a deliberate mutation, so
// the test exercises the semantic validation rather than the CRC.
func fixCRC(data []byte) []byte {
	payload := data[:len(data)-4]
	return binary.LittleEndian.AppendUint32(payload, crc32.ChecksumIEEE(payload))
}
