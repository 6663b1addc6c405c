// Snapshot serialisation: a versioned binary checkpoint of everything a
// simulation needs to resume at a step boundary — the particle bank (both
// layouts serialise through the same per-record form), the tally mesh, the
// aggregated instrumentation counters, and the step index. The RNG needs no
// stream objects saved: it is counter-based, and each particle's counter
// rides in its record, so Restore replays the exact variate
// sequence an uninterrupted run would have consumed.
package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"

	"repro/internal/mesh"
	"repro/internal/particle"
	"repro/internal/scene"
	"repro/internal/tally"
)

// Snapshot format constants. The magic and version head every checkpoint;
// a CRC-32 of everything before it ends it. Version 2 extended the counter
// vector with OEActiveVisits (PR 3); version 3 added the population-control
// counters and admitted banks grown past the source population by
// weight-window splitting (PR 4); version 4 embeds the scene (canonical
// JSON, so a checkpoint is self-describing), the birth-weight/energy audit
// baselines, the per-edge leakage tallies, and the escape counter; version 5
// records the mesh storage ordering next to the bank layout (informational,
// like the layout — tally cells are stored by *logical* index, so a
// checkpoint taken under one ordering resumes under any other); version 6
// stores the tally and leakage blocks as int64 ticks, the accumulators'
// own fixed-point form, in the 8 bytes per value the floats took (the tick
// size is not stored: it is a function of the audit baselines, see
// run.setBirth). Older checkpoints are refused with the version error, not
// misreported as corrupt.
const (
	snapshotMagic   = "NEUTSNAP"
	snapshotVersion = uint32(6)
)

// ErrSnapshotCorrupt reports a snapshot that failed structural validation:
// wrong magic, unknown version, truncation, or checksum mismatch.
var ErrSnapshotCorrupt = fmt.Errorf("core: snapshot corrupt")

// ErrSnapshotMismatch reports a snapshot whose physics identity (problem,
// mesh, population, timestep, steps, seed, cutoffs, source, tables) does
// not match the configuration offered to Restore.
var ErrSnapshotMismatch = fmt.Errorf("core: snapshot does not match config")

// physicsHash digests a run's Physics — the identity a snapshot must share
// with the config it resumes under, and the physics half of
// Config.Fingerprint. It takes the Physics part alone, so no Strategy or
// Shape field can enter it, and TestFingerprint checks by reflection that
// every Physics field moves it. Its input bytes are part of the snapshot
// format (the hash is in the header). The scene enters through its content
// hash, so a checkpoint taken under a preset resumes under an equivalent
// inline scene and vice versa. The density-hook=false literal is a fixed
// part of the input: it keeps every hash, fingerprint and snapshot written
// while configs could carry a density hook readable.
func physicsHash(p Physics) [sha256.Size]byte {
	h := sha256.New()
	fmt.Fprintf(h, "scene=%s nx=%d ny=%d particles=%d dt=%x steps=%d seed=%d ",
		p.sceneKey(), p.NX, p.NY, p.Particles,
		math.Float64bits(p.Timestep), p.Steps, p.Seed)
	fmt.Fprintf(h, "xs=%d wcut=%x ecut=%x density-hook=false ",
		p.XSPoints, math.Float64bits(p.WeightCutoff),
		math.Float64bits(p.EnergyCutoff))
	// Replica shifts the RNG stream families; the weight window inserts
	// population-control moves. Both change histories, so both are part of
	// the identity. A disabled window's knobs are inert, so they hash as
	// zeros.
	var ww WeightWindow
	if p.WeightWindow.Enabled {
		ww = p.WeightWindow.withDefaults() // canonical under validation
	}
	fmt.Fprintf(h, "replica=%d ww=%t,%x,%x,%d ",
		p.Replica, ww.Enabled,
		math.Float64bits(ww.Target), math.Float64bits(ww.Ratio), ww.SplitMax)
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// counterVector flattens Counters into the fixed field order the snapshot
// stores; counterScatter is its inverse. Keeping both next to each other is
// the drift guard: a new counter field must be added to each.
func counterVector(c *Counters) []uint64 {
	return []uint64{
		c.FacetEvents, c.CollisionEvents, c.CensusEvents, c.Reflections,
		c.Deaths, c.Segments, c.XSLookups, c.XSSearchSteps,
		c.DensityReads, c.TallyFlushes, c.RNGDraws,
		c.OERounds, c.OESlotSweeps, c.OEActiveVisits,
		c.WWRoulette, c.WWKills, c.WWSplits, c.WWChildren,
		c.Escapes,
	}
}

func counterScatter(v []uint64) Counters {
	return Counters{
		FacetEvents: v[0], CollisionEvents: v[1], CensusEvents: v[2],
		Reflections: v[3], Deaths: v[4], Segments: v[5],
		XSLookups: v[6], XSSearchSteps: v[7], DensityReads: v[8],
		TallyFlushes: v[9], RNGDraws: v[10], OERounds: v[11],
		OESlotSweeps: v[12], OEActiveVisits: v[13],
		WWRoulette: v[14], WWKills: v[15], WWSplits: v[16], WWChildren: v[17],
		Escapes: v[18],
	}
}

// snapshotWriter fills a buffer of the snapshot's exact size with the
// little-endian payload, front to back.
type snapshotWriter struct {
	buf []byte
	off int
}

func (w *snapshotWriter) bytes(b []byte) { w.off += copy(w.buf[w.off:], b) }
func (w *snapshotWriter) u8(v uint8)     { w.buf[w.off] = v; w.off++ }
func (w *snapshotWriter) u32(v uint32) {
	binary.LittleEndian.PutUint32(w.buf[w.off:], v)
	w.off += 4
}
func (w *snapshotWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(w.buf[w.off:], v)
	w.off += 8
}
func (w *snapshotWriter) f64(v float64) { w.u64(math.Float64bits(v)) }
func (w *snapshotWriter) i64(v int64)   { w.u64(uint64(v)) }

// snapshotReader consumes the payload with bounds checking; the first
// overrun poisons the reader and every later read reports failure.
type snapshotReader struct {
	buf []byte
	off int
	bad bool
}

func (r *snapshotReader) take(n int) []byte {
	if r.bad || r.off+n > len(r.buf) {
		r.bad = true
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *snapshotReader) u8() uint8 {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *snapshotReader) u32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *snapshotReader) u64() uint64 {
	if b := r.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (r *snapshotReader) f64() float64 { return math.Float64frombits(r.u64()) }
func (r *snapshotReader) i32() int32   { return int32(r.u32()) }
func (r *snapshotReader) i64() int64   { return int64(r.u64()) }

// writeParticle writes one particle record in the canonical field order.
// The order is shared with readParticle and is layout-independent: an AoS
// snapshot restores into an SoA bank and vice versa. The record is
// particle.BytesPerParticle bytes; slicing it off once lets every field
// store below go to a constant offset with no further bounds check.
func (w *snapshotWriter) writeParticle(p *particle.Particle) {
	b := w.buf[w.off : w.off+particle.BytesPerParticle]
	w.off += particle.BytesPerParticle
	le := binary.LittleEndian
	le.PutUint64(b[0:], math.Float64bits(p.X))
	le.PutUint64(b[8:], math.Float64bits(p.Y))
	le.PutUint64(b[16:], math.Float64bits(p.UX))
	le.PutUint64(b[24:], math.Float64bits(p.UY))
	le.PutUint64(b[32:], math.Float64bits(p.Energy))
	le.PutUint64(b[40:], math.Float64bits(p.Weight))
	le.PutUint64(b[48:], math.Float64bits(p.MFPToCollision))
	le.PutUint64(b[56:], math.Float64bits(p.TimeToCensus))
	le.PutUint64(b[64:], math.Float64bits(p.Deposit))
	le.PutUint64(b[72:], math.Float64bits(p.CachedSigmaA))
	le.PutUint64(b[80:], math.Float64bits(p.CachedSigmaS))
	le.PutUint32(b[88:], uint32(p.CellX))
	le.PutUint32(b[92:], uint32(p.CellY))
	le.PutUint32(b[96:], uint32(p.XSIndex))
	le.PutUint64(b[100:], p.RNGCounter)
	le.PutUint64(b[108:], p.ID)
	b[116] = uint8(p.Status)
}

func (r *snapshotReader) readParticle(p *particle.Particle) {
	p.X = r.f64()
	p.Y = r.f64()
	p.UX = r.f64()
	p.UY = r.f64()
	p.Energy = r.f64()
	p.Weight = r.f64()
	p.MFPToCollision = r.f64()
	p.TimeToCensus = r.f64()
	p.Deposit = r.f64()
	p.CachedSigmaA = r.f64()
	p.CachedSigmaS = r.f64()
	p.CellX = r.i32()
	p.CellY = r.i32()
	p.XSIndex = r.i32()
	p.RNGCounter = r.u64()
	p.ID = r.u64()
	p.Status = particle.Status(r.u8())
}

// snapshotIdentity returns the two blocks of a snapshot that depend on the
// configuration alone: the physics hash and the scene in canonical JSON. The
// scene rides along to make the checkpoint self-describing — restore verifies
// it against the offered config, and tooling can read a checkpoint's geometry
// without the config that produced it. A service job snapshots at every step,
// so both are computed once per configuration (bind drops them).
func (r *run) snapshotIdentity() (hash [sha256.Size]byte, sceneJSON []byte) {
	if r.snapScene == nil {
		sceneJSON, err := r.cfg.Scene.CanonicalJSON()
		if err != nil {
			// The scene was validated at construction; a failure here is a
			// programming error, not an I/O condition.
			panic(fmt.Sprintf("core: snapshot scene serialisation: %v", err))
		}
		r.snapHash, r.snapScene = physicsHash(r.cfg.Physics), sceneJSON
	}
	return r.snapHash, r.snapScene
}

// Snapshot serialises the simulation's resumable state. It is only valid at
// a step boundary: after NewSimulation, between successful Steps, or inside
// a Drive onStep callback — never after ErrInterrupted, when workers may
// have advanced an unknown subset of histories past the boundary.
//
// Layout (all integers little-endian):
//
//	magic[8] version:u32 physicsHash[32] nextStep:u64
//	counters: count:u32 then count u64 fields
//	scene: len:u32 then canonical JSON bytes
//	audit: birthWeight:f64 birthEnergy:f64
//	leakage: 4 edge weights then 4 edge energies, i64 ticks each
//	bank: layout:u8 ordering:u8 n:u64 then n canonical particle records
//	tally: nonzero:u64 then (logical cell:u64 ticks:i64) pairs
//	crc32(payload):u32
func (s *Simulation) Snapshot() []byte {
	r := s.r

	// Counters aggregated exactly as finish would: any prior snapshot
	// base plus the live per-worker counters.
	agg := r.base
	for _, ws := range r.workers {
		agg.Add(&ws.c)
	}
	vec := counterVector(&agg)

	hash, sceneJSON := r.snapshotIdentity()

	// Sparse tally: deposition concentrates around the source, so most
	// cells of a large mesh are zero and storing (cell, value) pairs
	// beats a dense dump. Null tallies serialise as empty. Cells are keyed
	// by logical index whatever the storage ordering, so checkpoints are
	// portable across orderings.
	cells := r.tallyNonZeroLogical()
	n := r.bank.Len()

	// Everything is sized now: one allocation, filled front to back.
	size := len(snapshotMagic) + 4 + sha256.Size + 8 + // magic version hash step
		4 + 8*len(vec) + // counters
		4 + len(sceneJSON) + // scene
		8*2 + 8*2*mesh.NumEdges + // audit, leakage
		1 + 1 + 8 + n*particle.BytesPerParticle + // bank
		8 + 16*len(cells) + // tally
		4 // crc
	w := &snapshotWriter{buf: make([]byte, size)}
	w.bytes([]byte(snapshotMagic))
	w.u32(snapshotVersion)
	w.bytes(hash[:])
	w.u64(uint64(s.next))

	w.u32(uint32(len(vec)))
	for _, v := range vec {
		w.u64(v)
	}

	w.u32(uint32(len(sceneJSON)))
	w.bytes(sceneJSON)

	w.f64(r.birthWeight)
	w.f64(r.birthEnergy)
	for _, leak := range []*tally.Private{r.leakWeight, r.leakEnergy} {
		for _, t := range leak.Ticks() {
			w.i64(t)
		}
	}

	w.u8(uint8(r.bank.Layout()))
	w.u8(uint8(r.mesh.Ordering()))
	w.u64(uint64(n))
	// AoS records are serialised in place; SoA gathers the columns.
	if recs := r.bank.Records(); recs != nil {
		for i := range recs {
			w.writeParticle(&recs[i])
		}
	} else {
		var p particle.Particle
		for i := 0; i < n; i++ {
			r.bank.Load(i, &p)
			w.writeParticle(&p)
		}
	}

	w.u64(uint64(len(cells)))
	for _, c := range cells {
		w.u64(uint64(c.Index))
		w.i64(c.Ticks)
	}

	w.u32(crc32.ChecksumIEEE(w.buf[:w.off]))
	return w.buf
}

// WriteSnapshotFile persists a snapshot atomically: the bytes go to a
// uniquely named temporary file in the destination directory, then rename
// into place. A crash mid-write, or a concurrent writer checkpointing the
// same path, never leaves a partial or interleaved file at path — the last
// complete snapshot wins.
func WriteSnapshotFile(path string, data []byte) error {
	dir, base := filepath.Split(path)
	tmp, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), path)
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return werr
	}
	return nil
}

// RestoreSimulation rebuilds a simulation from a Snapshot taken under an
// equivalent configuration: Restore on a zero Simulation.
func RestoreSimulation(cfg Config, data []byte) (*Simulation, error) {
	s := new(Simulation)
	if err := s.Restore(cfg, data); err != nil {
		return nil, err
	}
	return s, nil
}

// Restore is Reset from a Snapshot taken under an equivalent configuration —
// same physics identity (see physicsHash), any execution strategy — instead
// of from the source, so a resume lands on the allocations the simulation
// already holds. The caller supplies the config, execution strategy
// included; the snapshot's embedded physics hash refuses one of other
// physics. The restored simulation continues from the recorded step
// boundary and, run to completion, produces the same bank and counters an
// uninterrupted run of cfg would have — bit for bit.
//
// A snapshot refused before the bind (framing, identity, a config or density
// field that does not build) leaves the previous configuration in place, like
// a refused Reset; one whose records fail to decode after it has overwritten
// state, and leaves the zero Simulation for the next Reset or Restore.
func (s *Simulation) Restore(cfg Config, data []byte) error {
	// Structural validation up front, before paying for mesh and table
	// construction.
	headLen := len(snapshotMagic) + 4
	if len(data) < headLen+sha256.Size+8+4 {
		return fmt.Errorf("%w: truncated header (%d bytes)", ErrSnapshotCorrupt, len(data))
	}
	if !bytes.Equal(data[:len(snapshotMagic)], []byte(snapshotMagic)) {
		return fmt.Errorf("%w: bad magic", ErrSnapshotCorrupt)
	}
	if v := binary.LittleEndian.Uint32(data[len(snapshotMagic):]); v != snapshotVersion {
		return fmt.Errorf("%w: unsupported version %d", ErrSnapshotCorrupt, v)
	}
	payload, tail := data[:len(data)-4], data[len(data)-4:]
	if crc := binary.LittleEndian.Uint32(tail); crc != crc32.ChecksumIEEE(payload) {
		return fmt.Errorf("%w: checksum mismatch", ErrSnapshotCorrupt)
	}

	rd := &snapshotReader{buf: payload, off: headLen}
	var storedHash [sha256.Size]byte
	copy(storedHash[:], rd.take(sha256.Size))
	next := rd.u64()
	nCounters := int(rd.u32())
	want := len(counterVector(&Counters{}))
	if rd.bad || nCounters != want {
		return fmt.Errorf("%w: counter vector length %d, want %d", ErrSnapshotCorrupt, nCounters, want)
	}
	vec := make([]uint64, nCounters)
	for i := range vec {
		vec[i] = rd.u64()
	}

	// Scene block: the embedded canonical JSON must itself parse and must
	// describe the same physics as the offered config's scene — a second,
	// self-describing guard alongside the physics hash.
	sceneLen := int(rd.u32())
	if rd.bad || sceneLen > len(payload)-rd.off {
		return fmt.Errorf("%w: truncated scene block", ErrSnapshotCorrupt)
	}
	storedScene, err := scene.Parse(rd.take(sceneLen))
	if err != nil {
		return fmt.Errorf("%w: embedded scene: %v", ErrSnapshotCorrupt, err)
	}

	birthWeight := rd.f64()
	birthEnergy := rd.f64()
	var leak [2 * mesh.NumEdges]int64
	for i := range leak {
		if leak[i] = rd.i64(); leak[i] < 0 {
			return fmt.Errorf("%w: negative leakage", ErrSnapshotCorrupt)
		}
	}

	_ = rd.u8() // layout the snapshot was taken under; informational
	_ = rd.u8() // mesh ordering it was taken under; informational
	n := rd.u64()
	if rd.bad {
		return fmt.Errorf("%w: truncated bank header", ErrSnapshotCorrupt)
	}
	// Bound the bank length by the bytes that could actually hold it
	// before allocating anything: a corrupt (or adversarial) length field
	// must fail cleanly, not attempt a gigantic allocation.
	if rest := len(payload) - rd.off; n > uint64(rest)/uint64(particle.BytesPerParticle) {
		return fmt.Errorf("%w: bank length %d exceeds payload", ErrSnapshotCorrupt, n)
	}

	// Identity, on the validated config (validation fills defaults the hash
	// covers), still before anything is built or touched.
	if err := cfg.Validate(); err != nil {
		return err
	}
	if physicsHash(cfg.Physics) != storedHash {
		return ErrSnapshotMismatch
	}
	if storedScene.Hash() != cfg.Scene.Hash() {
		return fmt.Errorf("%w: embedded scene differs from config scene", ErrSnapshotMismatch)
	}
	// Splitting may have grown the bank past the source population.
	if int(n) != cfg.Particles && !(cfg.WeightWindow.Enabled && int(n) > cfg.Particles) {
		return fmt.Errorf("%w: bank holds %d particles, config wants %d",
			ErrSnapshotMismatch, n, cfg.Particles)
	}
	if next > uint64(cfg.Steps) {
		return fmt.Errorf("%w: step %d beyond configured %d steps",
			ErrSnapshotCorrupt, next, cfg.Steps)
	}

	// The bank stays unpopulated: every record is about to be overwritten.
	if err := s.bind(cfg); err != nil {
		return err
	}
	r := s.r
	// fail unbinds: from here on, state has been overwritten.
	fail := func(err error) error {
		*s = Simulation{}
		return err
	}
	r.bank.Resize(int(n))
	r.setBirth(birthWeight, birthEnergy)
	for e := 0; e < mesh.NumEdges; e++ {
		r.leakWeight.AddTicks(e, leak[e])
		r.leakEnergy.AddTicks(e, leak[mesh.NumEdges+e])
	}

	var p particle.Particle
	for i := 0; i < int(n); i++ {
		rd.readParticle(&p)
		if rd.bad {
			return fail(fmt.Errorf("%w: truncated bank", ErrSnapshotCorrupt))
		}
		r.bank.Store(i, &p)
	}

	// The writer emits strictly ascending cells, and the read holds it to
	// that: a cell named twice would be summed, and four entries of 2^62
	// ticks wrap a cell to exactly zero with every entry in range.
	cells := uint64(r.mesh.NumCells())
	nonzero := rd.u64()
	for i, prev := uint64(0), uint64(0); i < nonzero; i++ {
		cell := rd.u64()
		ticks := rd.i64()
		if rd.bad {
			return fail(fmt.Errorf("%w: truncated tally", ErrSnapshotCorrupt))
		}
		if cell >= cells {
			return fail(fmt.Errorf("%w: tally cell %d outside %d-cell mesh", ErrSnapshotCorrupt, cell, cells))
		}
		if i > 0 && cell <= prev {
			return fail(fmt.Errorf("%w: tally cell %d after cell %d", ErrSnapshotCorrupt, cell, prev))
		}
		prev = cell
		if ticks < 0 {
			return fail(fmt.Errorf("%w: tally cell %d is negative", ErrSnapshotCorrupt, cell))
		}
		// Stored cells are logical; the restoring run's ordering decides
		// where they live.
		cx, cy := int(cell)%r.mesh.NX, int(cell)/r.mesh.NX
		r.tly.AddTicks(r.mesh.StorageIndex(cx, cy), ticks)
	}
	if rd.off != len(payload) {
		return fail(fmt.Errorf("%w: %d trailing bytes", ErrSnapshotCorrupt, len(payload)-rd.off))
	}

	r.base = counterScatter(vec)
	s.next = int(next)
	return nil
}
