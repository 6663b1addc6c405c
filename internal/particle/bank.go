package particle

import (
	"fmt"
	"unsafe"
)

// Layout selects the memory layout of a Bank.
type Layout int

const (
	// AoS stores one contiguous struct per particle. Best CPU layout for
	// Over Particles (paper Fig 5).
	AoS Layout = iota
	// SoA stores one contiguous array per field. The only layout used on
	// GPUs; on CPUs it loads a cache line per field per particle.
	SoA
)

// String names the layout as in the paper.
func (l Layout) String() string {
	switch l {
	case AoS:
		return "aos"
	case SoA:
		return "soa"
	default:
		return fmt.Sprintf("Layout(%d)", int(l))
	}
}

// ParseLayout converts a name to a Layout.
func ParseLayout(s string) (Layout, error) {
	switch s {
	case "aos":
		return AoS, nil
	case "soa":
		return SoA, nil
	default:
		return 0, fmt.Errorf("particle: unknown layout %q (want aos or soa)", s)
	}
}

// Bank is a fixed-capacity store of particles in either layout. Load and
// Store move particles between the bank and register-resident working
// copies; they are the only access path, so the layout difference is purely
// a memory-behaviour difference, exactly as in the C mini-app.
type Bank struct {
	layout Layout
	n      int

	// AoS storage.
	aos []Particle

	// SoA storage, one slice per field.
	x, y, ux, uy, energy, weight []float64
	mfp, tcens, deposit          []float64
	sigmaA, sigmaS               []float64
	cellX, cellY, xsIndex        []int32
	rngCounter, id               []uint64
	status                       []Status
}

// NewBank allocates a bank of n particles in the given layout.
func NewBank(layout Layout, n int) *Bank {
	b := &Bank{layout: layout, n: n}
	switch layout {
	case AoS:
		b.aos = make([]Particle, n)
	case SoA:
		b.x = make([]float64, n)
		b.y = make([]float64, n)
		b.ux = make([]float64, n)
		b.uy = make([]float64, n)
		b.energy = make([]float64, n)
		b.weight = make([]float64, n)
		b.mfp = make([]float64, n)
		b.tcens = make([]float64, n)
		b.deposit = make([]float64, n)
		b.sigmaA = make([]float64, n)
		b.sigmaS = make([]float64, n)
		b.cellX = make([]int32, n)
		b.cellY = make([]int32, n)
		b.xsIndex = make([]int32, n)
		b.rngCounter = make([]uint64, n)
		b.id = make([]uint64, n)
		b.status = make([]Status, n)
	default:
		panic(fmt.Sprintf("particle: unknown layout %v", layout))
	}
	return b
}

// Layout reports the bank's memory layout.
func (b *Bank) Layout() Layout { return b.layout }

// Len reports the particle count.
func (b *Bank) Len() int { return b.n }

// resized returns s with length n, reusing its backing array when the
// capacity allows and copying into a fresh allocation otherwise — the shared
// capacity path behind Resize and the SoA Append columns.
func resized[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	out := make([]T, n, growCap(cap(s), n))
	copy(out, s)
	return out
}

// growCap doubles the capacity until it covers n, so a splitting cascade
// appends in amortised O(1) instead of reallocating every column per child.
func growCap(c, n int) int {
	if c == 0 {
		return n
	}
	for c < n {
		c *= 2
	}
	return c
}

// Append adds a particle to the end of the bank, growing the storage of
// either layout, and returns its slot index. Population-control splitting is
// the only writer: the bank is otherwise fixed-population, exactly as in the
// C mini-app. Append is not safe for concurrent use; the solver only calls
// it from the serial population-control pass between timesteps.
func (b *Bank) Append(p *Particle) int {
	i := b.n
	b.Resize(b.n + 1)
	b.Store(i, p)
	return i
}

// Resize sets the bank's particle count to n, reusing the existing backing
// arrays whenever their capacity allows (both layouts). Growth exposes
// zero-valued records in slots that were never stored; shrinking keeps the
// capacity for later regrowth, which is how Reset reuses a bank that a
// weight-window run grew past its source population.
func (b *Bank) Resize(n int) {
	if n == b.n {
		return
	}
	if b.layout == AoS {
		if n > b.n && n <= cap(b.aos) {
			// Reused slots may hold stale records from a previous run;
			// re-zero them so growth always exposes blank particles.
			clear(b.aos[b.n:n])
		}
		b.aos = resized(b.aos, n)
		b.n = n
		return
	}
	grow := n > b.n
	b.x = resizedClear(b.x, b.n, n, grow)
	b.y = resizedClear(b.y, b.n, n, grow)
	b.ux = resizedClear(b.ux, b.n, n, grow)
	b.uy = resizedClear(b.uy, b.n, n, grow)
	b.energy = resizedClear(b.energy, b.n, n, grow)
	b.weight = resizedClear(b.weight, b.n, n, grow)
	b.mfp = resizedClear(b.mfp, b.n, n, grow)
	b.tcens = resizedClear(b.tcens, b.n, n, grow)
	b.deposit = resizedClear(b.deposit, b.n, n, grow)
	b.sigmaA = resizedClear(b.sigmaA, b.n, n, grow)
	b.sigmaS = resizedClear(b.sigmaS, b.n, n, grow)
	b.cellX = resizedClear(b.cellX, b.n, n, grow)
	b.cellY = resizedClear(b.cellY, b.n, n, grow)
	b.xsIndex = resizedClear(b.xsIndex, b.n, n, grow)
	b.rngCounter = resizedClear(b.rngCounter, b.n, n, grow)
	b.id = resizedClear(b.id, b.n, n, grow)
	b.status = resizedClear(b.status, b.n, n, grow)
	b.n = n
}

// resizedClear is resized plus the stale-slot re-zeroing growth needs when
// the backing array is reused.
func resizedClear[T any](s []T, oldN, n int, grow bool) []T {
	if grow && n <= cap(s) {
		clear(s[oldN:n])
	}
	return resized(s, n)
}

// Load copies particle i into the working copy p.
func (b *Bank) Load(i int, p *Particle) {
	if b.layout == AoS {
		*p = b.aos[i]
		return
	}
	p.X = b.x[i]
	p.Y = b.y[i]
	p.UX = b.ux[i]
	p.UY = b.uy[i]
	p.Energy = b.energy[i]
	p.Weight = b.weight[i]
	p.MFPToCollision = b.mfp[i]
	p.TimeToCensus = b.tcens[i]
	p.Deposit = b.deposit[i]
	p.CachedSigmaA = b.sigmaA[i]
	p.CachedSigmaS = b.sigmaS[i]
	p.CellX = b.cellX[i]
	p.CellY = b.cellY[i]
	p.XSIndex = b.xsIndex[i]
	p.RNGCounter = b.rngCounter[i]
	p.ID = b.id[i]
	p.Status = b.status[i]
}

// Store copies the working copy p back into slot i.
func (b *Bank) Store(i int, p *Particle) {
	if b.layout == AoS {
		b.aos[i] = *p
		return
	}
	b.x[i] = p.X
	b.y[i] = p.Y
	b.ux[i] = p.UX
	b.uy[i] = p.UY
	b.energy[i] = p.Energy
	b.weight[i] = p.Weight
	b.mfp[i] = p.MFPToCollision
	b.tcens[i] = p.TimeToCensus
	b.deposit[i] = p.Deposit
	b.sigmaA[i] = p.CachedSigmaA
	b.sigmaS[i] = p.CachedSigmaS
	b.cellX[i] = p.CellX
	b.cellY[i] = p.CellY
	b.xsIndex[i] = p.XSIndex
	b.rngCounter[i] = p.RNGCounter
	b.id[i] = p.ID
	b.status[i] = p.Status
}

// LoadKinematics copies the fields the Over Events event kernel reads —
// position, direction, energy, the distance/censustime registers, the cached
// cross sections and the cell — into the working copy p. For AoS the whole
// contiguous record is copied (one block copy is as cheap as picking
// fields); for SoA only the twelve kinematic columns are touched, skipping
// weight, deposit, RNG, id and status. The untouched fields of p are
// UNDEFINED after a SoA load: callers must pair this with StoreKinematics
// (never Store) and must not read the non-kinematic fields.
func (b *Bank) LoadKinematics(i int, p *Particle) {
	if b.layout == AoS {
		*p = b.aos[i]
		return
	}
	p.X = b.x[i]
	p.Y = b.y[i]
	p.UX = b.ux[i]
	p.UY = b.uy[i]
	p.Energy = b.energy[i]
	p.MFPToCollision = b.mfp[i]
	p.TimeToCensus = b.tcens[i]
	p.CachedSigmaA = b.sigmaA[i]
	p.CachedSigmaS = b.sigmaS[i]
	p.CellX = b.cellX[i]
	p.CellY = b.cellY[i]
	p.XSIndex = b.xsIndex[i]
}

// StoreKinematics writes back the fields the event kernel can modify:
// position, the distance/census registers, and the cached cross-section
// state. AoS stores the whole record (the loaded values ride along for the
// untouched fields); SoA writes only the seven modified columns. Status is
// never written — use SetStatus for the census transition.
func (b *Bank) StoreKinematics(i int, p *Particle) {
	if b.layout == AoS {
		b.aos[i] = *p
		return
	}
	b.x[i] = p.X
	b.y[i] = p.Y
	b.mfp[i] = p.MFPToCollision
	b.tcens[i] = p.TimeToCensus
	b.sigmaA[i] = p.CachedSigmaA
	b.sigmaS[i] = p.CachedSigmaS
	b.xsIndex[i] = p.XSIndex
}

// Ref returns a pointer to slot i's record for in-place access when the
// layout stores whole records (AoS), and nil for SoA. In-place access skips
// the two record copies a Load/Store round-trip costs; callers must fall
// back to the copying paths when Ref returns nil.
func (b *Bank) Ref(i int) *Particle {
	if b.layout == AoS {
		return &b.aos[i]
	}
	return nil
}

// View returns a mutable view of slot i's kinematic state: the record
// itself for AoS (zero-copy), or scratch filled by LoadKinematics for SoA.
// Writes through the returned pointer must be published with
// CommitKinematics, which is a no-op when the view aliases the record.
func (b *Bank) View(i int, scratch *Particle) *Particle {
	if b.layout == AoS {
		return &b.aos[i]
	}
	b.LoadKinematics(i, scratch)
	return scratch
}

// CommitKinematics publishes kinematic-field writes made through a View:
// nothing to do for AoS (the view is the record), a StoreKinematics for SoA.
func (b *Bank) CommitKinematics(i int, p *Particle) {
	if b.layout == AoS {
		return
	}
	b.StoreKinematics(i, p)
}

// FlushDeposit reads the cell coordinates and deposit register of slot i and
// zeroes the register — the tally-flush access path. The Over Events tally
// and census kernels use it to flush without streaming whole records.
func (b *Bank) FlushDeposit(i int) (cellX, cellY int32, dep float64) {
	if b.layout == AoS {
		p := &b.aos[i]
		cellX, cellY, dep = p.CellX, p.CellY, p.Deposit
		p.Deposit = 0
		return
	}
	cellX, cellY, dep = b.cellX[i], b.cellY[i], b.deposit[i]
	b.deposit[i] = 0
	return
}

// CellAxis reads the cell coordinate of slot i along axis (0 = x, 1 = y).
func (b *Bank) CellAxis(i, axis int) int32 {
	if b.layout == AoS {
		if axis == 0 {
			return b.aos[i].CellX
		}
		return b.aos[i].CellY
	}
	if axis == 0 {
		return b.cellX[i]
	}
	return b.cellY[i]
}

// SetCellAxis writes the cell coordinate of slot i along axis.
func (b *Bank) SetCellAxis(i, axis int, v int32) {
	if b.layout == AoS {
		if axis == 0 {
			b.aos[i].CellX = v
		} else {
			b.aos[i].CellY = v
		}
		return
	}
	if axis == 0 {
		b.cellX[i] = v
	} else {
		b.cellY[i] = v
	}
}

// NegateUAxis flips the direction component of slot i along axis — the
// boundary-reflection write.
func (b *Bank) NegateUAxis(i, axis int) {
	if b.layout == AoS {
		if axis == 0 {
			b.aos[i].UX = -b.aos[i].UX
		} else {
			b.aos[i].UY = -b.aos[i].UY
		}
		return
	}
	if axis == 0 {
		b.ux[i] = -b.ux[i]
	} else {
		b.uy[i] = -b.uy[i]
	}
}

// Permute rearranges the bank so slot i holds the record previously in slot
// perm[i]. perm must be a permutation of [0, Len()); it is consumed (every
// entry is overwritten with -1) by the call. Both layouts permute through the
// canonical Load/Store record path, cycle by cycle, so the pass costs one
// record move per slot and no bank-sized scratch — the periodic cell-sort
// pass runs it once per controlled timestep on banks up to paper scale.
func (b *Bank) Permute(perm []int32) {
	if len(perm) != b.n {
		panic(fmt.Sprintf("particle: permutation length %d over %d-slot bank", len(perm), b.n))
	}
	var hold, tmp Particle
	for start := range perm {
		src := perm[start]
		if src < 0 || int(src) == start {
			perm[start] = -1
			continue
		}
		// Walk the cycle: each slot is read just before it is written, so
		// one held record suffices.
		b.Load(start, &hold)
		j := start
		for {
			perm[j] = -1
			if int(src) == start {
				b.Store(j, &hold)
				break
			}
			b.Load(int(src), &tmp)
			b.Store(j, &tmp)
			j = int(src)
			src = perm[j]
		}
	}
}

// StatusOf reads only the status of slot i; Over Events kernels use this to
// gather active particles without loading whole records.
func (b *Bank) StatusOf(i int) Status {
	if b.layout == AoS {
		return b.aos[i].Status
	}
	return b.status[i]
}

// SetStatus writes only the status of slot i.
func (b *Bank) SetStatus(i int, s Status) {
	if b.layout == AoS {
		b.aos[i].Status = s
		return
	}
	b.status[i] = s
}

// GatherStatus appends the indices of every slot whose status equals s to
// dst (ascending) and returns the extended slice. It is the active-set
// builder for the compacted Over Events scheme: one O(N) sweep per timestep
// replaces the per-round full-bank scans, and it reads only the status
// column (or field), never whole records.
func (b *Bank) GatherStatus(dst []int32, s Status) []int32 {
	if b.layout == SoA {
		for i, st := range b.status {
			if st == s {
				dst = append(dst, int32(i))
			}
		}
		return dst
	}
	for i := range b.aos {
		if b.aos[i].Status == s {
			dst = append(dst, int32(i))
		}
	}
	return dst
}

// Escape terminates slot i at a vacuum boundary: the status becomes Escaped
// and the weight is zeroed so the population audits exclude it. It returns
// the weight and weight-energy (weight-eV) the history carried out of the
// domain — the per-edge leakage contribution.
func (b *Bank) Escape(i int) (weight, weightEnergy float64) {
	if b.layout == AoS {
		p := &b.aos[i]
		weight, weightEnergy = p.Weight, p.Weight*p.Energy
		p.Weight = 0
		p.Status = Escaped
		return
	}
	weight, weightEnergy = b.weight[i], b.weight[i]*b.energy[i]
	b.weight[i] = 0
	b.status[i] = Escaped
	return
}

// CountStatus tallies particles by status. Escaped particles count as dead:
// both are terminated histories, distinguished only by where their
// weight-energy went (leakage versus deposition).
func (b *Bank) CountStatus() (alive, census, dead int) {
	for i := 0; i < b.n; i++ {
		switch b.StatusOf(i) {
		case Alive:
			alive++
		case Census:
			census++
		case Dead, Escaped:
			dead++
		}
	}
	return alive, census, dead
}

// TotalWeight sums particle weights across the bank (population
// conservation audits). Field-direct paths read only the weight column (and
// the weight field for AoS) instead of streaming whole records through
// Load, so the per-step conservation audit stays cheap on large banks.
func (b *Bank) TotalWeight() float64 {
	var sum float64
	if b.layout == SoA {
		for _, w := range b.weight {
			sum += w
		}
		return sum
	}
	for i := range b.aos {
		sum += b.aos[i].Weight
	}
	return sum
}

// TotalEnergy sums weight-scaled kinetic energy across the in-flight bank
// (Alive and Census), in weight-eV (energy conservation audits). Like
// TotalWeight, it reads only the fields it needs in either layout.
func (b *Bank) TotalEnergy() float64 {
	var sum float64
	if b.layout == SoA {
		for i := range b.status {
			if b.status[i] == Alive || b.status[i] == Census {
				sum += b.weight[i] * b.energy[i]
			}
		}
		return sum
	}
	for i := range b.aos {
		if p := &b.aos[i]; p.Status == Alive || p.Status == Census {
			sum += p.Weight * p.Energy
		}
	}
	return sum
}

// BytesPerParticle reports the storage footprint of one particle record —
// the traffic the Over Events scheme streams per slot sweep, which the
// architecture model prices. It is derived from the element sizes of the
// SoA field set (11 float64 columns, 3 int32, 2 uint64, 1 status byte)
// rather than hand-summed; TestBytesPerParticleMatchesFieldSet guards it
// against drift when fields are added.
const BytesPerParticle = int(11*unsafe.Sizeof(float64(0)) +
	3*unsafe.Sizeof(int32(0)) +
	2*unsafe.Sizeof(uint64(0)) +
	unsafe.Sizeof(Status(0)))
