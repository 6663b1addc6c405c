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
// Store move one particle between the bank and a working copy in either
// layout; a kernel that streams the bank takes its layout's storage once per
// pass instead — Records on AoS, Columns on SoA — and indexes it directly.
type Bank struct {
	layout Layout
	n      int
	aos    []Particle // AoS storage
	soa    Columns    // SoA storage
}

// Columns is a SoA bank's storage: one slice per Particle field, each Len()
// long, slot i of every column holding particle i. Writes land in the bank.
// Resize and Append may replace the slices, so a caller takes Columns again
// after either.
type Columns struct {
	X, Y, UX, UY, Energy, Weight          []float64
	MFPToCollision, TimeToCensus, Deposit []float64
	CachedSigmaA, CachedSigmaS            []float64
	CellX, CellY, XSIndex                 []int32
	RNGCounter, ID                        []uint64
	Status                                []Status
}

// NewBank allocates a bank of n particles in the given layout.
func NewBank(layout Layout, n int) *Bank {
	b := &Bank{layout: layout}
	switch layout {
	case AoS:
		b.aos = []Particle{} // non-nil even when empty: Records is nil only on SoA
	case SoA:
	default:
		panic(fmt.Sprintf("particle: unknown layout %v", layout))
	}
	b.Resize(n)
	return b
}

// Records returns an AoS bank's records, in place, and nil for SoA.
func (b *Bank) Records() []Particle {
	if b.layout != AoS {
		return nil
	}
	return b.aos
}

// Columns returns a copy of a SoA bank's column headers, whose elements are
// the bank's own, and ok false for AoS. A caller cannot reslice the bank's
// columns through it.
func (b *Bank) Columns() (c Columns, ok bool) {
	return b.soa, b.layout == SoA
}

// Layout reports the bank's memory layout.
func (b *Bank) Layout() Layout { return b.layout }

// Len reports the particle count.
func (b *Bank) Len() int { return b.n }

// resized returns s with length n, reusing its backing array when the
// capacity allows and copying into a fresh allocation otherwise. Reused slots
// may hold stale records from a previous run; growth re-zeroes them, so it
// always exposes blank particles.
func resized[T any](s []T, n int) []T {
	if n <= cap(s) {
		if n > len(s) {
			clear(s[len(s):n])
		}
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
		b.aos = resized(b.aos, n)
		b.n = n
		return
	}
	c := &b.soa
	c.X = resized(c.X, n)
	c.Y = resized(c.Y, n)
	c.UX = resized(c.UX, n)
	c.UY = resized(c.UY, n)
	c.Energy = resized(c.Energy, n)
	c.Weight = resized(c.Weight, n)
	c.MFPToCollision = resized(c.MFPToCollision, n)
	c.TimeToCensus = resized(c.TimeToCensus, n)
	c.Deposit = resized(c.Deposit, n)
	c.CachedSigmaA = resized(c.CachedSigmaA, n)
	c.CachedSigmaS = resized(c.CachedSigmaS, n)
	c.CellX = resized(c.CellX, n)
	c.CellY = resized(c.CellY, n)
	c.XSIndex = resized(c.XSIndex, n)
	c.RNGCounter = resized(c.RNGCounter, n)
	c.ID = resized(c.ID, n)
	c.Status = resized(c.Status, n)
	b.n = n
}

// Load copies particle i into the working copy p.
func (b *Bank) Load(i int, p *Particle) {
	if b.layout == AoS {
		*p = b.aos[i]
		return
	}
	c := &b.soa
	p.X = c.X[i]
	p.Y = c.Y[i]
	p.UX = c.UX[i]
	p.UY = c.UY[i]
	p.Energy = c.Energy[i]
	p.Weight = c.Weight[i]
	p.MFPToCollision = c.MFPToCollision[i]
	p.TimeToCensus = c.TimeToCensus[i]
	p.Deposit = c.Deposit[i]
	p.CachedSigmaA = c.CachedSigmaA[i]
	p.CachedSigmaS = c.CachedSigmaS[i]
	p.CellX = c.CellX[i]
	p.CellY = c.CellY[i]
	p.XSIndex = c.XSIndex[i]
	p.RNGCounter = c.RNGCounter[i]
	p.ID = c.ID[i]
	p.Status = c.Status[i]
}

// Store copies the working copy p back into slot i.
func (b *Bank) Store(i int, p *Particle) {
	if b.layout == AoS {
		b.aos[i] = *p
		return
	}
	c := &b.soa
	c.X[i] = p.X
	c.Y[i] = p.Y
	c.UX[i] = p.UX
	c.UY[i] = p.UY
	c.Energy[i] = p.Energy
	c.Weight[i] = p.Weight
	c.MFPToCollision[i] = p.MFPToCollision
	c.TimeToCensus[i] = p.TimeToCensus
	c.Deposit[i] = p.Deposit
	c.CachedSigmaA[i] = p.CachedSigmaA
	c.CachedSigmaS[i] = p.CachedSigmaS
	c.CellX[i] = p.CellX
	c.CellY[i] = p.CellY
	c.XSIndex[i] = p.XSIndex
	c.RNGCounter[i] = p.RNGCounter
	c.ID[i] = p.ID
	c.Status[i] = p.Status
}

// LoadKinematics copies into p the twelve fields the Over Events event
// kernel's general path reads — position, direction, energy, the
// distance/census registers, the cached cross sections and the cell —
// skipping the weight, deposit, RNG, id and status columns. The other fields
// of p keep whatever they held: pair it with StoreKinematics, never
// Bank.Store.
func (c *Columns) LoadKinematics(i int, p *Particle) {
	p.X = c.X[i]
	p.Y = c.Y[i]
	p.UX = c.UX[i]
	p.UY = c.UY[i]
	p.Energy = c.Energy[i]
	p.MFPToCollision = c.MFPToCollision[i]
	p.TimeToCensus = c.TimeToCensus[i]
	p.CachedSigmaA = c.CachedSigmaA[i]
	p.CachedSigmaS = c.CachedSigmaS[i]
	p.CellX = c.CellX[i]
	p.CellY = c.CellY[i]
	p.XSIndex = c.XSIndex[i]
}

// StoreKinematics writes back the seven columns that path can modify:
// position, the distance/census registers and the cross-section state.
// Status is not among them: the census transition is SetStatus.
func (c *Columns) StoreKinematics(i int, p *Particle) {
	c.X[i] = p.X
	c.Y[i] = p.Y
	c.MFPToCollision[i] = p.MFPToCollision
	c.TimeToCensus[i] = p.TimeToCensus
	c.CachedSigmaA[i] = p.CachedSigmaA
	c.CachedSigmaS[i] = p.CachedSigmaS
	c.XSIndex[i] = p.XSIndex
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
	return b.soa.Status[i]
}

// SetStatus writes only the status of slot i.
func (b *Bank) SetStatus(i int, s Status) {
	if b.layout == AoS {
		b.aos[i].Status = s
		return
	}
	b.soa.Status[i] = s
}

// GatherStatus appends the indices of every slot whose status equals s to
// dst (ascending) and returns the extended slice. It is the active-set
// builder for the compacted Over Events scheme: one O(N) sweep per timestep
// replaces the per-round full-bank scans, and it reads only the status
// column (or field), never whole records.
func (b *Bank) GatherStatus(dst []int32, s Status) []int32 {
	if b.layout == SoA {
		for i, st := range b.soa.Status {
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
		for _, w := range b.soa.Weight {
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
		for i := range b.soa.Status {
			if b.soa.Status[i] == Alive || b.soa.Status[i] == Census {
				sum += b.soa.Weight[i] * b.soa.Energy[i]
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
