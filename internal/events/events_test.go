package events

import (
	"math"
	"strconv"
	"testing"
	"testing/quick"

	"repro/internal/mesh"
	"repro/internal/particle"
	"repro/internal/rng"
	"repro/internal/xs"
)

func testContext(t *testing.T) *Context {
	t.Helper()
	// A homogeneous dense mesh, the scatter-problem geometry.
	m, err := mesh.New(32, 32, mesh.Extent, mesh.Extent, mesh.DenseDensity)
	if err != nil {
		t.Fatal(err)
	}
	return &Context{
		Mesh:         m,
		XS:           xs.GeneratePair(512),
		WeightCutoff: DefaultWeightCutoff,
		EnergyCutoff: DefaultEnergyCutoff,
	}
}

func TestSpeed(t *testing.T) {
	// 10 MeV neutron: ~4.4e7 m/s.
	v := Speed(1e7)
	if v < 4.2e7 || v < 0 || v > 4.6e7 {
		t.Fatalf("Speed(10 MeV) = %.3g m/s, want ~4.4e7", v)
	}
	// Thermal neutron: ~2200 m/s at 0.0253 eV.
	vt := Speed(0.0253)
	if vt < 2000 || vt > 2400 {
		t.Fatalf("Speed(thermal) = %.3g m/s, want ~2200", vt)
	}
	// Monotone in energy.
	if Speed(2e6) <= Speed(1e6) {
		t.Fatal("speed not monotone in energy")
	}
}

func TestDistanceToCollision(t *testing.T) {
	if d := DistanceToCollision(2.0, 4.0); d != 0.5 {
		t.Fatalf("DistanceToCollision(2, 4) = %v, want 0.5", d)
	}
	if d := DistanceToCollision(1.0, 0); !math.IsInf(d, 1) {
		t.Fatalf("void material should never collide, got %v", d)
	}
	if d := DistanceToCollision(1.0, MinSigmaT/2); !math.IsInf(d, 1) {
		t.Fatalf("below-threshold sigma should be void, got %v", d)
	}
}

func TestDistanceToCensus(t *testing.T) {
	if d := DistanceToCensus(1e-7, 4.4e7); math.Abs(d-4.4) > 1e-9 {
		t.Fatalf("DistanceToCensus = %v, want 4.4", d)
	}
}

func TestDistanceToFacetAxisCases(t *testing.T) {
	m, err := mesh.New(10, 10, 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Cell (5,5) spans [0.5,0.6] x [0.5,0.6]; particle in the middle.
	const x, y = 0.55, 0.55
	cases := []struct {
		ux, uy   float64
		wantD    float64
		wantAxis int
		wantDir  int
	}{
		{1, 0, 0.05, 0, 1},
		{-1, 0, 0.05, 0, -1},
		{0, 1, 0.05, 1, 1},
		{0, -1, 0.05, 1, -1},
		{math.Sqrt2 / 2, math.Sqrt2 / 2, 0.05 * math.Sqrt2, 0, 1}, // exact diagonal: x wins ties
	}
	for _, c := range cases {
		d, axis, dir := DistanceToFacet(m, x, y, c.ux, c.uy, 5, 5)
		if math.Abs(d-c.wantD) > 1e-12 || axis != c.wantAxis || dir != c.wantDir {
			t.Errorf("DistanceToFacet(dir %v,%v) = (%v, %d, %d), want (%v, %d, %d)",
				c.ux, c.uy, d, axis, dir, c.wantD, c.wantAxis, c.wantDir)
		}
	}
}

// TestDistanceToFacetProperty verifies against brute force: the returned
// distance lands the particle on a grid line of the reported axis, and no
// grid line is crossed before it.
func TestDistanceToFacetProperty(t *testing.T) {
	m, err := mesh.New(16, 16, 2.5, 2.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed uint64) bool {
		s := rng.NewStream(seed, 0)
		x := 2.5 * s.Uniform()
		y := 2.5 * s.Uniform()
		ux, uy := rng.DirectionOf(s.Next())
		cx, cy := m.CellOf(x, y)
		d, axis, dir := DistanceToFacet(m, x, y, ux, uy, int32(cx), int32(cy))
		if d < 0 || dir == 0 {
			return false
		}
		// Landing point on the reported facet line.
		nx, ny := x+ux*d, y+uy*d
		var onLine bool
		if axis == 0 {
			fx := m.FacetX(cx)
			if dir > 0 {
				fx = m.FacetX(cx + 1)
			}
			onLine = math.Abs(nx-fx) < 1e-9
		} else {
			fy := m.FacetY(cy)
			if dir > 0 {
				fy = m.FacetY(cy + 1)
			}
			onLine = math.Abs(ny-fy) < 1e-9
		}
		// The interior of the segment stays inside the cell box
		// (sample a few interior points).
		for _, f := range []float64{0.25, 0.5, 0.75} {
			px, py := x+ux*d*f, y+uy*d*f
			if px < m.FacetX(cx)-1e-9 || px > m.FacetX(cx+1)+1e-9 ||
				py < m.FacetY(cy)-1e-9 || py > m.FacetY(cy+1)+1e-9 {
				return false
			}
		}
		return onLine
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestApplyFacetTransitionAndReflection(t *testing.T) {
	m, _ := mesh.New(4, 4, 1, 1, 1)
	p := &particle.Particle{CellX: 1, CellY: 2, UX: 0.6, UY: 0.8}

	if out := ApplyFacet(m, p, 0, 1); out != FacetCrossed || p.CellX != 2 {
		t.Fatalf("interior x transition failed: outcome=%v cell=%d", out, p.CellX)
	}
	if out := ApplyFacet(m, p, 1, -1); out != FacetCrossed || p.CellY != 1 {
		t.Fatalf("interior y transition failed")
	}

	// Drive to the +x boundary and reflect.
	p.CellX = 3
	if out := ApplyFacet(m, p, 0, 1); out != FacetReflected || p.CellX != 3 || p.UX != -0.6 {
		t.Fatalf("+x reflection failed: %+v", p)
	}
	// -y boundary.
	p.CellY = 0
	if out := ApplyFacet(m, p, 1, -1); out != FacetReflected || p.CellY != 0 || p.UY != -0.8 {
		t.Fatalf("-y reflection failed: %+v", p)
	}
	// Reflection preserves the direction norm.
	if r := p.UX*p.UX + p.UY*p.UY; math.Abs(r-1) > 1e-12 {
		t.Fatalf("reflection broke unit direction: %v", r)
	}
}

// TestReflectiveSpecialisation pins ApplyFacetReflective to ApplyFacet on
// reflective meshes: for every cell/axis/direction combination the two must
// produce the same record mutation and the same crossed/reflected verdict —
// the hot-path specialisation may never drift from the authoritative
// handler.
func TestReflectiveSpecialisation(t *testing.T) {
	m, _ := mesh.New(5, 3, 1, 1, 1)
	for cx := int32(0); cx < 5; cx++ {
		for cy := int32(0); cy < 3; cy++ {
			for _, axis := range []int{0, 1} {
				for _, dir := range []int{-1, 1} {
					a := particle.Particle{CellX: cx, CellY: cy, UX: 0.6, UY: -0.8}
					b := a
					out := ApplyFacet(m, &a, axis, dir)
					reflected := ApplyFacetReflective(m, &b, axis, dir)
					if (out == FacetReflected) != reflected || out == FacetEscaped {
						t.Fatalf("cell (%d,%d) axis %d dir %d: outcomes diverge: %v vs reflected=%v",
							cx, cy, axis, dir, out, reflected)
					}
					if a != b {
						t.Fatalf("cell (%d,%d) axis %d dir %d: records diverge:\n%+v\n%+v",
							cx, cy, axis, dir, a, b)
					}
				}
			}
		}
	}
}

// TestApplyFacetVacuumEscape: a boundary facet whose edge is vacuum reports
// an escape and leaves the record untouched, on every edge.
func TestApplyFacetVacuumEscape(t *testing.T) {
	cases := []struct {
		edge      mesh.Edge
		cx, cy    int32
		axis, dir int
	}{
		{mesh.EdgeXLo, 0, 2, 0, -1},
		{mesh.EdgeXHi, 3, 2, 0, 1},
		{mesh.EdgeYLo, 2, 0, 1, -1},
		{mesh.EdgeYHi, 2, 3, 1, 1},
	}
	for _, c := range cases {
		m, _ := mesh.New(4, 4, 1, 1, 1)
		m.SetEdgeBC(c.edge, mesh.Vacuum)

		p := &particle.Particle{CellX: c.cx, CellY: c.cy, UX: 0.6, UY: 0.8}
		before := *p
		if out := ApplyFacet(m, p, c.axis, c.dir); out != FacetEscaped {
			t.Fatalf("%v: outcome %v, want escape", c.edge, out)
		}
		if *p != before {
			t.Fatalf("%v: escape mutated the record: %+v", c.edge, p)
		}
		// The opposite edge still reflects.
		q := &particle.Particle{CellX: 3 - c.cx, CellY: 3 - c.cy, UX: 0.6, UY: 0.8}
		if out := ApplyFacet(m, q, c.axis, -c.dir); out != FacetReflected {
			t.Fatalf("%v: opposite edge outcome %v, want reflection", c.edge, out)
		}
	}
}

// TestCollideConservesEnergy is the core physics invariant: weight-energy
// before the collision equals weight-energy after plus the deposit.
func TestCollideConservesEnergy(t *testing.T) {
	ctx := testContext(t)
	f := func(seed uint64) bool {
		s := rng.NewStream(seed, 1)
		p := &particle.Particle{
			Energy: 1e3 + 1e7*s.Uniform(),
			Weight: 0.03 + s.Uniform(),
			UX:     1,
			Status: particle.Alive,
		}
		before := p.Weight * p.Energy
		sigmaA := ctx.XS.Capture.LookupBinary(p.Energy)
		sigmaS := ctx.XS.Scatter.LookupBinary(p.Energy)
		res := Collide(ctx, p, &s, sigmaA, sigmaS)
		after := p.Weight * p.Energy
		if p.Status == particle.Dead {
			after = 0
		}
		return math.Abs(before-(after+res.Deposited)) < 1e-9*before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestCollideReducesWeightAndEnergy(t *testing.T) {
	ctx := testContext(t)
	s := rng.NewStream(1, 2)
	p := &particle.Particle{Energy: 1e7, Weight: 1, UX: 1, Status: particle.Alive}
	sigmaA := ctx.XS.Capture.LookupBinary(p.Energy)
	sigmaS := ctx.XS.Scatter.LookupBinary(p.Energy)
	Collide(ctx, p, &s, sigmaA, sigmaS)
	if p.Weight >= 1 {
		t.Errorf("implicit capture did not reduce weight: %v", p.Weight)
	}
	if p.Energy >= 1e7 {
		t.Errorf("elastic scatter did not dampen energy: %v", p.Energy)
	}
	if r := p.UX*p.UX + p.UY*p.UY; math.Abs(r-1) > 1e-12 {
		t.Errorf("scattered direction not unit: %v", r)
	}
	if p.MFPToCollision <= 0 {
		t.Errorf("mean free paths not resampled: %v", p.MFPToCollision)
	}
}

func TestCollideConsumesExactlyThreeDraws(t *testing.T) {
	ctx := testContext(t)
	s := rng.NewStream(5, 6)
	p := &particle.Particle{Energy: 1e7, Weight: 1, UX: 1, Status: particle.Alive}
	before := s.Counter()
	Collide(ctx, p, &s, 10, 30)
	if got := s.Counter() - before; got != 3 {
		t.Fatalf("collision consumed %d draws, want 3 (angle, dampening, mean free paths)", got)
	}
}

func TestCollideCutoffTermination(t *testing.T) {
	ctx := testContext(t)

	// Weight cutoff: a particle arriving just above the cutoff dies after
	// absorption share is removed.
	s := rng.NewStream(7, 8)
	p := &particle.Particle{Energy: 1e7, Weight: ctx.WeightCutoff * 1.01, UX: 1, Status: particle.Alive}
	res := Collide(ctx, p, &s, 20, 20) // 50% absorbed: weight halves, below cutoff
	if !res.Died || p.Status != particle.Dead || p.Weight != 0 {
		t.Fatalf("weight cutoff did not terminate: %+v", p)
	}

	// Energy cutoff: dampening below the cutoff terminates. With E'
	// uniform on (0.3E, E) and E = 2*cutoff, the death probability per
	// collision is P(damp < 0.5) = (0.5-0.3)/0.7 ~ 0.286.
	deaths := 0
	for seed := uint64(0); seed < 200; seed++ {
		s := rng.NewStream(seed, 9)
		p := &particle.Particle{Energy: ctx.EnergyCutoff * 2, Weight: 1, UX: 1, Status: particle.Alive}
		if res := Collide(ctx, p, &s, 1, 100); res.Died {
			deaths++
			if p.Weight != 0 {
				t.Fatal("dead particle retains weight")
			}
		}
	}
	if deaths < 30 || deaths > 90 {
		t.Fatalf("energy-cutoff deaths = %d/200, want ~57", deaths)
	}
}

func TestCollideDepositAccumulatesInRegister(t *testing.T) {
	ctx := testContext(t)
	s := rng.NewStream(11, 12)
	p := &particle.Particle{Energy: 1e7, Weight: 1, UX: 1, Status: particle.Alive, Deposit: 5}
	res := Collide(ctx, p, &s, 10, 30)
	if math.Abs(p.Deposit-(5+res.Deposited)) > 1e-12 {
		t.Fatalf("deposit register = %v, want %v", p.Deposit, 5+res.Deposited)
	}
}

func TestEventTypeString(t *testing.T) {
	if Collision.String() != "collision" || Facet.String() != "facet" || Census.String() != "census" {
		t.Fatal("event type names wrong")
	}
}

// distanceToFacetDiv is the division form of the facet search — (facet − x)/u
// per axis — that was the canonical arithmetic before the reciprocals. It
// lives on here, only, as the reference the multiply form is held against.
func distanceToFacetDiv(m *mesh.Mesh, x, y, ux, uy float64, cx, cy int32) (dx, dy float64, dirX, dirY int) {
	dx, dy = Infinity, Infinity
	switch {
	case ux > 0:
		dx, dirX = (m.FacetX(int(cx)+1)-x)/ux, 1
	case ux < 0:
		dx, dirX = (m.FacetX(int(cx))-x)/ux, -1
	}
	switch {
	case uy > 0:
		dy, dirY = (m.FacetY(int(cy)+1)-y)/uy, 1
	case uy < 0:
		dy, dirY = (m.FacetY(int(cy))-y)/uy, -1
	}
	return math.Max(dx, 0), math.Max(dy, 0), dirX, dirY
}

// ulpsApart counts the representable float64 values between two
// non-negative numbers.
func ulpsApart(a, b float64) uint64 {
	ba, bb := math.Float64bits(a), math.Float64bits(b)
	if ba > bb {
		return ba - bb
	}
	return bb - ba
}

// TestDistanceToFacetAgainstDivision holds the divide-free facet search to
// the division form: never negative, within 2 ulp of the division form's
// nearest facet (a rounded reciprocal and a rounded product against one
// rounded quotient), and the same axis and direction unless the two
// candidates are themselves within that tolerance of a tie. Random states
// over the whole mesh, plus the states the samplers can really produce at the
// edges of the arithmetic: a zero cosine (DirectionOf(0) is exactly (1, 0)),
// a particle exactly on a facet or an epsilon past it, the first and last
// cells.
func TestDistanceToFacetAgainstDivision(t *testing.T) {
	m, err := mesh.New(24, 16, 2.5, 1.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	check := func(x, y, ux, uy float64, cx, cy int) {
		t.Helper()
		d, axis, dir := DistanceToFacet(m, x, y, ux, uy, int32(cx), int32(cy))
		dx, dy, dirX, dirY := distanceToFacetDiv(m, x, y, ux, uy, int32(cx), int32(cy))
		state := func() string {
			return "x=" + fmtG(x) + " y=" + fmtG(y) + " u=(" + fmtG(ux) + "," + fmtG(uy) + ")"
		}
		if !(d >= 0) {
			t.Fatalf("%s: distance %v is negative", state(), d)
		}
		if got := ulpsApart(d, math.Min(dx, dy)); got > 2 {
			t.Fatalf("%s: distance %v is %d ulp from the division form's %v", state(), d, got, math.Min(dx, dy))
		}
		wantAxis, wantDir := 1, dirY
		if dx <= dy {
			wantAxis, wantDir = 0, dirX
		}
		if (axis != wantAxis || dir != wantDir) && ulpsApart(dx, dy) > 4 {
			t.Fatalf("%s: facet (axis %d, dir %d), division form (axis %d, dir %d) with dx=%v dy=%v",
				state(), axis, dir, wantAxis, wantDir, dx, dy)
		}
		// The form that keeps its reciprocals is the same function, also
		// when a reflection has negated one instead of recomputing it.
		if d2, a2, r2 := DistanceToFacetRecip(m, x, y, ux, uy, 1/ux, 1/uy, int32(cx), int32(cy)); d2 != d || a2 != axis || r2 != dir {
			t.Fatalf("%s: one-shot (%v,%d,%d) != reciprocal form (%v,%d,%d)", state(), d, axis, dir, d2, a2, r2)
		}
		dr, ar, rr := DistanceToFacet(m, x, y, -ux, uy, int32(cx), int32(cy))
		if d2, a2, r2 := DistanceToFacetRecip(m, x, y, -ux, uy, -(1 / ux), 1/uy, int32(cx), int32(cy)); d2 != dr || a2 != ar || r2 != rr {
			t.Fatalf("%s: negated reciprocal (%v,%d,%d) != recomputed (%v,%d,%d)", state(), d2, a2, r2, dr, ar, rr)
		}
	}

	s := rng.NewStream(2024, 0)
	for i := 0; i < 20000; i++ {
		cx, cy := int(s.Uniform()*float64(m.NX)), int(s.Uniform()*float64(m.NY))
		switch i % 8 { // an eighth each in the corner cells
		case 0:
			cx, cy = 0, 0
		case 1:
			cx, cy = m.NX-1, m.NY-1
		}
		x := m.FacetX(cx) + s.Uniform()*m.DX
		y := m.FacetY(cy) + s.Uniform()*m.DY
		ux, uy := rng.DirectionOf(s.Next())
		check(x, y, ux, uy, cx, cy)

		// Axis-aligned flight: one cosine exactly zero.
		check(x, y, math.Copysign(1, ux), 0, cx, cy)
		check(x, y, 0, math.Copysign(1, uy), cx, cy)

		// Exactly on a facet, leaving through it (distance 0) and
		// crossing the whole cell; an ulp outside the cell, where the
		// clamp holds the distance at zero.
		fx, fy := m.FacetX(cx), m.FacetY(cy+1)
		check(fx, y, ux, uy, cx, cy)
		check(x, fy, ux, uy, cx, cy)
		check(math.Nextafter(fx, math.Inf(-1)), y, -math.Abs(ux), uy, cx, cy)
		check(x, math.Nextafter(fy, math.Inf(1)), ux, math.Abs(uy), cx, cy)
	}
	// The direction sampler's own extreme: theta = 0.
	ux, uy := rng.DirectionOf(0)
	if uy != 0 {
		t.Fatalf("DirectionOf(0) = (%v, %v), want a zero sine", ux, uy)
	}
	check(0.3, 0.7, ux, uy, 2, 7)
}

func fmtG(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// distanceToFacetSwitch is the facet search as a pair of three-way switches
// and a float compare — the form DistanceToFacetRecip had before its
// straight-line path, kept here as the reference the straight-line form
// (FacetAhead, NearerFacet) must reproduce bit for bit.
func distanceToFacetSwitch(m *mesh.Mesh, x, y, ux, uy, invUX, invUY float64, cx, cy int32) (d float64, axis, dir int) {
	dx, dirX := Infinity, 0
	switch {
	case ux > 0:
		dx, dirX = AxisDistance(int(cx)+1, m.DX, x, invUX), 1
	case ux < 0:
		dx, dirX = AxisDistance(int(cx), m.DX, x, invUX), -1
	}
	dy, dirY := Infinity, 0
	switch {
	case uy > 0:
		dy, dirY = AxisDistance(int(cy)+1, m.DY, y, invUY), 1
	case uy < 0:
		dy, dirY = AxisDistance(int(cy), m.DY, y, invUY), -1
	}
	if dx <= dy {
		return dx, 0, dirX
	}
	return dy, 1, dirY
}

// TestFacetSearchMatchesSwitchForm pins the straight-line facet search to the
// switch form: the same distance bits, axis and direction for every state —
// through DistanceToFacetRecip for all of them, and through FacetAhead and
// NearerFacet directly wherever Moving admits the state. Random states over
// the mesh, plus the edges of the arithmetic: cosines +0, −0 and NaN (their
// reciprocals ±Inf and NaN), a particle exactly on the facet ahead or behind
// (0·Inf, clamped), an exact dx == dy tie (goes to x), the first and last
// cell, a reciprocal a reflection negated instead of recomputing.
func TestFacetSearchMatchesSwitchForm(t *testing.T) {
	m, err := mesh.New(24, 16, 2.5, 1.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	flat, ties := 0, 0
	check := func(x, y, ux, uy, invUX, invUY float64, cx, cy int) {
		t.Helper()
		wd, wa, wr := distanceToFacetSwitch(m, x, y, ux, uy, invUX, invUY, int32(cx), int32(cy))
		state := func() string {
			return "x=" + fmtG(x) + " y=" + fmtG(y) + " u=(" + fmtG(ux) + "," + fmtG(uy) + ") cell=(" +
				strconv.Itoa(cx) + "," + strconv.Itoa(cy) + ")"
		}
		d, axis, dir := DistanceToFacetRecip(m, x, y, ux, uy, invUX, invUY, int32(cx), int32(cy))
		if math.Float64bits(d) != math.Float64bits(wd) || axis != wa || dir != wr {
			t.Fatalf("%s: DistanceToFacetRecip (%v,%d,%d), switch form (%v,%d,%d)", state(), d, axis, dir, wd, wa, wr)
		}
		if !Moving(ux, uy) {
			return
		}
		flat++
		dx, negX := FacetAhead(int32(cx), m.DX, x, ux, invUX)
		dy, negY := FacetAhead(int32(cy), m.DY, y, uy, invUY)
		if dx == dy {
			ties++
		}
		d, axis, dir = NearerFacet(dx, dy, negX, negY)
		if math.Float64bits(d) != math.Float64bits(wd) || axis != wa || dir != wr {
			t.Fatalf("%s: straight-line (%v,%d,%d), switch form (%v,%d,%d)", state(), d, axis, dir, wd, wa, wr)
		}
	}

	negZero := math.Copysign(0, -1)
	s := rng.NewStream(2025, 0)
	for i := 0; i < 20000; i++ {
		cx, cy := int(s.Uniform()*float64(m.NX)), int(s.Uniform()*float64(m.NY))
		switch i % 8 { // an eighth each in the corner cells
		case 0:
			cx, cy = 0, 0
		case 1:
			cx, cy = m.NX-1, m.NY-1
		}
		x := m.FacetX(cx) + s.Uniform()*m.DX
		y := m.FacetY(cy) + s.Uniform()*m.DY
		ux, uy := rng.DirectionOf(s.Next())
		check(x, y, ux, uy, 1/ux, 1/uy, cx, cy)
		check(x, y, -ux, uy, -(1 / ux), 1/uy, cx, cy) // after a reflection

		// On the facet ahead, on the facet behind, an ulp outside the cell.
		lo, hi := m.FacetX(cx), m.FacetX(cx+1)
		for _, fx := range []float64{lo, hi, math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))} {
			check(fx, y, ux, uy, 1/ux, 1/uy, cx, cy)
			check(fx, y, negZero, math.Copysign(1, uy), 1/negZero, math.Copysign(1, uy), cx, cy)
		}
		// Zero and NaN cosines, each sign, on either axis.
		for _, z := range []float64{0, negZero, math.NaN()} {
			check(x, y, z, math.Copysign(1, uy), 1/z, math.Copysign(1, uy), cx, cy)
			check(x, y, math.Copysign(1, ux), z, math.Copysign(1, ux), 1/z, cx, cy)
			check(x, y, z, z, 1/z, 1/z, cx, cy)
		}
	}

	// Exact ties: from the centre of a square cell along each diagonal, the
	// two distances are the same product of the same operands. x wins.
	if m, err = mesh.New(8, 8, 1, 1, 1); err != nil {
		t.Fatal(err)
	}
	before := ties
	for _, sgn := range [][2]float64{{1, 1}, {1, -1}, {-1, 1}, {-1, -1}} {
		ux, uy := sgn[0]*math.Sqrt2/2, sgn[1]*math.Sqrt2/2
		check(0.3125, 0.3125, ux, uy, 1/ux, 1/uy, 2, 2)
		if _, axis, _ := DistanceToFacetRecip(m, 0.3125, 0.3125, ux, uy, 1/ux, 1/uy, 2, 2); axis != 0 {
			t.Fatalf("tie along (%v,%v) went to axis %d, want x", ux, uy, axis)
		}
	}
	if ties != before+4 {
		t.Fatalf("%d of the 4 diagonal cases were exact dx == dy ties", ties-before)
	}
	if flat < 100000 {
		t.Fatalf("only %d states took the straight-line path", flat)
	}
}
