package particle

import (
	"testing"
)

// samples builds a small bank with a mix of statuses for view tests.
func sampleBank(layout Layout) *Bank {
	b := NewBank(layout, 6)
	for i := 0; i < b.Len(); i++ {
		p := Particle{
			X: float64(i) + 0.25, Y: float64(i) + 0.5,
			UX: 0.6, UY: -0.8,
			Energy: 1e6 + float64(i), Weight: 0.5,
			MFPToCollision: 1.5, TimeToCensus: 2e-8, Deposit: float64(i),
			CachedSigmaA: 3, CachedSigmaS: 4,
			CellX: int32(i), CellY: int32(i + 1), XSIndex: int32(10 * i),
			RNGCounter: uint64(i), ID: uint64(100 + i), Status: Alive,
		}
		b.Store(i, &p)
	}
	b.SetStatus(1, Census)
	b.SetStatus(4, Dead)
	return b
}

// TestGatherStatus checks the active-set builder returns exactly the
// matching slots, ascending, appended to the destination, in both layouts.
func TestGatherStatus(t *testing.T) {
	for _, layout := range []Layout{AoS, SoA} {
		b := sampleBank(layout)
		got := b.GatherStatus(nil, Alive)
		want := []int32{0, 2, 3, 5}
		if len(got) != len(want) {
			t.Fatalf("%v: gathered %v, want %v", layout, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v: gathered %v, want %v", layout, got, want)
			}
		}
		// Appends to an existing prefix without clobbering it.
		pre := b.GatherStatus([]int32{99}, Census)
		if len(pre) != 2 || pre[0] != 99 || pre[1] != 1 {
			t.Errorf("%v: append gather = %v, want [99 1]", layout, pre)
		}
	}
}

// TestFlushDeposit checks the tally flush through either layout's storage:
// reading the cell and emptying the register shows in Load and disturbs
// nothing else.
func TestFlushDeposit(t *testing.T) {
	for _, layout := range []Layout{AoS, SoA} {
		b := sampleBank(layout)
		var before Particle
		b.Load(3, &before)
		var cx, cy int32
		var dep float64
		if recs := b.Records(); recs != nil {
			p := &recs[3]
			cx, cy, dep = p.CellX, p.CellY, p.Deposit
			p.Deposit = 0
		} else {
			c, _ := b.Columns()
			cx, cy, dep = c.CellX[3], c.CellY[3], c.Deposit[3]
			c.Deposit[3] = 0
		}
		if cx != before.CellX || cy != before.CellY || dep != before.Deposit {
			t.Errorf("%v: flush read (%d,%d,%v), want (%d,%d,%v)",
				layout, cx, cy, dep, before.CellX, before.CellY, before.Deposit)
		}
		var after Particle
		b.Load(3, &after)
		want := before
		want.Deposit = 0
		if after != want {
			t.Errorf("%v: flush disturbed the record:\n got %+v\nwant %+v", layout, after, want)
		}
	}
}

// TestAxisViews checks the facet crossing's writes — a new cell and a
// reflected direction — through either layout's storage show in Load.
func TestAxisViews(t *testing.T) {
	for _, layout := range []Layout{AoS, SoA} {
		b := sampleBank(layout)
		var before Particle
		b.Load(2, &before)
		if recs := b.Records(); recs != nil {
			p := &recs[2]
			p.CellX, p.CellY, p.UX = 7, 8, -p.UX
		} else {
			c, _ := b.Columns()
			c.CellX[2], c.CellY[2], c.UX[2] = 7, 8, -c.UX[2]
		}
		var p Particle
		b.Load(2, &p)
		want := before
		want.CellX, want.CellY, want.UX = 7, 8, -0.6
		if p != want {
			t.Errorf("%v: axis writes landed wrong:\n got %+v\nwant %+v", layout, p, want)
		}
	}
}

// TestViewCommitKinematics checks each layout's storage is the bank itself —
// a write through Records or Columns needs no commit to show in Load — and
// that each view is nil on the other layout.
func TestViewCommitKinematics(t *testing.T) {
	for _, layout := range []Layout{AoS, SoA} {
		b := sampleBank(layout)
		recs := b.Records()
		cols, soa := b.Columns()
		if (recs != nil) == soa || (layout == AoS) != (recs != nil) {
			t.Fatalf("%v: Records nil %v, Columns ok %v", layout, recs == nil, soa)
		}
		var before Particle
		b.Load(3, &before)
		if recs != nil {
			p := &recs[3]
			p.X += 10
			p.TimeToCensus, p.MFPToCollision = 0, 9.5
		} else {
			cols.X[3] += 10
			cols.TimeToCensus[3], cols.MFPToCollision[3] = 0, 9.5
		}
		var after Particle
		b.Load(3, &after)
		want := before
		want.X += 10
		want.TimeToCensus, want.MFPToCollision = 0, 9.5
		if after != want {
			t.Errorf("%v: write through the view mismatch:\n got %+v\nwant %+v", layout, after, want)
		}
	}
}

// TestKinematicsLoadStore checks the SoA kinematic pair touches exactly its
// columns: LoadKinematics fills the twelve kinematic fields and leaves the
// rest of the working copy at its sentinels, and StoreKinematics writes the
// seven modified columns and leaves the other ten as they were.
func TestKinematicsLoadStore(t *testing.T) {
	b := sampleBank(SoA)
	c, _ := b.Columns()
	var before Particle
	b.Load(2, &before)

	sentinel := Particle{
		X: -1, Y: -1, UX: -1, UY: -1, Energy: -1, Weight: -1,
		MFPToCollision: -1, TimeToCensus: -1, Deposit: -1,
		CachedSigmaA: -1, CachedSigmaS: -1,
		CellX: -1, CellY: -1, XSIndex: -1,
		RNGCounter: 99, ID: 99, Status: Escaped,
	}
	p := sentinel
	c.LoadKinematics(2, &p)
	want := before
	want.Weight, want.Deposit = sentinel.Weight, sentinel.Deposit
	want.RNGCounter, want.ID, want.Status = sentinel.RNGCounter, sentinel.ID, sentinel.Status
	if p != want {
		t.Errorf("kinematic load:\n got %+v\nwant %+v", p, want)
	}

	p = sentinel
	c.StoreKinematics(2, &p)
	var after Particle
	b.Load(2, &after)
	want = before
	want.X, want.Y = sentinel.X, sentinel.Y
	want.MFPToCollision, want.TimeToCensus = sentinel.MFPToCollision, sentinel.TimeToCensus
	want.CachedSigmaA, want.CachedSigmaS, want.XSIndex = sentinel.CachedSigmaA, sentinel.CachedSigmaS, sentinel.XSIndex
	if after != want {
		t.Errorf("kinematic store:\n got %+v\nwant %+v", after, want)
	}
}

// TestRef checks in-place access: Records on AoS, Columns on SoA, each absent
// on the other layout, even for an empty bank, and a weight written through
// either lands in the bank.
func TestRef(t *testing.T) {
	if NewBank(SoA, 2).Records() != nil || NewBank(SoA, 0).Records() != nil {
		t.Error("a SoA bank returned records")
	}
	for _, n := range []int{2, 0} {
		if c, ok := NewBank(AoS, n).Columns(); ok || c.Weight != nil {
			t.Error("an AoS bank returned columns")
		}
	}
	if _, ok := NewBank(SoA, 0).Columns(); !ok || NewBank(AoS, 0).Records() == nil {
		t.Error("an empty bank returned no view of its own layout")
	}
	for _, layout := range []Layout{AoS, SoA} {
		b := NewBank(layout, 2)
		if recs := b.Records(); recs != nil {
			recs[1].Weight = 0.125
		} else {
			c, _ := b.Columns()
			c.Weight[1] = 0.125
			c.Weight = c.Weight[:1] // a copy of the headers: the bank keeps its own
			if c, _ := b.Columns(); len(c.Weight) != b.Len() {
				t.Errorf("reslicing a copy shortened the bank's column to %d", len(c.Weight))
			}
		}
		var got Particle
		b.Load(1, &got)
		if got.Weight != 0.125 {
			t.Errorf("%v: a write through the view did not land in the bank", layout)
		}
	}
}
