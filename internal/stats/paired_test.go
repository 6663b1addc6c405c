package stats

import (
	"errors"
	"reflect"
	"testing"
)

func repeat(v float64, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// TestAlternate: each pair runs both sides once, and the side that goes
// first flips with each pair; an error stops the runs.
func TestAlternate(t *testing.T) {
	var order []int
	if err := Alternate(4, func(side int) error { order = append(order, side); return nil }); err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 1, 0, 0, 1, 1, 0}; !reflect.DeepEqual(order, want) {
		t.Errorf("call order %v, want %v", order, want)
	}

	calls, stop := 0, errors.New("stop")
	err := Alternate(4, func(int) error {
		if calls++; calls == 3 {
			return stop
		}
		return nil
	})
	if err != stop || calls != 3 {
		t.Errorf("Alternate = %v after %d calls, want %v after 3", err, calls, stop)
	}
}

func TestJudge(t *testing.T) {
	for _, c := range []struct {
		name       string
		a, b       []float64
		result     string
		bWon, aWon int
	}{
		{"15% slower in 6 of 10 pairs fails",
			repeat(100, 10), append(repeat(115, 6), repeat(99, 4)...), "worse", 4, 6},
		// B's median is 115 against A's 100, as above, but B is slower only
		// in pairs 0-3.
		{"15% median gap in 4 of 10 pairs holds",
			[]float64{90, 90, 90, 90, 100, 100, 130, 130, 130, 130},
			[]float64{115, 115, 115, 115, 99, 99, 120, 120, 120, 120}, "unresolved", 6, 4},
		// Median 112.5: counted for A, the five ties would make ten slower
		// pairs of ten.
		{"ties count for neither side",
			repeat(100, 10), append(repeat(100, 5), repeat(125, 5)...), "unresolved", 0, 5},
		{"20% faster in every pair",
			repeat(100, 10), repeat(80, 10), "better", 10, 0},
		{"noise within the bound",
			[]float64{100, 103, 98, 101, 99, 102, 100, 97, 104, 100},
			[]float64{101, 102, 99, 100, 100, 103, 98, 99, 103, 101}, "unresolved", 4, 6},
	} {
		v := Judge(c.a, c.b, 1.10)
		if v.Result != c.result || v.BWon != c.bWon || v.AWon != c.aWon || v.Pairs != 10 {
			t.Errorf("%s: got %s, B won %d, A won %d of %d; want %s, %d, %d of 10",
				c.name, v.Result, v.BWon, v.AWon, v.Pairs, c.result, c.bWon, c.aWon)
		}
	}

	// Medians and the IQR interpolate between order statistics, and the
	// samples' order is the pairing, not theirs.
	v := Judge([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, []float64{4, 2, 3, 1}, 1.10)
	if v.A != 5.5 || v.B != 2.5 || v.IQR != 4.5 || v.Pairs != 4 {
		t.Errorf("medians %v, %v, IQR %v, %d pairs; want 5.5, 2.5, 4.5 and 4", v.A, v.B, v.IQR, v.Pairs)
	}
}

// TestCompare: the runner feeds each side's samples, in pair order, to Judge.
func TestCompare(t *testing.T) {
	var a, b float64
	v, err := Compare(10, 1.10,
		func() (float64, error) { a += 100; return a, nil },
		func() (float64, error) { b += 80; return b, nil })
	if err != nil || v.Result != "better" || v.BWon != 10 || v.A != 550 || v.B != 440 {
		t.Errorf("Compare = %+v, %v; want better in 10 of 10, medians 550 and 440", v, err)
	}
	fail := errors.New("run failed")
	if _, err := Compare(3, 1.10, func() (float64, error) { return 1, nil },
		func() (float64, error) { return 0, fail }); err != fail {
		t.Errorf("a failed run: Compare error %v, want %v", err, fail)
	}
}
