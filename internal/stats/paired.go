package stats

import "slices"

// Alternate runs n pairs of two sides: side 0 goes first in even pairs and
// second in odd ones, so a drift in host speed falls on both sides alike.
func Alternate(n int, run func(side int) error) (err error) {
	for i := 0; i < 2*n && err == nil; i++ {
		err = run(i%2 ^ i/2%2)
	}
	return err
}

// Verdict compares the paired costs (lower is faster) of side B with A's.
type Verdict struct {
	A, B              float64 // medians
	IQR               float64 // A's interquartile range
	AWon, BWon, Pairs int     // pairs each side ran faster, of Pairs; a tie counts for neither
	Result            string  // "better" or "worse" (B against A) past the bound in most pairs, else "unresolved"
}

// Judge compares pair i's samples, a[i] against b[i], at bound (1.10: 10 %).
func Judge(a, b []float64, bound float64) Verdict {
	v := Verdict{A: quantile(a, 0.5), B: quantile(b, 0.5), Pairs: min(len(a), len(b)),
		IQR: quantile(a, 0.75) - quantile(a, 0.25), Result: "unresolved"}
	for i := range v.Pairs {
		if b[i] < a[i] {
			v.BWon++
		} else if b[i] > a[i] {
			v.AWon++
		}
	}
	if v.B > bound*v.A && 2*v.AWon > v.Pairs {
		v.Result = "worse"
	} else if bound*v.B < v.A && 2*v.BWon > v.Pairs {
		v.Result = "better"
	}
	return v
}

// Compare is the paired runner: n alternating pairs, b judged against a.
func Compare(n int, bound float64, a, b func() (float64, error)) (Verdict, error) {
	var got [2][]float64
	if err := Alternate(n, func(side int) error {
		v, err := [2]func() (float64, error){a, b}[side]()
		got[side] = append(got[side], v)
		return err
	}); err != nil {
		return Verdict{}, err
	}
	return Judge(got[0], got[1], bound), nil
}

// quantile interpolates linearly between the order statistics of s.
func quantile(s []float64, q float64) float64 {
	s = slices.Sorted(slices.Values(s))
	pos := q * float64(len(s)-1)
	lo := int(pos)
	return s[lo] + (pos-float64(lo))*(s[min(lo+1, len(s)-1)]-s[lo])
}
