package tally

import "math"

// Runs is a mesh of N cells as its runs of non-zero cells, the one form a
// result's cells take from the finish of a run to a client: run r covers
// cells [Start[r], End[r]), and the runs' values lie end to end in Vals. A
// cell is zero when all of its bits are, so -0, subnormals, NaN and ±Inf are
// kept and Dense gives back the mesh bit for bit. Runs are maximal and
// ascending. A mesh with no non-zero cell has nil slices; any other has
// slices of exactly their length. The JSON tags are the wire form.
type Runs struct {
	N     int       `json:"n"`
	Start []int32   `json:"start,omitempty"`
	End   []int32   `json:"end,omitempty"`
	Vals  []float64 `json:"vals,omitempty"`
}

// RunsOf files a mesh of n cells whose non-zero cells are cells, ascending by
// index as NonZero appends them, in the scale s of their ticks. Adjacent
// indices merge into one run; Value of a non-zero tick count is never +0.
func RunsOf(n int, cells []Cell, s Scale) Runs {
	r := Runs{N: n}
	if len(cells) > 0 {
		r.Vals = make([]float64, 0, len(cells))
	}
	for i, c := range cells {
		if i == 0 || c.Index != cells[i-1].Index+1 {
			r.Start, r.End = append(r.Start, int32(c.Index)), append(r.End, int32(c.Index))
		}
		r.End[len(r.End)-1]++
		r.Vals = append(r.Vals, s.Value(c.Ticks))
	}
	return r
}

// Compact files a dense mesh as its runs. One scan counts the runs and notes
// their bounds (on the stack, up to 256 runs), then the slices are allocated
// at exactly their size and filled from the run cells.
func Compact(cells []float64) Runs {
	bounds, nonZero := make([]int32, 0, 512), 0
	for s, e := nextRun(cells, 0); s < len(cells); s, e = nextRun(cells, e) {
		bounds = append(bounds, int32(s), int32(e))
		nonZero += e - s
	}
	r := Runs{N: len(cells)}
	if nonZero == 0 {
		return r
	}
	r.Start, r.End, r.Vals = make([]int32, len(bounds)/2), make([]int32, len(bounds)/2), make([]float64, 0, nonZero)
	for i := range r.Start {
		s, e := bounds[2*i], bounds[2*i+1]
		r.Start[i], r.End[i] = s, e
		r.Vals = append(r.Vals, cells[s:e]...)
	}
	return r
}

// nextRun returns the first run of non-zero cells at or after i; start is
// len(cells) when there is none. Zeros are skipped eight at a time, as
// appendNonZero skips them: a tally is mostly zeros.
func nextRun(cells []float64, i int) (start, end int) {
	for rest := cells[i:]; len(rest) >= 8; rest = rest[8:] {
		b := (*[8]float64)(rest)
		if math.Float64bits(b[0])|math.Float64bits(b[1])|math.Float64bits(b[2])|math.Float64bits(b[3])|
			math.Float64bits(b[4])|math.Float64bits(b[5])|math.Float64bits(b[6])|math.Float64bits(b[7]) != 0 {
			break
		}
		i += 8
	}
	for i < len(cells) && math.Float64bits(cells[i]) == 0 {
		i++
	}
	start = i
	for i < len(cells) && math.Float64bits(cells[i]) != 0 {
		i++
	}
	return start, i
}

// Dense returns the mesh: in dst when it has room for it, so a caller folding
// many results reuses one slice, else in a new slice.
func (r Runs) Dense(dst []float64) []float64 {
	if cap(dst) < r.N {
		dst = make([]float64, r.N)
	} else {
		dst = dst[:r.N]
		clear(dst)
	}
	vals := r.Vals
	for i, s := range r.Start {
		vals = vals[copy(dst[s:r.End[i]], vals):]
	}
	return dst
}
