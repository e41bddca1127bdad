package main

import (
	"math"
	"sort"
	"strconv"

	"rqp/internal/types"
)

// tailPercentile returns the highest whole percentile q in [50, 99] that
// leaves at least ten of n samples strictly beyond its nearest-rank
// position. With fewer than 20 samples no such q exists and 50 is returned:
// the median is then the only figure the sample supports.
func tailPercentile(n int) int {
	for q := 99; q > 50; q-- {
		if n-rankOf(q, n) >= 10 {
			return q
		}
	}
	return 50
}

// rankOf is the 1-based nearest-rank position of percentile q among n
// sorted samples.
func rankOf(q, n int) int {
	r := int(math.Ceil(float64(q) * float64(n) / 100))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile picks percentile q (nearest rank) from sorted samples.
func percentile(sorted []float64, q int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(q, len(sorted))-1]
}

// median sorts a copy of xs and returns its middle value (mean of the two
// middle values for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// appendCanonValue renders one value the way the repository's experiment
// harness canonicalizes result rows: floats at six significant digits (so
// summation order under parallel or vectorized execution does not matter),
// every other kind by its String form.
func appendCanonValue(dst []byte, v types.Value) []byte {
	switch v.K {
	case types.KindFloat:
		return strconv.AppendFloat(dst, v.F, 'g', 6, 64)
	case types.KindInt:
		return strconv.AppendInt(dst, v.I, 10)
	}
	return append(dst, v.String()...)
}

// appendCanonRow renders a row as its canonical values joined by '|'.
func appendCanonRow(dst []byte, r types.Row) []byte {
	for i, v := range r {
		if i > 0 {
			dst = append(dst, '|')
		}
		dst = appendCanonValue(dst, v)
	}
	return dst
}

// digest is an order-independent fingerprint of a result's canonical rows:
// the row count plus the sum and xor of each canonical row's FNV-64a hash.
// Two results holding the same multiset of canonical rows have equal
// digests, whatever their order, so a client can check a result of tens of
// thousands of rows without sorting it.
type digest struct {
	N   int64
	Sum uint64
	Xor uint64
}

// FNV-64a parameters, inlined so hashing a row allocates nothing.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// digester accumulates a digest row by row, reusing one render buffer.
type digester struct {
	d   digest
	buf []byte
}

func (g *digester) add(r types.Row) {
	g.buf = appendCanonRow(g.buf[:0], r)
	s := uint64(fnvOffset)
	for _, b := range g.buf {
		s ^= uint64(b)
		s *= fnvPrime
	}
	g.d.N++
	g.d.Sum += s
	g.d.Xor ^= s
}

func digestRows(rows []types.Row) digest {
	var g digester
	for _, r := range rows {
		g.add(r)
	}
	return g.d
}
