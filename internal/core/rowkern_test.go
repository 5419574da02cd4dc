package core

import (
	"encoding/binary"
	"math"
	"testing"
)

// kernelValues decodes n weights from data's eight-byte words, cycling
// through them from a word picked by salt. Every value is finite and
// non-negative, as the map's weights are: NaN decodes to 0, -Inf and +Inf
// to the largest finite value, and a negative value to its absolute value.
// Short data yields small multiples of 1/8.
func kernelValues(data []byte, n, salt int) []float64 {
	out := make([]float64, n)
	words := len(data) / 8
	for k := range out {
		switch {
		case words > 0:
			off := (k + 3*salt) % words * 8
			out[k] = finiteWeight(binary.LittleEndian.Uint64(data[off:]))
		case len(data) > 0:
			out[k] = float64(data[(k+salt)%len(data)]) / 8
		}
	}
	return out
}

// finiteWeight maps any bit pattern onto a finite, non-negative float64.
func finiteWeight(bits uint64) float64 {
	v := math.Abs(math.Float64frombits(bits))
	switch {
	case math.IsNaN(v):
		return 0
	case math.IsInf(v, 0):
		return math.MaxFloat64
	}
	return v
}

func sameKernelBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for k := range want {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			t.Fatalf("%s: cell %d = %v (%#x), Go body %v (%#x)", what, k,
				got[k], math.Float64bits(got[k]), want[k], math.Float64bits(want[k]))
		}
	}
}

// FuzzRowKernels checks every row kernel's dispatcher, which runs the AVX2
// body on the whole vectors and the Go body on the rest, against the Go
// body alone, bit for bit: weights and both marginals. Row widths run from
// 1 to 17 clusters and lengths from 0 to 67 cells (blend) or slots (the
// kernels that work slot by slot), so every split between the AVX2 body and
// the Go tail is reached, and values cover zeros, subnormals, values near
// overflow and reciprocals of tiny totals. Without AVX2 the dispatchers run
// the Go bodies alone and there is nothing to compare.
func FuzzRowKernels(f *testing.F) {
	if !useAVX2 {
		f.Skip("no AVX2 on this CPU: the Go bodies are the only path")
	}
	bytesOf := func(vs ...float64) []byte {
		b := make([]byte, 8*len(vs))
		for k, v := range vs {
			binary.LittleEndian.PutUint64(b[8*k:], math.Float64bits(v))
		}
		return b
	}
	tiny := 0x1p-1022 // the smallest normal total: its reciprocal is 2^1022
	// Weights that are not short binary fractions, so sums round and a
	// reordered sum shows.
	ordinary := bytesOf(0.1, 1.0/3, 0.7, 1e-5, 123.456, 2.0/7, 0.3, 1e-3, 5.5, 0.9)
	f.Add(uint8(15), uint8(67), math.Float64bits(0.3), math.Float64bits(1.0/3), ordinary)
	f.Add(uint8(3), uint8(30), math.Float64bits(0.7), math.Float64bits(1/tiny), ordinary)
	f.Add(uint8(3), uint8(9), math.Float64bits(0.75), math.Float64bits(1),
		make([]byte, 64)) // zeros
	f.Add(uint8(16), uint8(33), math.Float64bits(0.5), math.Float64bits(3),
		bytesOf(5e-324, 1e-310, 0x1p-1022, 2.5e-320, 0, 1e-300)) // subnormals
	f.Add(uint8(7), uint8(40), math.Float64bits(0.999), math.Float64bits(1e10),
		bytesOf(math.MaxFloat64, 1.7e308, 1e308, 0.5, 9e307)) // near overflow
	f.Add(uint8(4), uint8(1), math.Float64bits(0), math.Float64bits(0x1p-1074),
		bytesOf(1, 2, 3))
	f.Add(uint8(0), uint8(0), uint64(0), uint64(0), []byte{})

	f.Fuzz(func(t *testing.T, cRaw, nRaw uint8, ownBits, invBits uint64, data []byte) {
		C := 1 + int(cRaw)%17
		n := int(nRaw) % 68
		own, inv := finiteWeight(ownBits), finiteWeight(invBits)
		other := finiteWeight(^ownBits)

		// blend over n cells, separate and aliased.
		dst, src := kernelValues(data, n, 0), kernelValues(data, n, 1)
		want := append([]float64(nil), dst...)
		blendGo(want, src, own, other)
		got := append([]float64(nil), dst...)
		blend(got, src, own, other)
		sameKernelBits(t, "blend", got, want)
		want = append(want[:0], dst...)
		blendGo(want, want, own, other)
		got = append(got[:0], dst...)
		blend(got, got, own, other)
		sameKernelBits(t, "aliased blend", got, want)

		// The slot kernels over n slots of C clusters; the cluster
		// marginal starts from a carried-in value, as it does after a
		// previous block.
		row := kernelValues(data, n*C, 2)
		cs := kernelValues(data, C, 3)
		vals := kernelValues(data, C, 4)

		wantCS := append([]float64(nil), cs...)
		colSumsGo(wantCS, row)
		gotCS := append([]float64(nil), cs...)
		colSums(gotCS, row)
		sameKernelBits(t, "colSums", gotCS, wantCS)

		wantRow, wantTS := append([]float64(nil), row...), make([]float64, n)
		wantCS = append(wantCS[:0], cs...)
		rescaleGo(wantCS, wantTS, wantRow, inv)
		gotRow, gotTS := append([]float64(nil), row...), make([]float64, n)
		gotCS = append(gotCS[:0], cs...)
		rescale(gotCS, gotTS, gotRow, inv)
		sameKernelBits(t, "rescale weights", gotRow, wantRow)
		sameKernelBits(t, "rescale cluster marginal", gotCS, wantCS)
		sameKernelBits(t, "rescale time marginal", gotTS, wantTS)

		wantRow = append(wantRow[:0], row...)
		mulColsGo(wantRow, vals)
		gotRow = append(gotRow[:0], row...)
		mulCols(gotRow, vals)
		sameKernelBits(t, "mulCols", gotRow, wantRow)

		for c, v := range vals {
			if v == 0 {
				vals[c] = 0x1p-1074 // a divisor must be positive
			}
		}
		wantRow = append(wantRow[:0], row...)
		divColsGo(wantRow, vals)
		gotRow = append(gotRow[:0], row...)
		divCols(gotRow, vals)
		sameKernelBits(t, "divCols", gotRow, wantRow)
	})
}
