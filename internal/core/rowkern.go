package core

// Row kernels: the dense float64 loops that every preference-map sweep
// runs. Each kernel has a portable Go body, which is the reference and the
// path on every platform without an assembly body, and on amd64 an AVX2
// body chosen once at start-up from CPUID and XGETBV (see
// rowkern_amd64.go). The AVX2 bodies change no output bit:
//
//   - packed VMULPD, VADDPD and VDIVPD lanes round exactly as the scalar
//     MULSD, ADDSD and DIVSD do, and nothing uses FMA;
//   - no sum changes its accumulation order: cluster marginals are
//     vectorized across clusters with slots as the outer loop, and time
//     marginals are built from transposed four-slot blocks, each lane still
//     adding its slot's clusters in cluster order from +0.
//
// The one difference the bodies may show is the payload of a NaN, which
// never reaches an output: a non-finite total makes Normalize reset the
// row to uniform. The Go bodies convert every product to float64 before
// adding it, which forbids a compiler from fusing the two into an FMA on
// the platforms where it otherwise may.
//
// Each dispatcher hands the AVX2 body only the part it handles in whole
// vectors (whole four-slot blocks for the marginal kernels, multiples of
// four cells for blend) and finishes the rest with the Go body. The
// kernels that work cluster by cluster run in AVX2 only when a slot is a
// whole number of vectors (C a multiple of 4, as on raw4, raw16 and
// vliw4); each wins its BenchmarkPrefMapOps case at C = 4 and C = 16.

// blend sets dst[k] = own·dst[k] + other·src[k] for every cell of dst. src
// must hold at least len(dst) cells.
func blend(dst, src []float64, own, other float64) {
	src = src[:len(dst)]
	if n := len(dst) &^ 3; useAVX2 && n > 0 {
		blendAVX2(dst[:n], src[:n], own, other)
		dst, src = dst[n:], src[n:]
	}
	blendGo(dst, src, own, other)
}

// blendGo is blend's portable body.
func blendGo(dst, src []float64, own, other float64) {
	src = src[:len(dst)] // lets the compiler drop the per-cell bounds checks
	// Unrolled by four; every cell still computes exactly own·a + other·b.
	k := 0
	for ; k+4 <= len(dst); k += 4 {
		a, b := dst[k:k+4:k+4], src[k:k+4:k+4]
		a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
		b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
		a[0] = float64(own*a0) + float64(other*b0)
		a[1] = float64(own*a1) + float64(other*b1)
		a[2] = float64(own*a2) + float64(other*b2)
		a[3] = float64(own*a3) + float64(other*b3)
	}
	for ; k < len(dst); k++ {
		dst[k] = float64(own*dst[k]) + float64(other*src[k])
	}
}

// vectorRows reports whether the kernels that work cluster by cluster run
// in AVX2 for rows of C clusters.
func vectorRows(C int) bool { return useAVX2 && C%4 == 0 }

// colSums adds row, a block of whole slots of len(cs) clusters each, into
// the cluster marginal: cs[c] += row[t·C+c], in slot order.
func colSums(cs, row []float64) {
	if C := len(cs); vectorRows(C) && len(row) >= 4*C {
		n := len(row) / (4 * C) * (4 * C)
		colSumsAVX2(cs, row[:n])
		row = row[n:]
	}
	colSumsGo(cs, row)
}

// colSumsGo is colSums' portable body.
func colSumsGo(cs, row []float64) {
	C := len(cs)
	// Four slots per step, each cluster still adding them in slot order.
	base := 0
	for ; base+4*C <= len(row); base += 4 * C {
		r := row[base : base+4*C]
		r0, r1, r2, r3 := r[:C], r[C:][:C], r[2*C:][:C], r[3*C:][:C]
		for c := range cs {
			cs[c] = cs[c] + r0[c] + r1[c] + r2[c] + r3[c]
		}
	}
	for ; base < len(row); base += C {
		for c := range cs {
			cs[c] += row[base+c]
		}
	}
}

// rescale multiplies every cell of row, len(ts) whole slots of len(cs)
// clusters, by inv and rebuilds both marginals from the products it
// stores: cs[c] += w in slot order, and ts[t] = 0 + w(t,0) + w(t,1) + …
// in cluster order. cs must hold the marginal of the slots before row.
func rescale(cs, ts, row []float64, inv float64) {
	if C := len(cs); vectorRows(C) && len(ts) >= 4 {
		n := len(ts) &^ 3
		rescaleAVX2(cs, ts[:n], row[:n*C], inv)
		ts, row = ts[n:], row[n*C:]
	}
	rescaleGo(cs, ts, row, inv)
}

// rescaleGo is rescale's portable body. Four slots go through each step:
// each slot's time marginal still adds its clusters in order, and each
// cluster marginal still adds its slots in order; the four independent
// time-marginal chains just run side by side.
func rescaleGo(cs, ts, row []float64, inv float64) {
	C := len(cs)
	t := 0
	for ; t+4 <= len(ts); t += 4 {
		r := row[t*C : (t+4)*C]
		r0, r1, r2, r3 := r[:C], r[C:][:C], r[2*C:][:C], r[3*C:][:C]
		var s0, s1, s2, s3 float64
		for c := range cs {
			w0, w1, w2, w3 := float64(r0[c]*inv), float64(r1[c]*inv), float64(r2[c]*inv), float64(r3[c]*inv)
			r0[c], r1[c], r2[c], r3[c] = w0, w1, w2, w3
			cs[c] = cs[c] + w0 + w1 + w2 + w3
			s0 += w0
			s1 += w1
			s2 += w2
			s3 += w3
		}
		ts[t], ts[t+1], ts[t+2], ts[t+3] = s0, s1, s2, s3
	}
	for ; t < len(ts); t++ {
		base := t * C
		sum := 0.0
		for c := range cs {
			w := float64(row[base+c] * inv)
			row[base+c] = w
			cs[c] += w
			sum += w
		}
		ts[t] = sum
	}
}

// mulCols multiplies every cell of row, a block of whole slots of len(f)
// clusters each, by its cluster's factor: row[t·C+c] *= f[c].
func mulCols(row, f []float64) {
	if vectorRows(len(f)) {
		mulColsAVX2(row, f)
		return
	}
	mulColsGo(row, f)
}

// mulColsGo is mulCols' portable body.
func mulColsGo(row, f []float64) {
	C := len(f)
	for base := 0; base < len(row); base += C {
		r := row[base : base+C]
		for c, v := range f {
			r[c] *= v
		}
	}
}

// divCols divides every cell of row, a block of whole slots of len(d)
// clusters each, by its cluster's divisor: row[t·C+c] /= d[c]. It divides
// rather than multiplying by a reciprocal, which could change a bit.
func divCols(row, d []float64) {
	if vectorRows(len(d)) {
		divColsAVX2(row, d)
		return
	}
	divColsGo(row, d)
}

// divColsGo is divCols' portable body.
func divColsGo(row, d []float64) {
	C := len(d)
	for base := 0; base < len(row); base += C {
		r := row[base : base+C]
		for c, v := range d {
			r[c] /= v
		}
	}
}
