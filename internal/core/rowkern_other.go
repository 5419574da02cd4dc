//go:build !amd64

package core

// Only amd64 has assembly kernel bodies; every other platform runs the Go
// bodies, and these stubs are never called.
const useAVX2 = false

func blendAVX2(dst, src []float64, own, other float64) { panic("core: no AVX2") }
func colSumsAVX2(cs, row []float64)                    { panic("core: no AVX2") }
func rescaleAVX2(cs, ts, row []float64, inv float64)   { panic("core: no AVX2") }
func mulColsAVX2(row, f []float64)                     { panic("core: no AVX2") }
func divColsAVX2(row, d []float64)                     { panic("core: no AVX2") }
