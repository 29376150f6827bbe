package gnn

// The AVX kernels of kernels_amd64.s, chosen once at package init. Each packed
// VMULPD/VADDPD/VSUBPD lane performs one element's operations in kernels.go's
// order, with no FMA, so the results equal the portable kernels' to the bit;
// a CPU without AVX runs the portable kernels instead. The wrappers reslice
// the inputs to the lengths the assembly reads, which bounds-checks them; the
// assembly itself allocates nothing.

// useAVX selects the assembly kernels. It is set once, before any kernel runs,
// and only tests change it: to run the portable path on an AVX machine.
var useAVX = hasAVX()

// hasAVX reports whether the CPU has AVX (CPUID leaf 1) and the OS saves the
// XMM and YMM registers across context switches (OSXSAVE, then bits 1 and 2
// of XCR0).
func hasAVX() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	if cpuid1ECX()&(osxsave|avx) != osxsave|avx {
		return false
	}
	const xmm, ymm = 1 << 1, 1 << 2
	return xgetbv0()&(xmm|ymm) == xmm|ymm
}

func cpuid1ECX() uint32

func xgetbv0() uint32

//go:noescape
func axpyAVX(o, x []float64, a float64)

//go:noescape
func axpy4AVX(o, x0, x1, x2, x3 []float64, a0, a1, a2, a3 float64)

//go:noescape
func gemm2AVX(o0, o1, a0, a1, w []float64)

//go:noescape
func bnReLUAVX(o, mean, scale, beta []float64)

//go:noescape
func varAccAVX(o, z, mean []float64, inv float64)

//go:noescape
func rowAccAVX(o, a []float64, stride, k int, b []float64)

// axpy accumulates o += a*x.
func axpy(o, x []float64, a float64) {
	if !useAVX {
		axpyGeneric(o, x, a)
		return
	}
	axpyAVX(o, x[:len(o)], a)
}

// axpy4 accumulates o += ((a0*x0 + a1*x1) + a2*x2) + a3*x3.
func axpy4(o, x0, x1, x2, x3 []float64, a0, a1, a2, a3 float64) {
	if !useAVX {
		axpy4Generic(o, x0, x1, x2, x3, a0, a1, a2, a3)
		return
	}
	n := len(o)
	axpy4AVX(o, x0[:n], x1[:n], x2[:n], x3[:n], a0, a1, a2, a3)
}

// gemm2 accumulates o0 += a0·w and o1 += a1·w (gemm2Generic): the rows of w
// in groups of four in the assembly, each load of w shared between the two
// output rows, then the remaining rows through axpy.
func gemm2(o0, o1, a0, a1, w []float64) {
	if !useAVX {
		gemm2Generic(o0, o1, a0, a1, w)
		return
	}
	n, k := len(o0), len(a0)
	o1, a1, w = o1[:n], a1[:k], w[:k*n]
	k4 := k &^ 3
	gemm2AVX(o0, o1, a0[:k4], a1[:k4], w)
	for p := k4; p < k; p++ {
		axpyAVX(o0, w[p*n:(p+1)*n], a0[p])
		axpyAVX(o1, w[p*n:(p+1)*n], a1[p])
	}
}

// bnReLU normalizes and rectifies o in place:
// o[j] = relu((o[j]-mean[j])*scale[j] + beta[j]).
func bnReLU(o, mean, scale, beta []float64) {
	if !useAVX {
		bnReLUGeneric(o, mean, scale, beta)
		return
	}
	n := len(o)
	bnReLUAVX(o, mean[:n], scale[:n], beta[:n])
}

// varAcc accumulates o += ((z-mean)*(z-mean))*inv.
func varAcc(o, z, mean []float64, inv float64) {
	if !useAVX {
		varAccGeneric(o, z, mean, inv)
		return
	}
	n := len(o)
	varAccAVX(o, z[:n], mean[:n], inv)
}

// rowAcc accumulates o[j] += a[p*stride]*b[p*len(o)+j] for p ascending,
// skipping ±0 coefficients (rowAccGeneric).
func rowAcc(o, a []float64, stride, k int, b []float64) {
	if !useAVX {
		rowAccGeneric(o, a, stride, k, b)
		return
	}
	if k == 0 {
		return
	}
	rowAccAVX(o, a[:(k-1)*stride+1], stride, k, b[:k*len(o)])
}
