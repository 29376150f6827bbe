package gnn

// The SSE2 kernels of kernels_amd64.s. SSE2 is the amd64 baseline (GOAMD64=v1),
// so they need no CPU detection. Each packed MULPD/ADDPD lane performs one
// element's multiplies and adds in kernels.go's order, with no FMA, so the
// results equal the portable kernels' to the bit. The wrappers reslice the
// inputs to the lengths the assembly reads, which bounds-checks them; the
// assembly itself allocates nothing.

//go:noescape
func axpySSE2(o, x []float64, a float64)

//go:noescape
func axpy4SSE2(o, x0, x1, x2, x3 []float64, a0, a1, a2, a3 float64)

//go:noescape
func gemm2SSE2(o0, o1, a0, a1, w []float64)

// axpy accumulates o += a*x.
func axpy(o, x []float64, a float64) { axpySSE2(o, x[:len(o)], a) }

// axpy4 accumulates o += ((a0*x0 + a1*x1) + a2*x2) + a3*x3.
func axpy4(o, x0, x1, x2, x3 []float64, a0, a1, a2, a3 float64) {
	n := len(o)
	axpy4SSE2(o, x0[:n], x1[:n], x2[:n], x3[:n], a0, a1, a2, a3)
}

// gemm2 accumulates o0 += a0·w and o1 += a1·w (gemm2Generic): the rows of w
// in groups of four in the assembly, each load of w shared between the two
// output rows, then the remaining rows through axpy.
func gemm2(o0, o1, a0, a1, w []float64) {
	n, k := len(o0), len(a0)
	o1, a1, w = o1[:n], a1[:k], w[:k*n]
	k4 := k &^ 3
	gemm2SSE2(o0, o1, a0[:k4], a1[:k4], w)
	for p := k4; p < k; p++ {
		axpySSE2(o0, w[p*n:(p+1)*n], a0[p])
		axpySSE2(o1, w[p*n:(p+1)*n], a1[p])
	}
}
