//go:build !amd64

package gnn

// useAVX is false: this GOARCH has no assembly kernels.
var useAVX = false

// axpy accumulates o += a*x.
func axpy(o, x []float64, a float64) { axpyGeneric(o, x, a) }

// axpy4 accumulates o += ((a0*x0 + a1*x1) + a2*x2) + a3*x3.
func axpy4(o, x0, x1, x2, x3 []float64, a0, a1, a2, a3 float64) {
	axpy4Generic(o, x0, x1, x2, x3, a0, a1, a2, a3)
}

// gemm2 accumulates o0 += a0·w and o1 += a1·w (gemm2Generic).
func gemm2(o0, o1, a0, a1, w []float64) { gemm2Generic(o0, o1, a0, a1, w) }

// bnReLU normalizes and rectifies o in place:
// o[j] = relu((o[j]-mean[j])*scale[j] + beta[j]).
func bnReLU(o, mean, scale, beta []float64) { bnReLUGeneric(o, mean, scale, beta) }

// varAcc accumulates o += ((z-mean)*(z-mean))*inv.
func varAcc(o, z, mean []float64, inv float64) { varAccGeneric(o, z, mean, inv) }

// rowAcc accumulates o[j] += a[p*stride]*b[p*len(o)+j] for p ascending,
// skipping ±0 coefficients (rowAccGeneric).
func rowAcc(o, a []float64, stride, k int, b []float64) { rowAccGeneric(o, a, stride, k, b) }
