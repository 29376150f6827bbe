package gnn

// Portable kernels: the only implementation of axpy, axpy4, gemm2, bnReLU,
// varAcc and rowAcc on GOARCHes other than amd64 (kernels_other.go) and on
// amd64 CPUs without AVX, and the reference the amd64 assembly
// (kernels_amd64.s) must match bit for bit (TestKernelsMatchPortable).
//
// Every product is wrapped in an explicit float64 conversion. That rounds it
// on its own and so forbids the compiler to fuse it with the add that follows
// into an FMA, which arm64 does by default: each output element gets exactly
// the multiplies and adds written here, in this order, on every GOARCH.

// axpyGeneric accumulates o += a*x.
func axpyGeneric(o, x []float64, a float64) {
	x = x[:len(o)]
	for j := range o {
		o[j] += float64(a * x[j])
	}
}

// axpy4Generic accumulates o += ((a0*x0 + a1*x1) + a2*x2) + a3*x3. Folding four
// updates into one pass over o quarters the loads and stores of the output
// row.
func axpy4Generic(o, x0, x1, x2, x3 []float64, a0, a1, a2, a3 float64) {
	x0, x1, x2, x3 = x0[:len(o)], x1[:len(o)], x2[:len(o)], x3[:len(o)]
	for j := range o {
		o[j] += float64(a0*x0[j]) + float64(a1*x1[j]) + float64(a2*x2[j]) + float64(a3*x3[j])
	}
}

// gemm2Generic accumulates o0 += a0·w and o1 += a1·w for a row-major w of
// len(a0) rows and len(o0) columns: the rows of w in groups of four through
// axpy4, then the remaining rows one at a time through axpy. a1 and o1 must be
// as long as a0 and o0.
func gemm2Generic(o0, o1, a0, a1, w []float64) {
	n, k := len(o0), len(a0)
	o1, a1, w = o1[:n], a1[:k], w[:k*n]
	p := 0
	for ; p+4 <= k; p += 4 {
		w0, w1, w2, w3 := w[p*n:], w[(p+1)*n:], w[(p+2)*n:], w[(p+3)*n:]
		axpy4Generic(o0, w0, w1, w2, w3, a0[p], a0[p+1], a0[p+2], a0[p+3])
		axpy4Generic(o1, w0, w1, w2, w3, a1[p], a1[p+1], a1[p+2], a1[p+3])
	}
	for ; p < k; p++ {
		axpyGeneric(o0, w[p*n:], a0[p])
		axpyGeneric(o1, w[p*n:], a1[p])
	}
}

// bnReLUGeneric normalizes and rectifies o in place:
// o[j] = relu((o[j]-mean[j])*scale[j] + beta[j]).
func bnReLUGeneric(o, mean, scale, beta []float64) {
	mean, scale, beta = mean[:len(o)], scale[:len(o)], beta[:len(o)]
	for j, x := range o {
		o[j] = relu(float64((x-mean[j])*scale[j]) + beta[j])
	}
}

// varAccGeneric accumulates one row's share of a variance:
// o[j] += ((z[j]-mean[j])*(z[j]-mean[j]))*inv.
func varAccGeneric(o, z, mean []float64, inv float64) {
	z, mean = z[:len(o)], mean[:len(o)]
	for j := range o {
		d := z[j] - mean[j]
		o[j] += float64(float64(d*d) * inv)
	}
}

// rowAccGeneric accumulates o[j] += a[p*stride]*b[p*n+j] for p = 0..k-1 in
// ascending order, n = len(o), skipping each term whose coefficient
// a[p*stride] is ±0 (a NaN coefficient is not skipped): one output row of
// training's matmulAcc, with b row-major k x n.
func rowAccGeneric(o, a []float64, stride, k int, b []float64) {
	n := len(o)
	b = b[:k*n]
	for p := 0; p < k; p++ {
		if av := a[p*stride]; av != 0 {
			row := b[p*n : (p+1)*n]
			for j := range o {
				o[j] += float64(av * row[j])
			}
		}
	}
}
