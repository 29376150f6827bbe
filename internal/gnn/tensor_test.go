package gnn

import "testing"

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c := NewCtx(false)
	c.MatMul(NewTensor(2, 3), NewTensor(4, 2))
}

func TestAddShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c := NewCtx(false)
	c.Add(NewTensor(2, 3), NewTensor(3, 2))
}

func TestSpMMShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c := NewCtx(false)
	s := NewSparse(make([]int, 3))
	c.SpMM(s, NewTensor(4, 2))
}

func TestMSERequiresScalar(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c := NewCtx(false)
	c.MSE(NewTensor(2, 1), 0)
}

func TestTensorZeroGrad(t *testing.T) {
	x := NewTensor(2, 3)
	x.Grad[0] = 5
	x.ZeroGrad()
	if x.Grad[0] != 0 {
		t.Fatal("ZeroGrad broken")
	}
}

func TestReLUForwardBackwardSigns(t *testing.T) {
	c := NewCtx(false)
	x := NewTensor(1, 4)
	copy(x.Data, []float64{-2, -0.5, 0.5, 2})
	y := c.ReLU(x)
	want := []float64{0, 0, 0.5, 2}
	for i := range want {
		if y.Data[i] != want[i] {
			t.Fatalf("relu fwd: %v", y.Data)
		}
	}
	for i := range y.Grad {
		y.Grad[i] = 1
	}
	c.Backward()
	if x.Grad[0] != 0 || x.Grad[1] != 0 || x.Grad[2] != 1 || x.Grad[3] != 1 {
		t.Fatalf("relu bwd: %v", x.Grad)
	}
}
