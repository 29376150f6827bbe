package gnn

import "math"

// adam is the Adam optimizer over a parameter list.
type adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Eps     float64
	params  []*tensor
	m, v    [][]float64
	t       int
	ClipAbs float64 // per-element gradient clip (0 = off)
}

// newAdam builds an optimizer for the given parameters.
func newAdam(params []*tensor, lr float64) *adam {
	a := &adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		params:  params,
		ClipAbs: 5,
	}
	for _, p := range params {
		a.m = append(a.m, make([]float64, len(p.Data)))
		a.v = append(a.v, make([]float64, len(p.Data)))
	}
	return a
}

// step applies one Adam update and clears the gradients.
func (a *adam) step() {
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for pi, p := range a.params {
		m, v := a.m[pi], a.v[pi]
		for i, g := range p.Grad {
			if a.ClipAbs > 0 {
				if g > a.ClipAbs {
					g = a.ClipAbs
				} else if g < -a.ClipAbs {
					g = -a.ClipAbs
				}
			}
			m[i] = a.Beta1*m[i] + (1-a.Beta1)*g
			v[i] = a.Beta2*v[i] + (1-a.Beta2)*g*g
			p.Data[i] -= a.LR * (m[i] / bc1) / (math.Sqrt(v[i]/bc2) + a.Eps)
		}
		p.zeroGrad()
	}
}
