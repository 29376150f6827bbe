package place

import (
	"math"

	"ppaclust/internal/netlist"
)

// binGrid is the density grid used for overflow measurement and as the
// capacity model of the bisection spreader.
type binGrid struct {
	core     netlist.Rect
	nx, ny   int
	bw, bh   float64
	area     []float64 // deposited movable area per bin
	capacity []float64 // usable area per bin (after blockages) * targetDensity
}

func newBinGrid(core netlist.Rect, nCells int, targetDensity float64) *binGrid {
	n := int(math.Sqrt(float64(nCells)/4)) + 2
	if n < 4 {
		n = 4
	}
	if n > 128 {
		n = 128
	}
	g := &binGrid{
		core: core,
		nx:   n,
		ny:   n,
		bw:   core.W() / float64(n),
		bh:   core.H() / float64(n),
	}
	g.area = make([]float64, n*n)
	g.capacity = make([]float64, n*n)
	binArea := g.bw * g.bh * targetDensity
	for i := range g.capacity {
		g.capacity[i] = binArea
	}
	return g
}

func (g *binGrid) index(x, y float64) (int, int) {
	i := int((x - g.core.X0) / g.bw)
	j := int((y - g.core.Y0) / g.bh)
	if i < 0 {
		i = 0
	}
	if i >= g.nx {
		i = g.nx - 1
	}
	if j < 0 {
		j = 0
	}
	if j >= g.ny {
		j = g.ny - 1
	}
	return i, j
}

// blockArea removes a fixed blockage's footprint from bin capacities.
func (g *binGrid) blockArea(x, y, w, h float64) {
	x1, y1 := x+w, y+h
	i0, j0 := g.index(x, y)
	i1, j1 := g.index(x1, y1)
	for j := j0; j <= j1; j++ {
		for i := i0; i <= i1; i++ {
			bx0 := g.core.X0 + float64(i)*g.bw
			by0 := g.core.Y0 + float64(j)*g.bh
			ox := overlap1d(x, x1, bx0, bx0+g.bw)
			oy := overlap1d(y, y1, by0, by0+g.bh)
			c := &g.capacity[j*g.nx+i]
			*c -= ox * oy
			if *c < 0 {
				*c = 0
			}
		}
	}
}

func overlap1d(a0, a1, b0, b1 float64) float64 {
	lo := math.Max(a0, b0)
	hi := math.Min(a1, b1)
	if hi <= lo {
		return 0
	}
	return hi - lo
}

func (g *binGrid) clear() {
	for i := range g.area {
		g.area[i] = 0
	}
}

func (g *binGrid) deposit(x, y, area float64) {
	i, j := g.index(x, y)
	g.area[j*g.nx+i] += area
}

// overflow returns the fraction of movable area above bin capacity.
func (g *binGrid) overflow() float64 {
	var over, total float64
	for i := range g.area {
		total += g.area[i]
		if g.area[i] > g.capacity[i] {
			over += g.area[i] - g.capacity[i]
		}
	}
	if total <= 0 {
		return 0
	}
	return over / total
}

// capacityOf approximates the free capacity inside a rectangle by summing
// bin capacities weighted by overlap fraction.
func (g *binGrid) capacityOf(r netlist.Rect) float64 {
	i0, j0 := g.index(r.X0, r.Y0)
	i1, j1 := g.index(r.X1-1e-9, r.Y1-1e-9)
	var total float64
	for j := j0; j <= j1; j++ {
		for i := i0; i <= i1; i++ {
			bx0 := g.core.X0 + float64(i)*g.bw
			by0 := g.core.Y0 + float64(j)*g.bh
			ox := overlap1d(r.X0, r.X1, bx0, bx0+g.bw)
			oy := overlap1d(r.Y0, r.Y1, by0, by0+g.bh)
			total += g.capacity[j*g.nx+i] * (ox * oy) / (g.bw * g.bh)
		}
	}
	return total
}
