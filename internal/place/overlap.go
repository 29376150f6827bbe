package place

import (
	"math"
	"sort"

	"ppaclust/internal/netlist"
)

// RemoveOverlaps legalizes a placement of large rectangular cells (cluster
// cells, macros) so that no two movable cells overlap and all lie inside the
// core: a greedy floorplan legalizer. Cells are processed in descending area
// order; each keeps its position when legal, otherwise it moves to the
// nearest legal position found by a spiral grid search around its target.
//
// This is the overlap removal a macro-capable seed placer performs before
// region constraints are derived from cluster footprints (Algorithm 1 line
// 18): overlapping regions would confine cells into super-dense boxes.
func RemoveOverlaps(d *netlist.Design) {
	core := d.Core
	type box struct {
		x0, y0, x1, y1 float64
	}
	placed := make([]box, 0, len(d.Insts))
	for _, inst := range d.Insts {
		if inst.Fixed {
			placed = append(placed, box{inst.X, inst.Y, inst.X + inst.Master.Width, inst.Y + inst.Master.Height})
		}
	}
	overlaps := func(b box) bool {
		if b.x0 < core.X0-1e-9 || b.y0 < core.Y0-1e-9 || b.x1 > core.X1+1e-9 || b.y1 > core.Y1+1e-9 {
			return true
		}
		for _, p := range placed {
			if b.x0 < p.x1-1e-9 && p.x0 < b.x1-1e-9 && b.y0 < p.y1-1e-9 && p.y0 < b.y1-1e-9 {
				return true
			}
		}
		return false
	}

	cells := make([]*netlist.Instance, 0, len(d.Insts))
	for _, inst := range d.Insts {
		if !inst.Fixed {
			cells = append(cells, inst)
		}
	}
	sort.Slice(cells, func(i, j int) bool {
		ai := cells[i].Master.Area()
		aj := cells[j].Master.Area()
		if ai != aj {
			return ai > aj
		}
		return cells[i].ID < cells[j].ID
	})

	// Spiral search step: fine enough to pack, coarse enough to stay fast.
	step := math.Max(core.W(), core.H()) / 96
	for _, inst := range cells {
		w, h := inst.Master.Width, inst.Master.Height
		tx := clamp(inst.X, core.X0, core.X1-w)
		ty := clamp(inst.Y, core.Y0, core.Y1-h)
		b := box{tx, ty, tx + w, ty + h}
		if !overlaps(b) {
			inst.X, inst.Y, inst.Placed = tx, ty, true
			placed = append(placed, b)
			continue
		}
		found := false
		maxR := int(math.Max(core.W(), core.H())/step) + 2
		for r := 1; r <= maxR && !found; r++ {
			// Ring of candidate offsets at radius r.
			for _, off := range ringOffsets(r) {
				x := clamp(tx+float64(off[0])*step, core.X0, core.X1-w)
				y := clamp(ty+float64(off[1])*step, core.Y0, core.Y1-h)
				cb := box{x, y, x + w, y + h}
				if !overlaps(cb) {
					inst.X, inst.Y, inst.Placed = x, y, true
					placed = append(placed, cb)
					found = true
					break
				}
			}
		}
		if !found {
			// Core too full to host this cell without overlap; keep the
			// clamped position (callers see a best-effort result).
			inst.X, inst.Y, inst.Placed = tx, ty, true
			placed = append(placed, b)
		}
	}
}

// ringOffsets enumerates the lattice ring at Chebyshev radius r.
func ringOffsets(r int) [][2]int {
	out := make([][2]int, 0, 8*r)
	for dx := -r; dx <= r; dx++ {
		out = append(out, [2]int{dx, -r}, [2]int{dx, r})
	}
	for dy := -r + 1; dy < r; dy++ {
		out = append(out, [2]int{-r, dy}, [2]int{r, dy})
	}
	return out
}
