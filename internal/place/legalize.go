package place

import (
	"math"
	"sort"

	"ppaclust/internal/netlist"
)

// Legalize snaps all movable standard cells onto rows and site columns with
// a Tetris-style greedy sweep: cells are processed left to right, and each
// cell takes the row position minimizing its displacement given the row
// cursors. Fixed cells and macros are untouched; rows overlapped by fixed
// macros start their cursors past the macro.
func Legalize(d *netlist.Design) {
	core := d.Core
	rowH := d.RowHeight
	if rowH <= 0 {
		rowH = 1.4
	}
	siteW := d.SiteWidth
	if siteW <= 0 {
		siteW = 0.19
	}
	nRows := int(core.H() / rowH)
	if nRows <= 0 {
		return
	}
	// Row cursors: next free x per row. Macros create per-row skip windows;
	// for simplicity the cursor starts after the right-most fixed blockage
	// that begins at the row's left half, and cells that would land inside a
	// blockage are pushed past it.
	type blockage struct{ x0, x1 float64 }
	rowBlocks := make([][]blockage, nRows)
	for _, inst := range d.Insts {
		if !inst.Fixed {
			continue
		}
		r0 := int((inst.Y - core.Y0) / rowH)
		r1 := int((inst.Y + inst.Master.Height - core.Y0) / rowH)
		for r := r0; r <= r1 && r < nRows; r++ {
			if r < 0 {
				continue
			}
			rowBlocks[r] = append(rowBlocks[r], blockage{inst.X, inst.X + inst.Master.Width})
		}
	}
	for r := range rowBlocks {
		sort.Slice(rowBlocks[r], func(i, j int) bool { return rowBlocks[r][i].x0 < rowBlocks[r][j].x0 })
	}
	cursor := make([]float64, nRows)
	for r := range cursor {
		cursor[r] = core.X0
	}

	cells := make([]*netlist.Instance, 0, len(d.Insts))
	for _, inst := range d.Insts {
		if inst.Fixed || inst.Master.Class == netlist.ClassMacro {
			continue
		}
		cells = append(cells, inst)
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].X != cells[j].X {
			return cells[i].X < cells[j].X
		}
		return cells[i].ID < cells[j].ID
	})

	// placeInRow returns the x the cell would get in row r and the cost.
	placeInRow := func(inst *netlist.Instance, r int) (float64, float64) {
		x := math.Max(cursor[r], inst.X)
		w := inst.Master.Width
		// Skip blockages.
		for _, b := range rowBlocks[r] {
			if x+w > b.x0 && x < b.x1 {
				x = b.x1
			}
		}
		// Snap to site grid.
		x = core.X0 + math.Round((x-core.X0)/siteW)*siteW
		if x < cursor[r] {
			x += siteW
		}
		if x+w > core.X1 {
			return x, math.Inf(1)
		}
		ry := core.Y0 + float64(r)*rowH
		cost := math.Abs(x-inst.X) + math.Abs(ry-inst.Y)
		return x, cost
	}

	for _, inst := range cells {
		pref := int((inst.Y - core.Y0) / rowH)
		bestR, bestX, bestCost := -1, 0.0, math.Inf(1)
		// Search rows outward from the preferred row.
		for dr := 0; dr < nRows; dr++ {
			for _, r := range []int{pref - dr, pref + dr} {
				if r < 0 || r >= nRows || (dr == 0 && r != pref) {
					continue
				}
				x, cost := placeInRow(inst, r)
				if cost < bestCost {
					bestR, bestX, bestCost = r, x, cost
				}
			}
			// Row distance alone already exceeds the best cost: stop.
			if bestR >= 0 && float64(dr)*rowH > bestCost {
				break
			}
		}
		if bestR < 0 {
			// Core is over-capacity; leave the cell at its global position.
			continue
		}
		inst.X = bestX
		inst.Y = core.Y0 + float64(bestR)*rowH
		inst.Placed = true
		cursor[bestR] = bestX + inst.Master.Width
	}
}

// LegalReport counts the legality violations CheckLegal finds among the
// movable standard cells: cells off a row, off the site grid, overlapping a
// neighbour, or outside the core.
type LegalReport struct {
	OffRow   int
	OffSite  int
	Overlaps int
	Outside  int
}

// CheckLegal verifies the legality of all movable standard cells.
func CheckLegal(d *netlist.Design) LegalReport {
	var rep LegalReport
	core := d.Core
	rowH := d.RowHeight
	siteW := d.SiteWidth
	type span struct{ x0, x1 float64 }
	rows := map[int][]span{}
	for _, inst := range d.Insts {
		if inst.Fixed || inst.Master.Class == netlist.ClassMacro {
			continue
		}
		ry := (inst.Y - core.Y0) / rowH
		if math.Abs(ry-math.Round(ry)) > 1e-6 {
			rep.OffRow++
		}
		sx := (inst.X - core.X0) / siteW
		if math.Abs(sx-math.Round(sx)) > 1e-6 {
			rep.OffSite++
		}
		if inst.X < core.X0-1e-9 || inst.X+inst.Master.Width > core.X1+1e-9 ||
			inst.Y < core.Y0-1e-9 || inst.Y+inst.Master.Height > core.Y1+1e-9 {
			rep.Outside++
		}
		r := int(math.Round(ry))
		rows[r] = append(rows[r], span{inst.X, inst.X + inst.Master.Width})
	}
	for _, spans := range rows {
		sort.Slice(spans, func(i, j int) bool { return spans[i].x0 < spans[j].x0 })
		for i := 1; i < len(spans); i++ {
			if spans[i].x0 < spans[i-1].x1-1e-9 {
				rep.Overlaps++
			}
		}
	}
	return rep
}
