package flow

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"ppaclust/internal/features"
	"ppaclust/internal/netlist"
	"ppaclust/internal/vpr"
)

func featOptions(seed int64) features.Options {
	return features.Options{Seed: seed}
}

// BuildClusteredDesign contracts a design under a cluster assignment into a
// new design with one instance per cluster (Algorithm 1 line 10, plus the
// cluster .lef models of line 13). Each cluster's footprint comes from its
// selected shape; fixed instances (preplaced macros) contribute no area, as
// they do not move with their cluster. Parallel inter-cluster nets merge
// with accumulated weight, which is what makes seed placement fast.
//
// It returns the clustered design and, per cluster, the instance ID of its
// cluster cell. The assignment must cover every instance of d with a
// cluster id in [0, nClusters); a malformed assignment is an error, not a
// panic, so flow callers can surface it with design context.
func BuildClusteredDesign(d *netlist.Design, assign []int, nClusters int,
	shapes map[int]vpr.Shape) (*netlist.Design, []int, error) {

	if len(assign) != len(d.Insts) {
		return nil, nil, fmt.Errorf("clusterize %s: assignment covers %d of %d instances",
			d.Name, len(assign), len(d.Insts))
	}
	for inst, c := range assign {
		if c < 0 || c >= nClusters {
			return nil, nil, fmt.Errorf("clusterize %s: instance %s assigned to cluster %d of %d",
				d.Name, d.Insts[inst].Name, c, nClusters)
		}
	}

	lib := netlist.NewLibrary("clusters")
	cd := netlist.NewBuilder(d.Name+"_clustered", lib)
	cd.Die, cd.Core = d.Die, d.Core
	cd.RowHeight, cd.SiteWidth = d.RowHeight, d.SiteWidth

	area := make([]float64, nClusters)
	for inst, c := range assign {
		if d.Insts[inst].Fixed {
			continue
		}
		area[c] += d.Insts[inst].Master.Area()
	}
	clusterInsts := make([]int, nClusters)
	for c := 0; c < nClusters; c++ {
		shape, ok := shapes[c]
		if !ok {
			shape = vpr.UniformShape
		}
		a := area[c] / shape.Utilization
		if a < 1 {
			a = 1
		}
		w := math.Sqrt(a / shape.AspectRatio)
		h := w * shape.AspectRatio
		m := &netlist.Master{
			Name:   fmt.Sprintf("CLUST_%d", c),
			Class:  netlist.ClassCore,
			Width:  w,
			Height: h,
		}
		m.AddPin(netlist.MasterPin{Name: "P", Dir: netlist.DirInout})
		if err := lib.AddMaster(m); err != nil {
			return nil, nil, fmt.Errorf("clusterize %s: cluster master %d: %w", d.Name, c, err)
		}
		clusterInsts[c] = cd.AddInstance(fmt.Sprintf("clust_%d", c), m).ID
	}

	// Ports carry over verbatim.
	for _, p := range d.Ports {
		np := cd.AddPort(p.Name, p.Dir)
		np.X, np.Y, np.Placed = p.X, p.Y, p.Placed
	}

	// Contract nets, merging parallels. A net's ports keep their order by
	// name; cd's port i is d's port i.
	merged := map[string]*netlist.Net{}
	var kb []byte
	for _, n := range d.Nets {
		clusterSet := map[int]bool{}
		var ports []int
		for _, pr := range n.Pins {
			if pr.IsPort() {
				ports = append(ports, pr.Pin)
				continue
			}
			clusterSet[assign[pr.Inst]] = true
		}
		if len(clusterSet)+len(ports) < 2 || len(clusterSet) == 0 {
			continue
		}
		cids := make([]int, 0, len(clusterSet))
		for c := range clusterSet {
			cids = append(cids, c)
		}
		sort.Ints(cids)
		slices.SortFunc(ports, func(a, b int) int { return strings.Compare(d.Ports[a].Name, d.Ports[b].Name) })
		kb = kb[:0]
		for _, c := range cids {
			kb = append(kb, fmt.Sprintf("c%d,", c)...)
		}
		for _, p := range ports {
			kb = append(kb, fmt.Sprintf("p%d,", p)...)
		}
		k := string(kb)
		if ex, ok := merged[k]; ok {
			ex.Weight += n.Weight
			continue
		}
		nn := cd.AddNet(fmt.Sprintf("cn%d", len(cd.Nets)))
		nn.Weight = n.Weight
		nn.Clock = n.Clock
		for _, c := range cids {
			cd.Connect(nn, netlist.PinRef{Inst: clusterInsts[c]}) // pin 0, "P"
		}
		for _, p := range ports {
			cd.Connect(nn, netlist.PinRef{Inst: -1, Pin: p})
		}
		merged[k] = nn
	}
	built, err := cd.Build()
	if err != nil {
		return nil, nil, fmt.Errorf("clusterize %s: %w", d.Name, err)
	}
	return built, clusterInsts, nil
}
