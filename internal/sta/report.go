package sta

import (
	"fmt"
	"io"
)

// WriteReport renders the worst maxPaths timing paths in the familiar
// report_checks style: per-point incremental and cumulative arrival times,
// the required time, and the slack verdict. A design with timing loops gets
// a leading line saying how many edges were disabled to open them.
func (a *Analyzer) WriteReport(w io.Writer, maxPaths int) error {
	a.run()
	if n := a.loopEdges; n > 0 {
		fmt.Fprintf(w, "Timing loops: %d edge(s) disabled to open them\n\n", n)
	}
	paths := a.TopPaths(maxPaths)
	if len(paths) == 0 {
		_, err := fmt.Fprintln(w, "No constrained paths.")
		return err
	}
	for pi, p := range paths {
		fmt.Fprintf(w, "Path %d: endpoint %s\n", pi+1, a.pinName(p.Endpoint))
		fmt.Fprintf(w, "%12s %12s  %s\n", "Delay", "Time", "Point")
		prev := 0.0
		first := true
		for _, pin := range p.Pins {
			at, ok := a.arrivalAt(pin)
			if !ok {
				continue
			}
			incr := at - prev
			if first {
				incr = at
				first = false
			}
			fmt.Fprintf(w, "%12.1f %12.1f  %s\n", incr*1e12, at*1e12, a.pinName(pin))
			prev = at
		}
		rat := prev + p.Slack
		fmt.Fprintf(w, "%12s %12.1f  data required time\n", "", rat*1e12)
		verdict := "MET"
		if p.Slack < 0 {
			verdict = "VIOLATED"
		}
		fmt.Fprintf(w, "%12s %12.1f  slack (%s)\n\n", "", p.Slack*1e12, verdict)
	}
	sum := a.Timing()
	_, err := fmt.Fprintf(w, "wns %.1f ps   tns %.3f ns   %d/%d endpoints failing\n",
		sum.WNS*1e12, sum.TNS*1e9, sum.Failing, sum.Endpoints)
	return err
}

func (a *Analyzer) pinName(id PinID) string {
	if id.Inst < 0 {
		return "port " + id.Pin
	}
	return a.d.Insts[id.Inst].Name + "/" + id.Pin + " (" + a.d.Insts[id.Inst].Master.Name + ")"
}
