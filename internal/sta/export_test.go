package sta

// Analyzer internals for the external tests (package sta_test, which imports
// designs and so cannot be package sta).

func (a *Analyzer) Run() { a.run() }

func (a *Analyzer) ArrivalAt(id PinID) (float64, bool) { return a.arrivalAt(id) }

// LoopEdges reports how many edges build removed to open timing loops (0 on
// a loop-free design).
func (a *Analyzer) LoopEdges() int { return a.loopEdges }
