// Package fixturend is an ndsource fixture; the harness loads it under the
// faked import path ppaclust/internal/fixturend — an ordinary library
// package, where wall-clock reads, the process-global rand source, and
// map-order serialization are all findings. The approved half uses seeded
// local generators and sorted-key encoding.
package fixturend

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"
)

// Stamp reads the wall clock in a library package: flagged.
func Stamp() int64 {
	return time.Now().UnixNano() // want `ndsource: time.Now in a library package outside flow/experiments`
}

// Roll draws from the process-global auto-seeded source: flagged.
func Roll() float64 {
	return rand.Float64() // want `ndsource: package-global math/rand.Float64 draws from the process-wide auto-seeded source`
}

// DumpScores encodes straight out of a map range, baking random iteration
// order into the output: flagged.
func DumpScores(w io.Writer, scores map[string]float64) error {
	enc := json.NewEncoder(w)
	for name, s := range scores { // want `ndsource: map iteration order is random and this range body feeds encoding/json \(Encode\)`
		if err := enc.Encode(map[string]float64{name: s}); err != nil {
			return err
		}
	}
	return nil
}

// PrintScores writes through fmt.Fprintf from a map range: flagged.
func PrintScores(w io.Writer, scores map[string]float64) {
	for name, s := range scores { // want `ndsource: map iteration order is random and this range body writes through fmt.Fprintf`
		fmt.Fprintf(w, "%s %v\n", name, s)
	}
}

// SeededRoll constructs a locally seeded generator: approved.
func SeededRoll(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	return rng.Float64()
}

// SortedDump collects, sorts, then encodes in sorted order: approved.
func SortedDump(w io.Writer, scores map[string]float64) error {
	names := make([]string, 0, len(scores))
	for name := range scores {
		names = append(names, name)
	}
	sort.Strings(names)
	enc := json.NewEncoder(w)
	for _, name := range names {
		if err := enc.Encode(map[string]float64{name: scores[name]}); err != nil {
			return err
		}
	}
	return nil
}

// Accumulate sums integers out of a map range — order-independent and not
// serialized output: silent.
func Accumulate(scores map[string]int) int {
	total := 0
	for _, s := range scores {
		total += s
	}
	return total
}

// SuppressedStamp demonstrates a written-reason suppression: silent.
func SuppressedStamp() int64 {
	return time.Now().UnixNano() //ppalint:ignore ndsource fixture: debug-only timestamp, never compared across runs
}
