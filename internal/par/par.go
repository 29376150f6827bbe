// Package par is the repo's shared concurrency layer: a bounded fork-join
// worker pool sized from GOMAXPROCS (or the PPACLUST_WORKERS environment
// knob) with index- and block-parallel helpers. A stage forks at most once,
// at the grain of a whole unit of its work — an axis solve, a shape
// evaluation, a GNN branch, a batch of nets, a generated leaf, a file read;
// nothing above internal/flow forks. DESIGN.md "Parallel execution" lists
// the forks and their measured numbers.
//
// Determinism contract: every helper assigns each index to exactly one
// worker and callers write only per-index slots (or per-worker private
// accumulators that they merge afterwards in a fixed order), so a forked
// result is bit-identical to the Workers=1 one.
//
// A panic inside any worker is captured and re-raised on the calling
// goroutine once all workers have stopped, so failures surface exactly as
// they would from a sequential loop.
package par

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// EnvWorkers is the environment variable consulted when a caller leaves its
// worker count at 0 ("auto"). Set PPACLUST_WORKERS=1 to run every fork
// inline.
const EnvWorkers = "PPACLUST_WORKERS"

// Workers resolves a requested worker count: a positive request wins;
// otherwise PPACLUST_WORKERS applies when set to a positive integer;
// otherwise GOMAXPROCS(0). The result is always >= 1.
func Workers(requested int) int {
	if requested > 0 {
		return requested
	}
	if s := os.Getenv(EnvWorkers); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return runtime.GOMAXPROCS(0)
}

// panicBox records the first worker panic for re-raising on the caller.
type panicBox struct {
	once sync.Once
	val  any
	set  bool
}

func (b *panicBox) capture() {
	if r := recover(); r != nil {
		b.once.Do(func() { b.val, b.set = r, true })
	}
}

func (b *panicBox) rethrow() {
	if b.set {
		panic(b.val)
	}
}

// ForEach runs fn(i) for every i in [0, n), spread over up to `workers`
// goroutines. workers <= 1 (or small n) degenerates to the plain inline
// loop. Work is handed out in contiguous chunks through an atomic cursor, so
// uneven per-index cost still balances; which worker runs an index is
// scheduling-dependent, but since fn may only touch state owned by index i
// the outcome is deterministic.
func ForEach(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	chunk := n / (workers * 8)
	if chunk < 1 {
		chunk = 1
	}
	var cursor atomic.Int64
	var box panicBox
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer box.capture()
			for {
				lo := int(cursor.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					fn(i)
				}
			}
		}()
	}
	wg.Wait()
	box.rethrow()
}

// Blocks splits [0, n) into exactly min(workers, n) contiguous blocks and
// runs fn(w, lo, hi) for block w on its own goroutine. Use it when each
// worker needs a private accumulator: merge the per-block results afterwards
// in block order to keep the reduction order fixed.
func Blocks(workers, n int, fn func(w, lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, 0, n)
		return
	}
	var box panicBox
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		lo := w * n / workers
		hi := (w + 1) * n / workers
		go func(w, lo, hi int) {
			defer wg.Done()
			defer box.capture()
			fn(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	box.rethrow()
}
