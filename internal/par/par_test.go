package par

import (
	"os"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Fatalf("explicit request: got %d want 3", got)
	}
	t.Setenv(EnvWorkers, "5")
	if got := Workers(0); got != 5 {
		t.Fatalf("env request: got %d want 5", got)
	}
	t.Setenv(EnvWorkers, "bogus")
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("bad env should fall back to GOMAXPROCS, got %d", got)
	}
	os.Unsetenv(EnvWorkers)
	if got := Workers(-2); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("negative request should fall back to GOMAXPROCS, got %d", got)
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 13} {
		for _, n := range []int{0, 1, 7, 1000} {
			counts := make([]int32, n)
			ForEach(workers, n, func(i int) { atomic.AddInt32(&counts[i], 1) })
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, c)
				}
			}
		}
	}
}

func TestBlocksPartitionContiguous(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		n := 100
		covered := make([]int32, n)
		var calls atomic.Int32
		Blocks(workers, n, func(w, lo, hi int) {
			calls.Add(1)
			if lo > hi || lo < 0 || hi > n {
				t.Errorf("bad block [%d,%d)", lo, hi)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&covered[i], 1)
			}
		})
		want := workers
		if want > n {
			want = n
		}
		if int(calls.Load()) != want {
			t.Fatalf("workers=%d: %d blocks, want %d", workers, calls.Load(), want)
		}
		for i, c := range covered {
			if c != 1 {
				t.Fatalf("workers=%d: index %d covered %d times", workers, i, c)
			}
		}
	}
}

func TestPanicPropagation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Fatalf("workers=%d: recovered %v, want boom", workers, r)
				}
			}()
			ForEach(workers, 100, func(i int) {
				if i == 37 {
					panic("boom")
				}
			})
		}()
	}
}
