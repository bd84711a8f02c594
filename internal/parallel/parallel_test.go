package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestProcsNormalization(t *testing.T) {
	if got := Procs(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Procs(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Procs(-5); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Procs(-5) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	for _, p := range []int{1, 2, 7, 64} {
		if got := Procs(p); got != p {
			t.Errorf("Procs(%d) = %d", p, got)
		}
	}
}

func TestGrainBounds(t *testing.T) {
	if g := Grain(0, 4, 1); g != 1 {
		t.Errorf("Grain(0,4,1) = %d, want 1", g)
	}
	if g := Grain(1000, 4, 1); g != 1000/(4*chunksPerWorker) {
		t.Errorf("Grain(1000,4,1) = %d", g)
	}
	if g := Grain(10, 4, 64); g != 64 {
		t.Errorf("Grain(10,4,64) = %d, want minGrain 64", g)
	}
	if g := Grain(100, 4, 0); g < 1 {
		t.Errorf("Grain must be >= 1, got %d", g)
	}
}

// forCoversRange checks that For tiles [0, n) exactly once for a given
// procs/grain combination.
func forCoversRange(t *testing.T, procs, n, grain int) {
	t.Helper()
	touched := make([]int32, n)
	For(procs, n, grain, func(lo, hi int) {
		if lo < 0 || hi > n || lo > hi {
			t.Errorf("bad range [%d,%d) for n=%d", lo, hi, n)
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&touched[i], 1)
		}
	})
	for i, c := range touched {
		if c != 1 {
			t.Fatalf("procs=%d n=%d grain=%d: index %d touched %d times", procs, n, grain, i, c)
		}
	}
}

func TestForCoversExactlyOnce(t *testing.T) {
	for _, procs := range []int{1, 2, 3, 8} {
		for _, n := range []int{0, 1, 2, 7, 63, 64, 65, 1000, 4096} {
			for _, grain := range []int{0, 1, 7, 64, 5000} {
				forCoversRange(t, procs, n, grain)
			}
		}
	}
}

func TestForZeroAndNegativeN(t *testing.T) {
	called := false
	For(4, 0, 0, func(lo, hi int) { called = true })
	For(4, -3, 0, func(lo, hi int) { called = true })
	if called {
		t.Error("For must not invoke body for n <= 0")
	}
}

func TestForSequentialWhenProcs1(t *testing.T) {
	// With procs=1 the body must be called exactly once with the full range.
	var calls int
	For(1, 100, 10, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 100 {
			t.Errorf("procs=1 got range [%d,%d)", lo, hi)
		}
	})
	if calls != 1 {
		t.Errorf("procs=1: %d calls, want 1", calls)
	}
}

func TestForSum(t *testing.T) {
	const n = 100000
	var sum atomic.Int64
	For(8, n, 0, func(lo, hi int) {
		local := int64(0)
		for i := lo; i < hi; i++ {
			local += int64(i)
		}
		sum.Add(local)
	})
	want := int64(n) * (n - 1) / 2
	if sum.Load() != want {
		t.Errorf("sum = %d, want %d", sum.Load(), want)
	}
}

func TestForEach(t *testing.T) {
	const n = 1000
	seen := make([]int32, n)
	ForEach(4, n, 0, func(i int) { atomic.AddInt32(&seen[i], 1) })
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d seen %d times", i, c)
		}
	}
}

func TestForPropertyQuick(t *testing.T) {
	f := func(nRaw uint16, grainRaw uint8, procsRaw uint8) bool {
		n := int(nRaw) % 2000
		grain := int(grainRaw) % 100
		procs := int(procsRaw)%8 + 1
		var count atomic.Int64
		For(procs, n, grain, func(lo, hi int) {
			count.Add(int64(hi - lo))
		})
		return count.Load() == int64(max(n, 0))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRunAll(t *testing.T) {
	for _, procs := range []int{1, 4} {
		var a, b, c atomic.Bool
		Run(procs,
			func() { a.Store(true) },
			func() { b.Store(true) },
			func() { c.Store(true) },
		)
		if !a.Load() || !b.Load() || !c.Load() {
			t.Errorf("procs=%d: not all functions ran", procs)
		}
	}
}

func TestRunEmptyAndSingle(t *testing.T) {
	Run(4) // must not panic
	ran := false
	Run(4, func() { ran = true })
	if !ran {
		t.Error("single function did not run")
	}
}

func TestLimiterNilSafe(t *testing.T) {
	var l *Limiter
	if l.Parallel() {
		t.Error("nil limiter must report sequential")
	}
	order := []int{}
	l.Join(func() { order = append(order, 1) }, func() { order = append(order, 2) })
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Errorf("nil limiter Join order = %v", order)
	}
	l.JoinAll(func() { order = append(order, 3) })
	if len(order) != 3 {
		t.Error("nil limiter JoinAll did not run fn")
	}
}

func TestNewLimiterSequential(t *testing.T) {
	if l := NewLimiter(1); l != nil {
		t.Error("NewLimiter(1) should be nil (sequential)")
	}
	if l := NewLimiter(4); l == nil {
		t.Error("NewLimiter(4) should be non-nil")
	}
}

func TestLimiterJoinRunsBoth(t *testing.T) {
	l := NewLimiter(4)
	var a, b atomic.Bool
	l.Join(func() { a.Store(true) }, func() { b.Store(true) })
	if !a.Load() || !b.Load() {
		t.Error("Join did not run both branches")
	}
}

func TestLimiterDeepRecursion(t *testing.T) {
	// A full binary recursion far deeper than the token count must not
	// deadlock and must visit every leaf exactly once.
	l := NewLimiter(4)
	var leaves atomic.Int64
	var rec func(depth int)
	rec = func(depth int) {
		if depth == 0 {
			leaves.Add(1)
			return
		}
		l.Join(func() { rec(depth - 1) }, func() { rec(depth - 1) })
	}
	rec(12)
	if got := leaves.Load(); got != 1<<12 {
		t.Errorf("leaves = %d, want %d", got, 1<<12)
	}
}

func TestLimiterJoinAll(t *testing.T) {
	l := NewLimiter(3)
	const n = 50
	var count atomic.Int64
	fns := make([]func(), n)
	for i := range fns {
		fns[i] = func() { count.Add(1) }
	}
	l.JoinAll(fns...)
	if count.Load() != n {
		t.Errorf("JoinAll ran %d of %d functions", count.Load(), n)
	}
}

func BenchmarkForOverhead(b *testing.B) {
	data := make([]int64, 1<<16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		For(0, len(data), 0, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				data[j]++
			}
		})
	}
}

func BenchmarkLimiterForkJoinTree(b *testing.B) {
	l := NewLimiter(0)
	var rec func(depth int)
	rec = func(depth int) {
		if depth == 0 {
			return
		}
		l.Join(func() { rec(depth - 1) }, func() { rec(depth - 1) })
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec(10)
	}
}
