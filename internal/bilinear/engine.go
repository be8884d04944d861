package bilinear

import (
	"context"
	"fmt"
	"runtime/trace"

	"abmm/internal/kernel"
	"abmm/internal/matrix"
	"abmm/internal/obs"
	"abmm/internal/parallel"
	"abmm/internal/pool"
)

// Options controls execution of the recursive bilinear engine.
type Options struct {
	// Workers is the degree of parallelism; 0 means GOMAXPROCS. With
	// more than one worker the top node's R products run concurrently,
	// each subtree recursing depth-first on max(1, Workers/R) workers
	// while the top node's encode and decode use all of them: one
	// breadth-first step above a depth-first recursion. With one worker
	// the whole recursion runs on the calling goroutine.
	Workers int
	// Recorder, when non-nil, receives ExecInto's base-case pack/kernel
	// phase spans. Only _perfbench/replay.go sets it; it goes with
	// ExecInto once that replay calls ExecIntoCancel.
	Recorder obs.Recorder
}

func (o Options) workers() int { return parallel.Resolve(o.Workers) }

// Engine executes the recursive bilinear phase of one algorithm at one
// recursion depth. An Engine is immutable after construction and safe
// for concurrent ExecIntoCancel calls; core.Plan builds one per
// compiled plan and reuses it for every execution of that shape.
//
// Every recursion step runs the spec's CSE-compiled encode and decode
// programs around its R products, except the last, which folds them
// into the base-case kernel's packing and write-out (see fused.go).
type Engine struct {
	s       *Spec
	workers int
	levels  int
	// rec is Options.Recorder, which only ExecInto reads.
	rec obs.Recorder
	// unfused runs the last recursion level as an ordinary scheduled
	// step over kernel.Mul leaves. Only the test reference the fused
	// step is checked against sets it (export_test.go).
	unfused bool
	// regionNames[level] names the runtime/trace region of a recursion
	// node at that level (level counts down toward the base case at 0).
	regionNames []string
}

// NewEngine compiles the execution state for running spec s at the
// given depth: resolved workers, the spec's linear-phase programs, and
// the per-level trace region names. The returned Engine is reusable
// and concurrency-safe.
func NewEngine(s *Spec, opt Options, levels int) *Engine {
	if levels < 0 {
		panic("bilinear: negative recursion depth")
	}
	e := &Engine{s: s, workers: opt.workers(), levels: levels, rec: opt.Recorder}
	e.regionNames = make([]string, levels+1)
	for l := 1; l <= levels; l++ {
		e.regionNames[l] = fmt.Sprintf("bilinear.L%d", l)
	}
	s.Programs() // compile once before any parallel execution
	return e
}

// ExecInto is ExecIntoCancel with no cancellation, reporting to
// Options.Recorder. Only _perfbench/replay.go calls it; it goes, with
// Options.Recorder and Engine.rec, once that replay calls
// ExecIntoCancel.
//
//abmm:hotpath
func (e *Engine) ExecInto(c, a, b *matrix.Matrix, al *pool.Arena) {
	e.ExecIntoCancel(c, a, b, al, nil, e.rec)
}

// ExecIntoCancel runs the engine's recursion on stacked operands (a
// with branching D_U, b with D_V, either possibly basis-transformed),
// writing the stacked product, branching D_W, into c; c's prior
// contents are ignored. Scratch is drawn from al; with a warm
// pool.Arena and one worker the call allocates nothing. Every leaf
// GEMM reports its pack and kernel spans to rec (nil records nothing).
// The recursion polls done at every node, leaves included (one
// non-blocking receive per node), and once it is closed abandons the
// remaining subtree, leaving c unspecified; scratch accounting stays
// balanced, so the arena remains reusable. A nil done never fires.
//
//abmm:hotpath
func (e *Engine) ExecIntoCancel(c, a, b *matrix.Matrix, al *pool.Arena, done <-chan struct{}, rec obs.Recorder) {
	s, levels := e.s, e.levels
	du, dv, dw := ipow(s.DU(), levels), ipow(s.DV(), levels), ipow(s.DW(), levels)
	if a.Rows%du != 0 || b.Rows%dv != 0 {
		panic(fmt.Sprintf("bilinear: operand rows %d/%d not divisible by branching %d/%d", a.Rows, b.Rows, du, dv))
	}
	if a.Cols != b.Rows/dv {
		panic(fmt.Sprintf("bilinear: base blocks %dx%d · %dx%d do not conform",
			a.Rows/du, a.Cols, b.Rows/dv, b.Cols))
	}
	if c.Rows != dw*(a.Rows/du) || c.Cols != b.Cols {
		panic(fmt.Sprintf("bilinear: output %dx%d, want %dx%d", c.Rows, c.Cols, dw*(a.Rows/du), b.Cols))
	}
	e.recurse(c, a, b, levels, al, done, rec)
}

func (e *Engine) recurse(c, a, b *matrix.Matrix, level int, al *pool.Arena, done <-chan struct{}, rec obs.Recorder) {
	// Cooperative cancellation: one non-blocking receive per recursion
	// node (base cases included — a leaf is still a whole classical
	// block multiply, not an element). Bailing here, before any scratch
	// is drawn for this node, keeps pool accounting balanced; the
	// skipped subtree leaves its output block garbage, which is fine
	// because a canceled multiplication's result is discarded by
	// contract.
	if parallel.Canceled(done) {
		return
	}
	// With the execution tracer on, every recursion node above the base
	// case emits a named region, so `go tool trace` shows the recursion
	// tree under the per-multiplication task (see internal/obs).
	if level > 0 && trace.IsEnabled() {
		// Trace regions are process-scoped; cancellation travels in
		// done, not a context, so there is no caller ctx to sever.
		//abmm:allow ctx-discipline
		defer trace.StartRegion(context.Background(), e.regionNames[level]).End()
	}
	if level == 0 {
		kernel.Mul(c, a, b, kernel.DefaultBlocking(), e.workers, al, rec)
		return
	}
	// The last recursion level collapses into fused packed-kernel calls
	// (encode during packing, decode during write-out; see fused.go).
	if level == 1 && !e.unfused {
		e.fusedStep(c, a, b, al, done, rec)
		return
	}
	e.scheduled(c, a, b, level, al, done, rec)
}

// scheduled runs one recursion step using the CSE-compiled linear-phase
// programs: all S_r and T_r are produced by the shared encode programs,
// the R products recurse (concurrently at the top node when there is
// more than one worker), and the decode program writes the output
// groups in place.
func (e *Engine) scheduled(c, a, b *matrix.Matrix, level int, al *pool.Arena, done <-chan struct{}, rec obs.Recorder) {
	s := e.s
	encA, encB, dec := s.Programs()
	ah, bh, ch := a.Rows/s.DU(), b.Rows/s.DV(), c.Rows/s.DW()
	aGroups := groupsIn(al, a, s.DU())
	bGroups := groupsIn(al, b, s.DV())
	sRun := runProgram(encA, aGroups, ah, a.Cols, nil, e.workers, al)
	tRun := runProgram(encB, bGroups, bh, b.Cols, nil, e.workers, al)
	prods := al.Mats(s.R)
	for r := range prods {
		prods[r] = al.Mat(ch, c.Cols)
	}
	if level == e.levels && e.workers > 1 {
		// Done in a separate method so its closure doesn't force sRun
		// and tRun to the heap on the single-worker path.
		e.recurseFanOut(prods, sRun.outs, tRun.outs, level, al, done, rec)
	} else {
		for r := 0; r < s.R; r++ {
			e.recurse(prods[r], sRun.outs[r], tRun.outs[r], level-1, al, done, rec)
		}
	}
	sRun.release(al)
	tRun.release(al)
	putGroups(al, aGroups)
	putGroups(al, bGroups)
	cGroups := groupsIn(al, c, s.DW())
	dRun := runProgram(dec, prods, ch, c.Cols, cGroups, e.workers, al)
	dRun.release(al)
	putGroups(al, cGroups)
	for _, p := range prods {
		al.PutMat(p)
	}
	al.PutMats(prods)
}

// recurseFanOut runs the R product recursions of the top scheduled node
// concurrently: one breadth-first step above a depth-first recursion,
// the memory-bounded hybrid of CAPS. Each product's subtree runs on an
// engine copy with max(1, workers/R) workers, so a leaf GEMM too small
// to split still keeps a core busy; it shares the compiled state.
// Products write disjoint buffers and no accumulation changes order,
// so the result is bitwise identical to the sequential loop; peak
// scratch grows by up to min(workers, R)−1 concurrent level-(L−1)
// subtrees. The closure and its goroutines allocate, and this runs
// only with more than one worker.
//
//abmm:coldpath
func (e *Engine) recurseFanOut(prods, souts, touts []*matrix.Matrix, level int, al *pool.Arena, done <-chan struct{}, rec obs.Recorder) {
	sub := *e
	sub.workers = max(1, e.workers/len(prods))
	parallel.ForChunks(len(prods), e.workers, 1, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			sub.recurse(prods[r], souts[r], touts[r], level-1, al, done, rec)
		}
	})
}

// groupsIn splits a stacked operand into its d top-level contiguous row
// groups, drawing the headers and the slice from al.
func groupsIn(al *pool.Arena, m *matrix.Matrix, d int) []*matrix.Matrix {
	h := m.Rows / d
	out := al.Mats(d)
	for i := range out {
		g := al.Hdr()
		m.ViewInto(g, i*h, 0, h, m.Cols)
		out[i] = g
	}
	return out
}

// putGroups returns a groupsIn result to al.
func putGroups(al *pool.Arena, gs []*matrix.Matrix) {
	for _, g := range gs {
		al.PutHdr(g)
	}
	al.PutMats(gs)
}
