package bilinear

import (
	"context"
	"fmt"
	"runtime/trace"
	"sync"

	"abmm/internal/kernel"
	"abmm/internal/matrix"
	"abmm/internal/obs"
	"abmm/internal/parallel"
	"abmm/internal/pool"
)

// Options controls execution of the recursive bilinear engine.
type Options struct {
	// Workers is the degree of parallelism; 0 means GOMAXPROCS.
	Workers int
	// TaskParallel selects the task-parallel schedule: the R recursive
	// products of the top recursion levels run as limiter-bounded
	// concurrent tasks with sequential kernels. The default schedule
	// instead runs only the top node's R products concurrently, each
	// subtree recursing depth-first on max(1, Workers/R) workers while
	// the top node's encode and decode use all of them: one
	// breadth-first step above a depth-first recursion. The task
	// schedule uses more memory (R product buffers per parallel node)
	// and serves as an ablation point.
	TaskParallel bool
	// Direct disables the CSE-compiled linear-phase programs and
	// executes each encoding/decoding combination independently. This
	// uses less memory (three scratch blocks per recursion level) but
	// performs the raw operator addition counts with no sharing — e.g.
	// 24 instead of 15 additions per step for Winograd's variant. It
	// serves as the memory-lean mode and as an ablation point.
	Direct bool
	// Recorder, when non-nil, receives task spawn/inline events from
	// the task-parallel schedules and nested pack/kernel phase spans
	// from the base-case kernel; nil disables recording at zero cost.
	Recorder obs.Recorder
	// Kernel carries the packed base-case kernel's cache-blocking
	// parameters; the zero value selects kernel.DefaultBlocking.
	Kernel kernel.Blocking
	// NoFuse disables the fused leaf step: the last recursion level runs
	// the ordinary materialize-then-multiply schedule instead of folding
	// the encode/decode combinations into the kernel's pack and
	// write-out passes. Ablation and bisection aid; the fused step is
	// the default.
	NoFuse bool
}

func (o Options) workers() int { return parallel.Resolve(o.Workers) }

// Exec multiplies two operands in stacked layout: a must be the
// ToRecursive image (branching D_U, depth levels) of the left operand
// possibly followed by a basis transformation, and b likewise with
// branching D_V. It returns the stacked product with branching D_W,
// which for a standard-basis spec is the ToRecursive image of C = A·B.
func Exec(s *Spec, a, b *matrix.Matrix, levels int, opt Options) *matrix.Matrix {
	e := NewEngine(s, opt, levels)
	du, dw := ipow(s.DU(), levels), ipow(s.DW(), levels)
	c := matrix.New(dw*(a.Rows/du), b.Cols)
	e.ExecInto(c, a, b, pool.Global)
	return c
}

// Engine executes the recursive bilinear phase of one algorithm at one
// recursion depth. An Engine is immutable after construction and safe
// for concurrent ExecInto calls; core.Plan builds one per compiled plan
// and reuses it for every execution of that shape.
type Engine struct {
	s             *Spec
	workers       int
	kernelWorkers int
	// taskMinLevel is the lowest recursion level (counting down toward
	// the base case at 0) at which products are still spawned as tasks;
	// 0 disables task parallelism entirely.
	taskMinLevel int
	limiter      *parallel.Limiter
	direct       bool
	// mixed, when non-nil, selects a different spec per level
	// (non-stationary recursion): mixed[0] at the top level.
	mixed  []*Spec
	levels int
	cols   map[*Spec]*specCols
	rec    obs.Recorder
	// kb is the base-case kernel blocking; fuse selects the fused leaf
	// step at level 1 (see fused.go).
	kb   kernel.Blocking
	fuse bool
	// regionNames[level] names the runtime/trace region of a recursion
	// node at that level (level counts down toward the base case at 0).
	regionNames []string
}

// specCols caches the encoding coefficient columns of a spec.
type specCols struct {
	u, v [][]float64
}

// specAt returns the algorithm for a recursion level (levels counts
// down toward the base case at 0).
func (e *Engine) specAt(level int) *Spec {
	if e.mixed == nil {
		return e.s
	}
	return e.mixed[e.levels-level]
}

// register caches the encoding columns of a spec. Registration happens
// only at construction (NewEngine, ExecMixed), before the engine is
// shared; colsOf is the read-only execution-time lookup, so concurrent
// ExecInto calls never write e.cols.
func (e *Engine) register(s *Spec) {
	if _, ok := e.cols[s]; ok {
		return
	}
	e.cols[s] = &specCols{u: columns(s.uF), v: columns(s.vF)}
}

// colsOf returns the encoding columns of a spec registered at
// construction. It is read-only and safe under concurrency; an
// unregistered spec is a construction bug, not a recoverable state.
func (e *Engine) colsOf(s *Spec) *specCols {
	c, ok := e.cols[s]
	if !ok {
		panic("bilinear: spec not registered with engine at construction")
	}
	return c
}

// NewEngine compiles the execution state for running spec s at the
// given depth: resolved workers, the task-spawning depth, compiled
// linear-phase programs, and the per-spec coefficient columns. The
// returned Engine is reusable and concurrency-safe.
func NewEngine(s *Spec, opt Options, levels int) *Engine {
	if levels < 0 {
		panic("bilinear: negative recursion depth")
	}
	e := &Engine{
		s: s, workers: opt.workers(), kernelWorkers: opt.workers(),
		direct: opt.Direct, rec: opt.Recorder, kb: opt.Kernel, fuse: !opt.NoFuse,
	}
	e.regionNames = make([]string, levels+1)
	for l := 1; l <= levels; l++ {
		e.regionNames[l] = fmt.Sprintf("bilinear.L%d", l)
	}
	if !e.direct {
		s.Programs() // compile once before any parallel execution
	}
	if opt.TaskParallel {
		// Spawn tasks on the top levels until R^depth covers ~4 tasks
		// per worker, then recurse sequentially with serial kernels.
		want := 4 * e.workers
		depth, span := 0, 1
		for span < want && depth < levels {
			span *= s.R
			depth++
		}
		e.taskMinLevel = levels - depth + 1
		if e.taskMinLevel < 1 {
			e.taskMinLevel = 1
		}
		e.limiter = parallel.NewLimiter(4 * e.workers)
		e.kernelWorkers = 1
	}
	e.levels = levels
	e.cols = make(map[*Spec]*specCols, 1)
	e.register(s)
	return e
}

// WithRecorder returns an engine identical to e but reporting to rec —
// a shallow copy sharing the compiled state (coefficient columns,
// limiter, programs), so it costs one small allocation, not a
// recompile. The serving layer uses it to attach a per-request trace
// recorder to a cached plan's engine for a single execution. Returns e
// itself when rec is already its recorder.
func (e *Engine) WithRecorder(rec obs.Recorder) *Engine {
	if e == nil || rec == e.rec {
		return e
	}
	e2 := *e
	e2.rec = rec
	return &e2
}

func columns(m *matrix.Matrix) [][]float64 {
	out := make([][]float64, m.Cols)
	for r := range out {
		col := make([]float64, m.Rows)
		for i := range col {
			col[i] = m.At(i, r)
		}
		out[r] = col
	}
	return out
}

// ExecInto runs the engine's recursion, writing the stacked product
// into c. Scratch is drawn from al; with a warm pool.Arena the call
// performs no heap allocation on the default (scheduled) path with one
// worker. c must be fully writable scratch or output — its prior
// contents are ignored.
//
//abmm:hotpath
func (e *Engine) ExecInto(c, a, b *matrix.Matrix, al pool.Allocator) {
	e.ExecIntoCancel(c, a, b, al, nil)
}

// ExecIntoCancel is ExecInto with a cooperative cancellation token: the
// recursion polls cn at every node boundary (one atomic load; no
// per-element or per-leaf cost) and abandons the remaining subtree once
// cn is set, leaving c in an unspecified state. Scratch accounting stays
// balanced on the abandoned path, so the arena remains reusable. A nil
// cn is valid and makes this identical to ExecInto.
//
//abmm:hotpath
func (e *Engine) ExecIntoCancel(c, a, b *matrix.Matrix, al pool.Allocator, cn *parallel.Cancel) {
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
	e.recurse(c, a, b, levels, al, cn)
}

func (e *Engine) recurse(c, a, b *matrix.Matrix, level int, al pool.Allocator, cn *parallel.Cancel) {
	// Cooperative cancellation: one nil-check-plus-atomic-load per
	// recursion node (base cases included — a leaf is still a whole
	// classical block multiply, not an element). Bailing here, before
	// any scratch is drawn for this node, keeps pool accounting
	// balanced; the skipped subtree leaves its output block garbage,
	// which is fine because a canceled multiplication's result is
	// discarded by contract.
	if cn.Canceled() {
		return
	}
	// With the execution tracer on, every recursion node above the base
	// case emits a named region, so `go tool trace` shows the recursion
	// tree under the per-multiplication task (see internal/obs).
	if level > 0 && trace.IsEnabled() {
		// Trace regions are process-scoped; cancellation travels in cn,
		// not a context, so there is no caller ctx to sever.
		//abmm:allow ctx-discipline
		defer trace.StartRegion(context.Background(), e.regionNames[level]).End()
	}
	if level == 0 {
		kernel.Mul(c, a, b, e.kb, e.kernelWorkers, al, e.rec)
		return
	}
	// The last recursion level collapses into fused packed-kernel calls
	// (encode during packing, decode during write-out; see fused.go).
	// This holds for every schedule — task-parallel runs spawn their
	// tasks at levels >= 2 and each subtree bottoms out here — so the
	// bitwise result is schedule-independent, as the determinism tests
	// pin.
	if level == 1 && e.fuse {
		e.fusedStep(c, a, b, al, cn)
		return
	}
	if !e.direct {
		e.scheduled(c, a, b, level, al, cn)
		return
	}
	if e.limiter != nil && level >= e.taskMinLevel {
		e.taskParallel(c, a, b, level, al, cn)
		return
	}
	e.sequential(c, a, b, level, al, cn)
}

// scheduled runs one recursion step using the CSE-compiled linear-phase
// programs: all S_r and T_r are produced by the shared encode programs,
// the R products recurse (concurrently at the top node when there is
// more than one worker, and as limiter-bounded tasks on the top levels
// in task-parallel mode), and the decode program writes the output
// groups in place.
func (e *Engine) scheduled(c, a, b *matrix.Matrix, level int, al pool.Allocator, cn *parallel.Cancel) {
	s := e.specAt(level)
	encA, encB, dec := s.Programs()
	ah, bh, ch := a.Rows/s.DU(), b.Rows/s.DV(), c.Rows/s.DW()
	aGroups := groupsIn(al, a, s.DU())
	bGroups := groupsIn(al, b, s.DV())
	sRun := runProgram(encA, aGroups, ah, a.Cols, nil, e.kernelWorkers, al)
	tRun := runProgram(encB, bGroups, bh, b.Cols, nil, e.kernelWorkers, al)
	prods := al.Mats(s.R)
	for r := range prods {
		prods[r] = al.Mat(ch, c.Cols)
	}
	if e.limiter != nil && level >= e.taskMinLevel {
		// Done in a separate method so its closures don't force sRun
		// and tRun to the heap on the non-task path.
		e.recurseTasks(prods, sRun.outs, tRun.outs, level, al, cn)
	} else if level == e.levels && e.workers > 1 {
		// Same separation: the fan-out's closure stays off the
		// single-worker path.
		e.recurseFanOut(prods, sRun.outs, tRun.outs, level, al, cn)
	} else {
		for r := 0; r < s.R; r++ {
			e.recurse(prods[r], sRun.outs[r], tRun.outs[r], level-1, al, cn)
		}
	}
	sRun.release(al)
	tRun.release(al)
	putGroups(al, aGroups)
	putGroups(al, bGroups)
	cGroups := groupsIn(al, c, s.DW())
	dRun := runProgram(dec, prods, ch, c.Cols, cGroups, e.kernelWorkers, al)
	dRun.release(al)
	putGroups(al, cGroups)
	for _, p := range prods {
		al.PutMat(p)
	}
	al.PutMats(prods)
}

// recurseTasks runs the R product recursions of one scheduled node as
// limiter-bounded concurrent tasks. The task-parallel schedules are the
// opt-in, memory-hungry ablation mode: per-product task closures (and
// the goroutines behind them) allocate by design, so the zero-alloc
// guarantee covers only the default schedule.
//
//abmm:coldpath
func (e *Engine) recurseTasks(prods, souts, touts []*matrix.Matrix, level int, al pool.Allocator, cn *parallel.Cancel) {
	var wg sync.WaitGroup
	n := len(prods)
	for r := 0; r < n; r++ {
		task := func(r int) func() {
			return func() { e.recurse(prods[r], souts[r], touts[r], level-1, al, cn) }
		}(r)
		// The last product always runs inline so the spawning
		// goroutine contributes work instead of blocking.
		spawned := r != n-1 && e.limiter.TrySpawn(&wg, task)
		if e.rec != nil {
			e.rec.TaskSpawn(spawned)
		}
		if !spawned {
			task()
		}
	}
	wg.Wait()
}

// recurseFanOut runs the R product recursions of the top scheduled node
// concurrently: one breadth-first step above a depth-first recursion,
// the memory-bounded hybrid of CAPS. Each product's subtree runs on an
// engine copy with max(1, workers/R) workers, so a leaf GEMM too small
// to split still keeps a core busy. The copy is taken here, not at
// construction, so it carries this execution's recorder (WithRecorder)
// and per-level specs (ExecMixed). Products write disjoint buffers and
// no accumulation changes order, so the result is bitwise identical to
// the sequential loop; peak scratch grows by up to min(workers, R)−1
// concurrent level-(L−1) subtrees. The closure and its goroutines
// allocate, and this runs only with more than one worker.
//
//abmm:coldpath
func (e *Engine) recurseFanOut(prods, souts, touts []*matrix.Matrix, level int, al pool.Allocator, cn *parallel.Cancel) {
	sub := *e
	sub.workers = max(1, e.workers/len(prods))
	sub.kernelWorkers = sub.workers
	parallel.ForChunks(len(prods), e.workers, 1, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			sub.recurse(prods[r], souts[r], touts[r], level-1, al, cn)
		}
	})
}

// sequential is the low-memory depth-first schedule: one S, T and
// product buffer per recursion level, with products accumulated
// directly into the output groups as they are produced.
func (e *Engine) sequential(c, a, b *matrix.Matrix, level int, al pool.Allocator, cn *parallel.Cancel) {
	s := e.specAt(level)
	sc := e.colsOf(s)
	ah, bh, ch := a.Rows/s.DU(), b.Rows/s.DV(), c.Rows/s.DW()
	S := al.Mat(ah, a.Cols)
	T := al.Mat(bh, b.Cols)
	P := al.Mat(ch, c.Cols)
	aGroups := groupsIn(al, a, s.DU())
	bGroups := groupsIn(al, b, s.DV())
	cGroups := groupsIn(al, c, s.DW())
	// The touched flags live on the stack: no catalog algorithm has
	// D_W > 32, and the cold spill keeps exotic specs correct.
	var touchedBuf [32]bool
	touched := touchedBuf[:]
	if s.DW() > len(touchedBuf) {
		// Cold spill: no catalog algorithm exceeds the stack table.
		//abmm:allow hotpath-alloc
		touched = make([]bool, s.DW())
	}
	touched = touched[:s.DW()]
	for r := 0; r < s.R; r++ {
		if cn.Canceled() {
			break
		}
		matrix.LinearCombine(S, sc.u[r], aGroups, e.kernelWorkers)
		matrix.LinearCombine(T, sc.v[r], bGroups, e.kernelWorkers)
		e.recurse(P, S, T, level-1, al, cn)
		for k := 0; k < s.DW(); k++ {
			w := s.wF.At(k, r)
			if w == 0 {
				continue
			}
			if touched[k] {
				matrix.AddScaled(cGroups[k], P, w, e.kernelWorkers)
			} else {
				matrix.Scale(cGroups[k], P, w, e.kernelWorkers)
				touched[k] = true
			}
		}
	}
	for k, t := range touched {
		if !t {
			cGroups[k].Zero()
		}
	}
	putGroups(al, aGroups)
	putGroups(al, bGroups)
	putGroups(al, cGroups)
	al.PutMat(S)
	al.PutMat(T)
	al.PutMat(P)
}

// taskParallel runs the R products of this node as concurrent tasks
// when the limiter grants slots (running them inline otherwise), then
// decodes all output groups in parallel. Each task owns its S, T and
// product buffers. Like recurseTasks this is the opt-in task-parallel
// ablation mode, allocating task closures by design.
//
//abmm:coldpath
func (e *Engine) taskParallel(c, a, b *matrix.Matrix, level int, al pool.Allocator, cn *parallel.Cancel) {
	s := e.specAt(level)
	sc := e.colsOf(s)
	ah, bh, ch := a.Rows/s.DU(), b.Rows/s.DV(), c.Rows/s.DW()
	aGroups := groupsIn(al, a, s.DU())
	bGroups := groupsIn(al, b, s.DV())
	var wg sync.WaitGroup
	prods := al.Mats(s.R)
	for r := 0; r < s.R; r++ {
		prods[r] = al.Mat(ch, c.Cols)
		task := func(r int) func() {
			return func() {
				S := al.Mat(ah, a.Cols)
				T := al.Mat(bh, b.Cols)
				matrix.LinearCombine(S, sc.u[r], aGroups, 1)
				matrix.LinearCombine(T, sc.v[r], bGroups, 1)
				e.recurse(prods[r], S, T, level-1, al, cn)
				al.PutMat(S)
				al.PutMat(T)
			}
		}(r)
		// The last product always runs inline so the spawning
		// goroutine contributes work instead of blocking.
		spawned := r != s.R-1 && e.limiter.TrySpawn(&wg, task)
		if e.rec != nil {
			e.rec.TaskSpawn(spawned)
		}
		if !spawned {
			task()
		}
	}
	wg.Wait()
	cGroups := groupsIn(al, c, s.DW())
	parallel.For(s.DW(), e.workers, 1, func(k int) {
		matrix.LinearCombine(cGroups[k], s.wF.Row(k), prods, 1)
	})
	putGroups(al, aGroups)
	putGroups(al, bGroups)
	putGroups(al, cGroups)
	for _, p := range prods {
		al.PutMat(p)
	}
	al.PutMats(prods)
}

// groupsIn splits a stacked operand into its d top-level contiguous row
// groups, drawing the headers and the slice from al.
func groupsIn(al pool.Allocator, m *matrix.Matrix, d int) []*matrix.Matrix {
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
func putGroups(al pool.Allocator, gs []*matrix.Matrix) {
	for _, g := range gs {
		al.PutHdr(g)
	}
	al.PutMats(gs)
}
