package core

// Plan/execute split. Deciding how to multiply — recursion depth,
// padded dimensions, stacked-layout shapes, in-place vs out-of-place
// basis application, the bilinear engine, workspace sizing — is a
// pure function of (algorithm, m×k×n, options). A Plan performs that
// work once; MultiplyInto then only moves floats, drawing every scratch
// buffer from a per-plan arena pool so repeated same-shape calls reach
// a steady state with no allocation.

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"abmm/internal/algos"
	"abmm/internal/basis"
	"abmm/internal/bilinear"
	"abmm/internal/dd"
	"abmm/internal/kernel"
	"abmm/internal/matrix"
	"abmm/internal/obs"
	"abmm/internal/parallel"
	"abmm/internal/pool"
	"abmm/internal/reqtrace"
	"abmm/internal/stability"
)

// PlanKey identifies a plan within one Multiplier: the operand shape of
// an m×k by k×n multiplication. Algorithm and options are fixed per
// Multiplier, so they are not part of the key.
type PlanKey struct {
	M, K, N int
}

// Plan is a compiled multiplication for one (algorithm, shape, options)
// triple. It is immutable after construction and safe for concurrent
// use: every execution checks a private workspace arena out of an
// internal pool.
type Plan struct {
	alg     *algos.Algorithm
	key     PlanKey
	levels  int
	workers int

	// Padded operand dimensions: the shapes the stacked layout lays
	// out, whose top-left corners are the caller's operands.
	pm, pk, pn int

	// Stacked-layout buffer shapes. asR/bsR are the row counts as laid
	// out by ToRecursive; phiR/psiR the row counts after a
	// dimension-changing φ/ψ (equal to asR/bsR for square transforms);
	// csR the engine output rows and nuR the rows after νᵀ.
	asR, asC   int
	bsR, bsC   int
	csR, csC   int
	phiR, psiR int
	nuR        int

	// Basis transforms to apply (nil when absent or identity) and
	// whether each runs in place in the stacked scratch.
	phi, psi, nuT      *basis.Transform
	phiIP, psiIP, nuIP bool
	eng                *bilinear.Engine

	// rec is the plan's one telemetry path, Options.Recorder teed with
	// the registry slot; info carries the shape, depth, and flop
	// accountings every MulDone reports (see obs.MulInfo).
	rec  obs.Recorder
	info obs.MulInfo

	// Per-plan attribution (Options.Plans): slot is this plan's claimed
	// registry slot (nil when no registry is attached), plans the
	// registry to release it to when the plan-cache evicts this plan,
	// and desc the precomputed "alg/L<levels>/seq" identity string the
	// serving layer echoes as X-Abmm-Plan.
	slot  *obs.PlanSlot
	plans *obs.PlanRegistry
	desc  string

	// Sampled accuracy telemetry (Options.ErrorSampleEvery): every
	// sampleEvery-th execution re-multiplies through the quad-precision
	// reference and reports the measured relative error against
	// errBound, the plan's precompiled Theorem III.8 bound f(K,L)·ε.
	sampleEvery int64
	sampleTick  atomic.Int64
	errBound    float64

	arenas sync.Pool // of *pool.Arena
	bytes  atomic.Int64
}

// minBase is the smallest base-block dimension automatic level
// selection recurses down to: the overhead-vs-arithmetic crossover
// measured for an earlier, pure-Go base-case kernel.
const minBase = 512

// resolveLevels returns opt.Levels when explicit; otherwise it recurses
// while every base-block dimension stays at least minBase.
func resolveLevels(alg *algos.Algorithm, opt Options, m, k, n int) int {
	if opt.Levels >= 0 {
		return opt.Levels
	}
	s := alg.Spec
	l := 0
	for m/s.M0 >= minBase && k/s.K0 >= minBase && n/s.N0 >= minBase {
		m, k, n = m/s.M0, k/s.K0, n/s.N0
		l++
	}
	return l
}

// NewPlan compiles a plan for multiplying m×k by k×n with alg under
// opt. The returned plan is shape-specific; Multiplier maintains an LRU
// cache of these keyed by shape.
func NewPlan(alg *algos.Algorithm, opt Options, m, k, n int) *Plan {
	levels := resolveLevels(alg, opt, m, k, n)
	w := opt.workers()
	p := &Plan{
		alg:     alg,
		key:     PlanKey{M: m, K: k, N: n},
		levels:  levels,
		workers: w,
	}
	p.arenas.New = func() any { return pool.NewArena() }
	if levels == 0 {
		p.pm, p.pk, p.pn = m, k, n
		p.compileInfo()
		p.wire(opt)
		return p
	}
	s := alg.Spec
	p.pm, p.pk, p.pn = matrix.PadShape(m, k, n, s.M0, s.K0, s.N0, levels)

	ah, aw := p.pm/ipow(s.M0, levels), p.pk/ipow(s.K0, levels)
	bh, bw := p.pk/ipow(s.K0, levels), p.pn/ipow(s.N0, levels)
	ch, cw := p.pm/ipow(s.M0, levels), p.pn/ipow(s.N0, levels)
	p.asR, p.asC = ipow(s.M0*s.K0, levels)*ah, aw
	p.bsR, p.bsC = ipow(s.K0*s.N0, levels)*bh, bw
	p.csR, p.csC = ipow(s.DW(), levels)*ch, cw
	p.phiR, p.psiR, p.nuR = p.asR, p.bsR, p.csR

	if alg.Phi != nil && !alg.Phi.IsIdentity() {
		p.phi = alg.Phi
		p.phiIP = p.phi.CanApplyInPlace()
		if !p.phiIP {
			p.phiR = ipow(p.phi.D2, levels) * ah
		}
	}
	if alg.Psi != nil && !alg.Psi.IsIdentity() {
		p.psi = alg.Psi
		p.psiIP = p.psi.CanApplyInPlace()
		if !p.psiIP {
			p.psiR = ipow(p.psi.D2, levels) * bh
		}
	}
	if alg.Nu != nil && !alg.Nu.IsIdentity() {
		p.nuT = alg.Nu.Transposed()
		p.nuIP = p.nuT.CanApplyInPlace()
		if p.nuIP {
			p.nuR = p.csR
		} else {
			p.nuR = ipow(p.nuT.D2, levels) * ch
		}
	}
	p.eng = bilinear.NewEngine(s, bilinear.Options{Workers: w}, levels)
	p.compileInfo()
	p.wire(opt)
	return p
}

// wire fixes the plan's identity string and its one recorder: with a
// per-plan registry attached, the claimed slot teed with opt.Recorder.
// Runs once at compile time, after compileInfo (the slot stores the
// flop accountings). The schedule segment is always "seq", the engine's
// one recursion schedule; identities keep it so X-Abmm-Plan values and
// abmm_plan_* labels stay stable.
func (p *Plan) wire(opt Options) {
	id := obs.PlanID{
		Alg: p.alg.Name, M: p.key.M, K: p.key.K, N: p.key.N,
		Levels: p.levels, Schedule: "seq", Kernel: kernel.DefaultBlocking().Label(),
	}
	p.desc = id.Desc()
	p.rec = opt.Recorder
	if opt.Plans != nil {
		p.plans = opt.Plans
		p.slot = opt.Plans.Claim(id, p.info.ClassicalFlops, p.info.AlgFlops)
		p.rec = obs.Tee(opt.Recorder, p.slot)
	}
	if opt.ErrorSampleEvery > 0 && p.rec != nil {
		p.sampleEvery = int64(opt.ErrorSampleEvery)
	}
}

// retire releases the plan's registry slot; the plan cache calls it
// when it evicts the plan. The slot keeps its accumulated history until
// the registry reclaims it for a new identity.
func (p *Plan) retire() { p.plans.Release(p.slot) }

// compileInfo precomputes the per-multiplication report: the classical
// flop count of the caller's problem and the exact operation count of
// the compiled algorithm at the padded shape. Both are pure functions
// of the plan, so MulDone costs no arithmetic at execution time.
func (p *Plan) compileInfo() {
	m, k, n := int64(p.key.M), int64(p.key.K), int64(p.key.N)
	p.info = obs.MulInfo{
		M: p.key.M, K: p.key.K, N: p.key.N,
		Levels:         p.levels,
		ClassicalFlops: 2 * m * k * n,
		AlgFlops:       stability.ArithmeticCost(p.alg, p.pm, p.pk, p.pn, p.levels).Total(),
	}
	// The depth-aware Theorem III.8 bound of the compiled recursion
	// (valid at levels 0 too, where it reduces to the classical
	// max-norm bound), evaluated at the padded inner dimension and
	// scaled by ε = 2⁻⁵³: ‖Ĉ−C‖ ≤ errBound·‖A‖‖B‖ + O(ε²).
	p.errBound = stability.ErrorBoundKL(p.alg, float64(p.pk), p.levels) * 0x1p-53
}

// Key returns the operand shape the plan was compiled for.
func (p *Plan) Key() PlanKey { return p.key }

// Levels returns the compiled recursion depth.
func (p *Plan) Levels() int { return p.levels }

// ArenaBytes returns the high-water mark of workspace bytes held by any
// single arena of this plan.
func (p *Plan) ArenaBytes() int64 { return p.bytes.Load() }

// Desc returns the plan's identity string "alg/L<levels>/seq" —
// the form the serving layer echoes as the X-Abmm-Plan response header
// and the per-plan /metrics label.
func (p *Plan) Desc() string { return p.desc }

// ErrorBound returns the plan's precompiled forward error bound factor:
// the depth-aware Theorem III.8 bound f(K,L)·ε of the compiled
// recursion at the padded shape, such that ‖Ĉ−C‖ ≤ ErrorBound·‖A‖‖B‖ in
// max norms (to first order in ε). The serving layer reports it as
// per-request accuracy metadata.
func (p *Plan) ErrorBound() float64 { return p.errBound }

func (p *Plan) checkout() *pool.Arena { return p.arenas.Get().(*pool.Arena) }

func (p *Plan) release(ar *pool.Arena) {
	b := ar.Bytes()
	for {
		cur := p.bytes.Load()
		if b <= cur || p.bytes.CompareAndSwap(cur, b) {
			break
		}
	}
	p.arenas.Put(ar)
}

// MultiplyInto computes dst = A·B along the compiled plan. dst must be
// m×n and must not alias a or b; its prior contents are ignored and
// fully overwritten. Safe for concurrent use.
//
//abmm:hotpath
func (p *Plan) MultiplyInto(dst, a, b *matrix.Matrix) {
	p.runRec(dst, a, b, nil, p.rec)
}

// MultiplyIntoCtx is MultiplyInto under a context: the bilinear
// recursion polls ctx.Done() at every node boundary and abandons the
// remaining subtree as soon as it is closed, a basis transform not yet
// started is skipped, and ctx's error is returned. On a non-nil return,
// dst holds garbage and must be discarded, and the plan's recorder sees
// no MulDone (the execution did not complete); on a nil return dst
// holds the full product. Cancellation granularity is one recursion
// node — a level-0 plan (no recursion) runs to completion.
//
// When ctx carries a reqtrace.Trace, the execution's phase events are
// teed to it alongside the plan's own recorder, so the request's span
// tree shows the Algorithm 1 pipeline without rebuilding the plan. A
// warm untraced call allocates nothing, with a background or a
// cancelable ctx alike; attaching a trace allocates the tee (pinned by
// TestMultiplyIntoCtxZeroAllocUntraced).
//
//abmm:coldpath
func (p *Plan) MultiplyIntoCtx(ctx context.Context, dst, a, b *matrix.Matrix) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	rec := p.rec
	tr := reqtrace.FromContext(ctx)
	if tr != nil {
		rec = obs.Tee(p.rec, tr)
	}
	var t0 time.Time
	if tr != nil && p.slot != nil {
		t0 = time.Now()
	}
	p.runRec(dst, a, b, ctx.Done(), rec)
	err := ctx.Err()
	// A completed traced execution becomes a plan exemplar: /debug/plans
	// links the slot's slowest and most recent trace IDs into the
	// /debug/requests span viewer. Canceled executions are skipped — a
	// truncated duration would win the "slowest" slot meaninglessly.
	if tr != nil && p.slot != nil && err == nil {
		id := tr.ID()
		p.slot.ExemplarTrace(id.Hi, id.Lo, time.Since(t0))
	}
	return err
}

// runRec is the execution body with the done channel and the
// execution's one recorder as parameters: MultiplyInto passes nil and
// the plan's own, MultiplyIntoCtx the context's Done channel and, when
// traced, a per-request tee.
//
//abmm:hotpath
func (p *Plan) runRec(dst, a, b *matrix.Matrix, done <-chan struct{}, rec obs.Recorder) {
	if a.Rows != p.key.M || a.Cols != p.key.K || b.Rows != p.key.K || b.Cols != p.key.N {
		panic(fmt.Sprintf("core: plan compiled for %dx%d·%dx%d got %dx%d·%dx%d",
			p.key.M, p.key.K, p.key.K, p.key.N, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != p.key.M || dst.Cols != p.key.N {
		panic(matrix.ErrShape)
	}
	ms := obs.StartMul(rec, p.info)
	ar := p.checkout()
	var c0 pool.Counters
	if rec != nil {
		c0 = ar.Counters()
	}
	if p.levels == 0 {
		// A level-0 plan is one packed-kernel call; the arena supplies
		// the panel workspace so repeated calls stay allocation-free.
		ps := ms.StartPhase(obs.PhaseBilinear)
		kernel.Mul(dst, a, b, kernel.DefaultBlocking(), p.workers, ar, rec)
		ps.End()
	} else {
		p.stages(dst, a, b, done, ms, rec, ar)
	}
	// One epilogue at every depth, reaching every sink of rec.
	if rec != nil {
		c1 := ar.Counters()
		rec.ArenaRelease(obs.ArenaUsage{
			AllocBytes:     c1.AllocBytes,
			HighWaterBytes: c1.HighWaterBytes,
			RequestedBytes: c1.RequestedBytes - c0.RequestedBytes,
			ReusedBytes:    c1.ReusedBytes - c0.ReusedBytes,
		})
	}
	p.release(ar)
	// A canceled execution is not a completed multiplication: dst holds
	// garbage, so it reports no MulDone (rates and latency histograms
	// count finished work only) and is never error-sampled.
	if parallel.Canceled(done) {
		ms.Abandon()
		return
	}
	ms.End()
	p.maybeSampleError(dst, a, b, rec)
}

// stages runs Algorithm 1's pipeline of a recursive plan (levels ≥ 1),
// each stage under its phase span of ms and the engine's leaf GEMMs
// reporting to rec, with all scratch from ar. Once done is closed the
// engine abandons its recursion and the basis transforms not yet
// started are skipped.
//
//abmm:hotpath
func (p *Plan) stages(dst, a, b *matrix.Matrix, done <-chan struct{}, ms obs.MulSpan, rec obs.Recorder, ar *pool.Arena) {
	w := p.workers
	s := p.alg.Spec

	// Stage operands into stacked layout; the stacking pass writes the
	// pad lanes as zeros.
	ps := ms.StartPhase(obs.PhasePad)
	as := ar.Mat(p.asR, p.asC)
	bs := ar.Mat(p.bsR, p.bsC)
	bilinear.ToRecursiveInto(as, a, s.M0, s.K0, p.levels, w, ar)
	bilinear.ToRecursiveInto(bs, b, s.K0, s.N0, p.levels, w, ar)
	ps.End()

	// Ã = φ(A), B̃ = ψ(B).
	if p.phi != nil || p.psi != nil {
		ps = ms.StartPhase(obs.PhaseForward)
		if p.phi != nil {
			as = p.transform(p.phi, p.phiIP, p.phiR, as, done, ar)
		}
		if p.psi != nil {
			bs = p.transform(p.psi, p.psiIP, p.psiR, bs, done, ar)
		}
		ps.End()
	}

	// Recursive-bilinear phase.
	ps = ms.StartPhase(obs.PhaseBilinear)
	cs := ar.Mat(p.csR, p.csC)
	p.eng.ExecIntoCancel(cs, as, bs, ar, done, rec)
	ar.PutMat(as)
	ar.PutMat(bs)
	ps.End()

	// C = νᵀ(C̃).
	if p.nuT != nil {
		ps = ms.StartPhase(obs.PhaseInverse)
		cs = p.transform(p.nuT, p.nuIP, p.nuR, cs, done, ar)
		ps.End()
	}

	// Unstack into dst, skipping the pad lanes.
	ps = ms.StartPhase(obs.PhaseCrop)
	bilinear.FromRecursiveInto(dst, cs, s.M0, s.N0, p.levels, w, ar)
	ar.PutMat(cs)
	ps.End()
}

// transform applies t at the plan's depth to the stacked operand m and
// returns the result. The stacked buffers are plan-owned scratch, so a
// square transform runs in place (the paper's (2⅔+o(1))n² memory
// footprint relies on this); a dimension-changing one writes a fresh
// arena buffer of rows×m.Cols and returns m to ar. Once done is closed
// the arithmetic is skipped but the buffers are still swapped, so the
// later stages see the shapes they expect and the arena stays balanced.
//
//abmm:hotpath
func (p *Plan) transform(t *basis.Transform, inPlace bool, rows int, m *matrix.Matrix, done <-chan struct{}, ar *pool.Arena) *matrix.Matrix {
	if inPlace {
		if !parallel.Canceled(done) {
			t.ApplyInPlaceFrom(m, p.levels, p.workers, ar)
		}
		return m
	}
	out := ar.Mat(rows, m.Cols)
	if !parallel.Canceled(done) {
		t.ApplyInto(out, m, p.levels, p.workers, ar)
	}
	ar.PutMat(m)
	return out
}

// maybeSampleError implements the Options.ErrorSampleEvery policy:
// every sampleEvery-th execution of this plan (the first included, so
// even a single call yields one sample) is re-run through the
// quad-precision classical reference and the measured relative error
// ‖dst−C_ref‖/(‖A‖‖B‖) in max norms is reported together with the
// plan's predicted bound. Off the sampled path this costs one atomic
// increment; on it, one dd.ReferenceProduct (which allocates — the
// zero-alloc warm guarantee holds only for unsampled executions).
//
//abmm:coldpath
func (p *Plan) maybeSampleError(dst, a, b *matrix.Matrix, rec obs.Recorder) {
	if p.sampleEvery <= 0 {
		return
	}
	if (p.sampleTick.Add(1)-1)%p.sampleEvery != 0 {
		return
	}
	ref := dd.ReferenceProduct(a, b, p.workers)
	measured := matrix.MaxAbsDiff(dst, ref)
	if denom := a.MaxNorm() * b.MaxNorm(); denom > 0 {
		measured /= denom
	}
	rec.ErrorSample(measured, p.errBound)
}

// Multiply is the allocating convenience form of MultiplyInto.
func (p *Plan) Multiply(a, b *matrix.Matrix) *matrix.Matrix {
	dst := matrix.New(p.key.M, p.key.N)
	p.MultiplyInto(dst, a, b)
	return dst
}

func ipow(b, e int) int {
	v := 1
	for ; e > 0; e-- {
		v *= b
	}
	return v
}

// CacheStats reports the state of a Multiplier's plan cache. The JSON
// field names are part of the `cmd/abmm -stats-json` schema.
type CacheStats struct {
	Hits      uint64 `json:"hits"`      // lookups served by a cached plan
	Misses    uint64 `json:"misses"`    // lookups that compiled a new plan
	Evictions uint64 `json:"evictions"` // plans dropped by the LRU policy
	Plans     int    `json:"plans"`     // plans currently cached
	// ArenaBytes sums each cached plan's high-water workspace bytes: an
	// upper bound on the float storage the caches retain per concurrent
	// execution stream.
	ArenaBytes int64 `json:"arena_bytes"`
}

// String formats the stats the way cmd/abmm reports them.
func (s CacheStats) String() string {
	return fmt.Sprintf("%d plan(s), %d hit(s), %d miss(es), %d eviction(s), %.1f MiB workspace",
		s.Plans, s.Hits, s.Misses, s.Evictions, float64(s.ArenaBytes)/(1<<20))
}

// planCache is a shape-keyed LRU of compiled plans.
type planCache struct {
	mu      sync.Mutex
	entries map[PlanKey]*list.Element
	order   list.List // front = most recently used; values are *Plan

	hits, misses, evictions atomic.Uint64
}

// DefaultPlanCache is the number of shape-keyed plans a Multiplier
// retains.
const DefaultPlanCache = 32

// get is cache-lookup-or-compile: the hit path is two map/list touches
// under a mutex, the miss path compiles alg's plan for key under opt
// (allocating freely).
//
//abmm:coldpath
func (pc *planCache) get(key PlanKey, alg *algos.Algorithm, opt Options) *Plan {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.entries == nil {
		pc.entries = make(map[PlanKey]*list.Element)
	}
	if el, ok := pc.entries[key]; ok {
		pc.order.MoveToFront(el)
		pc.hits.Add(1)
		return el.Value.(*Plan)
	}
	pc.misses.Add(1)
	// Compilation runs under pc.mu deliberately: concurrent gets of one
	// key must not compile (and then leak) duplicate plans.
	p := NewPlan(alg, opt, key.M, key.K, key.N)
	pc.entries[key] = pc.order.PushFront(p)
	for pc.order.Len() > DefaultPlanCache {
		old := pc.order.Back()
		pc.order.Remove(old)
		op := old.Value.(*Plan)
		delete(pc.entries, op.key)
		op.retire()
		pc.evictions.Add(1)
	}
	return p
}

func (pc *planCache) stats() CacheStats {
	st := CacheStats{
		Hits:      pc.hits.Load(),
		Misses:    pc.misses.Load(),
		Evictions: pc.evictions.Load(),
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	st.Plans = pc.order.Len()
	for el := pc.order.Front(); el != nil; el = el.Next() {
		st.ArenaBytes += el.Value.(*Plan).ArenaBytes()
	}
	return st
}
