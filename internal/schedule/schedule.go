// Package schedule compiles the linear phases of a bilinear algorithm —
// the encodings S_r = Σ u_ir A_i, T_r = Σ v_jr B_j and the decoding
// C_k = Σ w_kr M_r — into straight-line programs of binary linear
// operations with common subexpressions shared across targets.
//
// Fast matrix multiplication algorithms owe much of their practical
// addition counts to such sharing: Winograd's variant needs only 15
// additions (instead of the 24 its raw operator nonzeros imply) because
// sums like A21+A22 feed several products. The compiler discovers this
// sharing automatically with iterated greedy pair elimination: the
// signed register pair occurring in the most targets is hoisted into a
// fresh register, targets are rewritten, and the process repeats until
// no pair occurs twice; remaining targets become chains. Applied to
// Winograd's ⟨U,V,W⟩ it recovers the classical 4+4+7 = 15-addition
// schedule, and applied to alternative basis bilinear operators it
// recovers their 12-addition schedules.
//
// All compilation arithmetic is exact (math/big.Rat); the resulting
// program is verified symbolically against the target matrix before it
// is returned, so heuristics can affect only the operation count, never
// correctness.
//
// The programs are the paper's accounting, not an executor: their
// addition counts give Tables I–II and the arithmetic leading
// coefficient. The engine (internal/bilinear) forms every block
// straight from its coefficient row instead, so for an algorithm whose
// programs share partial sums (Winograd's, Laderman's) it performs more
// additions than these counts. Decompose, the higher-dimension
// decomposition behind Figure 3's decomposed algorithms, shares the
// compiler's pair elimination.
package schedule

import (
	"fmt"
	"math/big"
	"sort"

	"abmm/internal/exact"
)

// Op is one binary linear operation: reg[Dst] = CA·reg[A] + CB·reg[B].
// A unary scale/copy is encoded with B < 0 (reg[Dst] = CA·reg[A]).
type Op struct {
	Dst, A, B int
	CA, CB    float64
}

// Program computes NumTargets linear combinations of NumInputs inputs.
// Registers 0..NumInputs-1 are the inputs; registers NumInputs..NumRegs-1
// are computed by Ops in order. Targets[t] is the register holding
// target t once all ops have run; it may be an input register (a
// pass-through target whose combination is a single unit coefficient).
type Program struct {
	NumInputs int
	NumRegs   int
	Ops       []Op
	Targets   []int
}

// Additions returns the number of binary addition operations in the
// program (unary scales are not additions).
func (p *Program) Additions() int {
	n := 0
	for _, op := range p.Ops {
		if op.B >= 0 {
			n++
		}
	}
	return n
}

// Compile builds a program computing the columns of m: target t is
// Σ_i m[i,t]·input_i. All entries of m must be dyadic rationals
// (exactly representable in float64); Compile panics otherwise, as does
// the rest of the library for non-representable coefficients.
func Compile(m *exact.Matrix) *Program {
	b := &builder{numInputs: m.Rows}
	targets := make([]combo, m.Cols)
	for t := range targets {
		targets[t] = make(combo)
		for i := 0; i < m.Rows; i++ {
			if v := m.At(i, t); v.Sign() != 0 {
				targets[t][i] = new(big.Rat).Set(v)
			}
		}
	}
	prog := b.compile(targets)
	if err := verify(prog, m); err != nil {
		panic(fmt.Sprintf("schedule: internal error, compiled program does not match targets: %v", err))
	}
	return prog
}

// combo is a sparse linear combination over registers.
type combo map[int]*big.Rat

type builder struct {
	numInputs int
	nextReg   int
	ops       []opRat
	// banned pairs turned out not to be exactly rewritable; bestPair
	// skips them so the elimination loop terminates.
	banned map[pairKey]bool
}

type opRat struct {
	dst, a, b int
	ca, cb    *big.Rat
}

// pairKey identifies a signed register pair up to overall scale:
// ca·x_a + cb·x_b normalized so the pair is (a, b, cb/ca) with a < b.
type pairKey struct {
	a, b  int
	ratio string
}

func (b *builder) compile(targets []combo) *Program {
	b.nextReg = b.numInputs
	b.banned = make(map[pairKey]bool)
	// Iterated greedy pair elimination.
	for {
		best, count := b.bestPair(targets)
		if count < 2 {
			break
		}
		b.hoist(best, targets)
	}
	// Emit remaining targets as chains.
	targetRegs := make([]int, len(targets))
	for t, c := range targets {
		targetRegs[t] = b.emitChain(c)
	}
	return b.finish(targetRegs)
}

// bestPair returns the most frequent normalized signed pair across all
// targets and its occurrence count. Ties break deterministically on the
// key ordering so compilation is reproducible. Pairs whose ratio is not
// exactly representable in float64 (e.g. 2/3, which arises in orbit
// transforms) are never hoisted: the resulting op coefficient could not
// be executed exactly, so those terms stay in their chains, where every
// coefficient is an original (dyadic) matrix entry.
func (b *builder) bestPair(targets []combo) (pairKey, int) {
	counts := make(map[pairKey]int)
	for _, c := range targets {
		regs := sortedRegs(c)
		for x := 0; x < len(regs); x++ {
			for y := x + 1; y < len(regs); y++ {
				ratio := new(big.Rat).Quo(c[regs[y]], c[regs[x]])
				if _, exact := ratio.Float64(); !exact {
					continue
				}
				key := normalizePair(regs[x], regs[y], c)
				if b.banned[key] {
					continue
				}
				counts[key]++
			}
		}
	}
	var best pairKey
	bestCount := 0
	for k, n := range counts {
		if n > bestCount || (n == bestCount && lessKey(k, best)) {
			best, bestCount = k, n
		}
	}
	return best, bestCount
}

func lessKey(a, b pairKey) bool {
	if a.a != b.a {
		return a.a < b.a
	}
	if a.b != b.b {
		return a.b < b.b
	}
	return a.ratio < b.ratio
}

func sortedRegs(c combo) []int {
	regs := make([]int, 0, len(c))
	for r := range c {
		regs = append(regs, r)
	}
	sort.Ints(regs)
	return regs
}

// normalizePair builds the scale-invariant key of the sub-expression
// c[i]·x_i + c[j]·x_j: the pair (i, j) with the ratio c[j]/c[i].
func normalizePair(i, j int, c combo) pairKey {
	ratio := new(big.Rat).Quo(c[j], c[i])
	return pairKey{a: i, b: j, ratio: ratio.RatString()}
}

// hoist introduces a new register u holding the shared pair and
// rewrites every target containing it to use u. The scale of u is
// chosen so that, when some target consists of exactly this pair, that
// target becomes the register itself and needs no further op — this is
// what lets the compiler recover hand-tuned schedules like Winograd's,
// where S₂ = S₁ − A₁₁ is both a shared subexpression and an encoding
// output.
func (b *builder) hoist(k pairKey, targets []combo) {
	ratio, ok := new(big.Rat).SetString(k.ratio)
	if !ok {
		panic("schedule: bad ratio key " + k.ratio)
	}
	matches := func(c combo) bool {
		ca, cb := c[k.a], c[k.b]
		if ca == nil || cb == nil {
			return false
		}
		return new(big.Rat).Quo(cb, ca).Cmp(ratio) == 0
	}
	exact64 := func(r *big.Rat) bool {
		_, ok := r.Float64()
		return ok
	}
	// Base scale: prefer a target that is exactly the pair.
	baseCa := big.NewRat(1, 1)
	for _, c := range targets {
		if len(c) == 2 && matches(c) && exact64(c[k.a]) {
			baseCa = new(big.Rat).Set(c[k.a])
			break
		}
	}
	// Only rewrite targets whose new coefficient ca/baseCa is exactly
	// representable; if fewer than two remain, ban the pair instead of
	// emitting a dead op.
	var rewrite []combo
	for _, c := range targets {
		if !matches(c) {
			continue
		}
		if exact64(new(big.Rat).Quo(c[k.a], baseCa)) {
			rewrite = append(rewrite, c)
		}
	}
	cb := new(big.Rat).Mul(baseCa, ratio)
	if len(rewrite) < 2 || !exact64(baseCa) || !exact64(cb) {
		b.banned[k] = true
		return
	}
	u := b.nextReg
	b.nextReg++
	b.ops = append(b.ops, opRat{dst: u, a: k.a, b: k.b, ca: baseCa, cb: cb})
	for _, c := range rewrite {
		// ca·x_a + cb·x_b = (ca/baseCa)·u.
		c[u] = new(big.Rat).Quo(c[k.a], baseCa)
		delete(c, k.a)
		delete(c, k.b)
	}
}

// emitChain emits a left-to-right chain computing the combination and
// returns the register holding the result. Single-term combinations
// with unit coefficient pass through without an op. Every coefficient
// emitted here and in hoist is nonzero except the zero combination's
// 0·x_0, a unary op that counts no addition.
func (b *builder) emitChain(c combo) int {
	regs := sortedRegs(c)
	if len(regs) == 0 {
		// The zero combination: emit 0·x_0 into a fresh register.
		dst := b.nextReg
		b.nextReg++
		b.ops = append(b.ops, opRat{dst: dst, a: 0, b: -1, ca: new(big.Rat)})
		return dst
	}
	one := big.NewRat(1, 1)
	if len(regs) == 1 {
		r := regs[0]
		if c[r].Cmp(one) == 0 {
			return r
		}
		dst := b.nextReg
		b.nextReg++
		b.ops = append(b.ops, opRat{dst: dst, a: r, b: -1, ca: new(big.Rat).Set(c[r])})
		return dst
	}
	acc := b.nextReg
	b.nextReg++
	b.ops = append(b.ops, opRat{dst: acc, a: regs[0], b: regs[1],
		ca: new(big.Rat).Set(c[regs[0]]), cb: new(big.Rat).Set(c[regs[1]])})
	for _, r := range regs[2:] {
		dst := b.nextReg
		b.nextReg++
		b.ops = append(b.ops, opRat{dst: dst, a: acc, b: r, ca: one, cb: new(big.Rat).Set(c[r])})
		acc = dst
	}
	return acc
}

// finish converts the rational ops to the float64 program. Coefficients
// must be dyadic.
func (b *builder) finish(targetRegs []int) *Program {
	p := &Program{
		NumInputs: b.numInputs,
		NumRegs:   b.nextReg,
		Ops:       make([]Op, len(b.ops)),
		Targets:   targetRegs,
	}
	for i, op := range b.ops {
		p.Ops[i] = Op{Dst: op.dst, A: op.a, B: op.b, CA: ratFloat(op.ca)}
		if op.b >= 0 {
			p.Ops[i].CB = ratFloat(op.cb)
		}
	}
	return p
}

func ratFloat(r *big.Rat) float64 {
	f, ok := r.Float64()
	if !ok {
		panic(fmt.Sprintf("schedule: coefficient %s not exactly representable as float64", r.RatString()))
	}
	return f
}

// verify symbolically evaluates the program over ℚ and checks that each
// target register equals the corresponding column of m.
func verify(p *Program, m *exact.Matrix) error {
	// regs[r] is the combination of inputs held by register r.
	regs := make([]map[int]*big.Rat, p.NumRegs)
	for i := 0; i < p.NumInputs; i++ {
		regs[i] = map[int]*big.Rat{i: big.NewRat(1, 1)}
	}
	for _, op := range p.Ops {
		val := scaleCombo(regs[op.A], op.CA)
		if op.B >= 0 {
			addCombo(val, regs[op.B], op.CB)
		}
		regs[op.Dst] = val
	}
	for t := 0; t < m.Cols; t++ {
		got := regs[p.Targets[t]]
		for i := 0; i < m.Rows; i++ {
			want := m.At(i, t)
			g := got[i]
			if g == nil {
				if want.Sign() != 0 {
					return fmt.Errorf("target %d input %d: got 0, want %s", t, i, want.RatString())
				}
				continue
			}
			if g.Cmp(want) != 0 {
				return fmt.Errorf("target %d input %d: got %s, want %s", t, i, g.RatString(), want.RatString())
			}
		}
		for i, g := range got {
			if g.Sign() != 0 && m.At(i, t).Sign() == 0 {
				return fmt.Errorf("target %d has spurious input %d", t, i)
			}
		}
	}
	return nil
}

func scaleCombo(c map[int]*big.Rat, f float64) map[int]*big.Rat {
	fr := new(big.Rat).SetFloat64(f)
	out := make(map[int]*big.Rat, len(c))
	for i, v := range c {
		p := new(big.Rat).Mul(v, fr)
		if p.Sign() != 0 {
			out[i] = p
		}
	}
	return out
}

func addCombo(dst map[int]*big.Rat, c map[int]*big.Rat, f float64) {
	fr := new(big.Rat).SetFloat64(f)
	for i, v := range c {
		p := new(big.Rat).Mul(v, fr)
		if cur := dst[i]; cur != nil {
			cur.Add(cur, p)
			if cur.Sign() == 0 {
				delete(dst, i)
			}
		} else if p.Sign() != 0 {
			dst[i] = p
		}
	}
}
