package bilinear

import (
	"abmm/internal/matrix"
	"abmm/internal/pool"
	"abmm/internal/schedule"
)

// progRun is the live state of one executed linear-phase program: the
// target blocks plus the bookkeeping needed to return every pooled
// resource. It is returned by value and released with release once the
// caller is done reading outs.
type progRun struct {
	// outs[t] is the block holding target t.
	outs []*matrix.Matrix
	// regs is the register file (pooled slice).
	regs []*matrix.Matrix
	// owned[r] is non-nil when register r's block was allocated by the
	// program (as opposed to an input or a pre-bound output).
	owned []*matrix.Matrix
}

func (pr *progRun) release(al *pool.Arena) {
	for r, m := range pr.owned {
		if m != nil {
			al.PutMat(m)
			pr.owned[r] = nil
		}
	}
	al.PutMats(pr.owned)
	al.PutMats(pr.regs)
	al.PutMats(pr.outs)
}

// recycleReg returns register r's block to the arena once op opIdx
// was its last use. A plain function (not a closure over the register
// file) so the warm execution path allocates nothing.
func recycleReg(p *schedule.Program, regs, owned []*matrix.Matrix, al *pool.Arena, r, opIdx int) {
	if r < p.NumInputs || p.IsTarget[r] || p.LastUse[r] != opIdx {
		return
	}
	if m := owned[r]; m != nil {
		al.PutMat(m)
		owned[r] = nil
		regs[r] = nil
	}
}

// runProgram executes a compiled linear-phase program on equally-shaped
// blocks. inputs provides the program's input registers; computed
// registers are drawn from al with shape rows×cols and recycled as soon
// as liveness allows. If outBind is non-nil, target t is computed
// directly into outBind[t] where possible (pass-through and
// register-shared targets are copied). The caller must call release on
// the result once it is done reading outs.
func runProgram(p *schedule.Program, inputs []*matrix.Matrix, rows, cols int,
	outBind []*matrix.Matrix, workers int, al *pool.Arena) progRun {

	regs := al.Mats(p.NumRegs)
	for i := range regs {
		regs[i] = nil
	}
	copy(regs, inputs)
	owned := al.Mats(p.NumRegs)
	for i := range owned {
		owned[i] = nil
	}

	// Pre-bind destination storage to computed target registers so the
	// final op of each output writes in place. A register can be bound
	// only once; duplicate targets fall back to a copy below.
	if outBind != nil {
		for t, r := range p.Targets {
			if r >= p.NumInputs && outBind[t] != nil && regs[r] == nil {
				regs[r] = outBind[t]
			}
		}
	}

	var coeff [2]float64
	var args [2]*matrix.Matrix
	for i, op := range p.Ops {
		if regs[op.Dst] == nil {
			m := al.Mat(rows, cols)
			owned[op.Dst] = m
			regs[op.Dst] = m
		}
		terms := 1
		coeff[0], args[0] = op.CA, regs[op.A]
		if op.B >= 0 {
			coeff[1], args[1] = op.CB, regs[op.B]
			terms = 2
		}
		matrix.LinearCombine(regs[op.Dst], coeff[:terms], args[:terms], workers)
		recycleReg(p, regs, owned, al, op.A, i)
		if op.B >= 0 {
			recycleReg(p, regs, owned, al, op.B, i)
		}
	}

	outs := al.Mats(len(p.Targets))
	for t, r := range p.Targets {
		outs[t] = regs[r]
		if outBind != nil && outBind[t] != nil && regs[r] != outBind[t] {
			matrix.CopyInto(outBind[t], regs[r])
			outs[t] = outBind[t]
		}
	}
	return progRun{outs: outs, regs: regs, owned: owned}
}
