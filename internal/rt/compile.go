package rt

import (
	"facile/internal/lang/ir"
	"facile/internal/lang/token"
	"facile/internal/lang/types"
)

// This file is the compiled replay substrate: instead of interpreting each
// block's dynamic segment one ir.DynInst at a time (execDyn's per-op and
// per-operand switches), Machine construction precompiles every dynamic
// segment into a chain of specialized closures with all operand dispatch —
// dynamic vreg, recorded placeholder, constant — resolved at compile time,
// and replay fuses straight-line runs of DTNone nodes into superinstructions
// executed as one pre-validated call sequence. Every other node — fork- and
// ret-terminated ones, and pure-flow nodes no run covers — replays alone
// through its block's closures once it has been vetted at the entry's
// current cver; execDyn remains only for interpreted replay and for nodes
// that fail vetting or whose block is uncompiled.
//
// Correctness contract:
//
//   - Results are bit-identical to the interpreted path: closures replicate
//     execDyn's semantics exactly, and placeholder indices are assigned in
//     the same order the recorder appended them (appendPh) and the
//     interpreter consumes them (execDyn's read order). That order is only
//     sound when no placeholder sits in a field the op never reads; the
//     compiler's replay plan (ir.ReplayPlan) proves this per block, and it
//     is the only proof: the engine re-checks nothing but the placeholder
//     count. A block the plan does not prove, and every block of a program
//     without a matching plan, is left uncompiled and replays interpreted.
//
//   - All fault degradation survives fusion: a fused run or a vetted single
//     node contains only nodes pre-validated exactly as the interpreter
//     would (checkNode: block range, placeholder count, registered
//     externs), and a run ends before the first node that fails
//     validation, so the interpreted loop re-detects the corruption with
//     the identical fault kind at the identical node count. Misses can only
//     happen at dynamic-result nodes, which are never inside a run.
//
//   - Fused state is derived, not memoized: it is never serialized
//     (the snapshot and warm codecs enumerate fields explicitly), is
//     rebuilt lazily after warm-cache adoption, and is discarded when the
//     owning entry's cver moves (fault injection, invalidation) so a
//     mutated chain is always re-validated before its next replay.

// dynFn executes one dynamic instruction with operand kinds resolved at
// compile time; data is the node's recorded placeholder values.
type dynFn func(m *Machine, data []int64)

// blockCode is the compiled form of one block's dynamic segment.
type blockCode struct {
	fns []dynFn
	ok  bool // the plan proved the block's layout and the segment compiled
}

// fusedRun is the derived compiled state of one head node. steps is a
// superinstruction: a pre-validated straight-line run of DTNone nodes
// executed as one call sequence, empty when no run worth fusing starts at
// the head. end is the first node after the run (a dynamic-result node, a
// DTRet node, a node that failed validation, or nil), handed back to the
// replay loop. head is the head node's own compiled segment when the node
// passed checkNode and its block compiled, nil otherwise; replay runs it
// when the head replays alone.
type fusedRun struct {
	steps []fusedStep
	end   *node
	ops   uint64 // dynamic instructions covered, for FastOps accounting
	head  *blockCode
}

type fusedStep struct {
	fns  []dynFn
	data []int64
}

// compileProgram compiles dynamic segments into closure chains. The
// compiler's replay plan (p.Replay, from its static fusion analysis) is the
// only layout proof: a block compiles when the plan matches the program and
// proves the block's layout, whatever its replay class. A block the plan
// cannot prove, and every block of a program with no matching plan
// (hand-built IR), replays interpreted.
func compileProgram(p *ir.Program) []blockCode {
	code := make([]blockCode, len(p.Blocks))
	pl := p.Replay
	if pl == nil || len(pl.Blocks) != len(p.Blocks) {
		return code
	}
	for bi, blk := range p.Blocks {
		switch {
		case !blk.HasDyn:
			// Empty ok chain so fused runs can span the block.
			code[bi] = blockCode{ok: true}
		case pl.Blocks[bi].LayoutOK:
			code[bi] = compileBlock(blk)
		}
	}
	return code
}

// compileBlock compiles one block's dynamic segment. The final
// placeholder-count comparison is a cheap integer guard: if it ever trips,
// the plan and the engine disagree, and the block falls back to
// interpreted replay instead of indexing past the recorded data.
func compileBlock(blk *ir.Block) blockCode {
	fns := make([]dynFn, 0, len(blk.Dyn))
	ph := 0
	for i := range blk.Dyn {
		fn, ok := compileDyn(&blk.Dyn[i], &ph)
		if !ok {
			return blockCode{}
		}
		fns = append(fns, fn)
	}
	if ph != blk.NPh {
		return blockCode{}
	}
	return blockCode{fns: fns, ok: true}
}

// reader builds a compile-time-resolved operand getter, assigning the next
// placeholder index when s is a placeholder. Callers must invoke reader in
// the interpreter's operand read order.
func reader(s ir.Src, ph *int) func(*Machine, []int64) int64 {
	switch s.Kind {
	case ir.SrcVReg:
		r := s.VReg
		return func(m *Machine, _ []int64) int64 { return m.vregs[r] }
	case ir.SrcPh:
		i := *ph
		*ph++
		return func(_ *Machine, data []int64) int64 { return data[i] }
	case ir.SrcConst:
		c := s.Const
		return func(*Machine, []int64) int64 { return c }
	}
	return func(*Machine, []int64) int64 { return 0 }
}

// compileDyn compiles one dynamic instruction, assigning placeholder
// indices in the interpreter's read order; the replay plan has proved that
// no operand the op never reads is a placeholder. It returns ok=false only
// when the instruction is structurally malformed (the block then replays
// interpreted).
func compileDyn(di *ir.DynInst, ph *int) (dynFn, bool) {
	d := di.D
	switch di.Op {
	case ir.Mov:
		// Flat fast paths for the three operand kinds.
		switch di.A.Kind {
		case ir.SrcVReg:
			a := di.A.VReg
			return func(m *Machine, _ []int64) { m.vregs[d] = m.vregs[a] }, true
		case ir.SrcPh:
			i := *ph
			*ph++
			return func(m *Machine, data []int64) { m.vregs[d] = data[i] }, true
		case ir.SrcConst:
			c := di.A.Const
			return func(m *Machine, _ []int64) { m.vregs[d] = c }, true
		}
		return func(m *Machine, _ []int64) { m.vregs[d] = 0 }, true

	case ir.Bin:
		op := token.Kind(di.Sub)
		// Flat fast paths for the hottest operand-kind combinations; the
		// composed form below covers the rest with one closure call per
		// operand and no kind dispatch.
		if di.A.Kind == ir.SrcVReg && di.B.Kind == ir.SrcVReg {
			a, b := di.A.VReg, di.B.VReg
			return func(m *Machine, _ []int64) {
				m.vregs[d] = types.EvalBinary(op, m.vregs[a], m.vregs[b])
			}, true
		}
		if di.A.Kind == ir.SrcVReg && di.B.Kind == ir.SrcConst {
			a, c := di.A.VReg, di.B.Const
			return func(m *Machine, _ []int64) {
				m.vregs[d] = types.EvalBinary(op, m.vregs[a], c)
			}, true
		}
		if di.A.Kind == ir.SrcPh && di.B.Kind == ir.SrcConst {
			i, c := *ph, di.B.Const
			*ph++
			return func(m *Machine, data []int64) {
				m.vregs[d] = types.EvalBinary(op, data[i], c)
			}, true
		}
		if di.A.Kind == ir.SrcPh && di.B.Kind == ir.SrcVReg {
			i, b := *ph, di.B.VReg
			*ph++
			return func(m *Machine, data []int64) {
				m.vregs[d] = types.EvalBinary(op, data[i], m.vregs[b])
			}, true
		}
		ra := reader(di.A, ph)
		rb := reader(di.B, ph)
		return func(m *Machine, data []int64) {
			m.vregs[d] = types.EvalBinary(op, ra(m, data), rb(m, data))
		}, true

	case ir.Un:
		sub := di.Sub
		ra := reader(di.A, ph)
		return func(m *Machine, data []int64) { m.vregs[d] = evalUn(sub, ra(m, data)) }, true

	case ir.Ext:
		bits, signed := di.Imm, di.Sub == 1
		ra := reader(di.A, ph)
		return func(m *Machine, data []int64) {
			m.vregs[d] = extend(ra(m, data), bits, signed)
		}, true

	case ir.LoadG:
		g := di.Imm
		return func(m *Machine, _ []int64) { m.vregs[d] = m.globals[g] }, true

	case ir.StoreG:
		g := di.Imm
		ra := reader(di.A, ph)
		return func(m *Machine, data []int64) { m.globals[g] = ra(m, data) }, true

	case ir.LoadA:
		ai := di.Imm
		ra := reader(di.A, ph)
		return func(m *Machine, data []int64) {
			arr := m.arrays[ai]
			i := ra(m, data)
			if i >= 0 && i < int64(len(arr)) {
				m.vregs[d] = arr[i]
			} else {
				m.vregs[d] = 0
			}
		}, true

	case ir.StoreA:
		ai := di.Imm
		ra := reader(di.A, ph)
		rb := reader(di.B, ph)
		return func(m *Machine, data []int64) {
			arr := m.arrays[ai]
			i := ra(m, data)
			val := rb(m, data)
			if i >= 0 && i < int64(len(arr)) {
				arr[i] = val
			}
		}, true

	case ir.Fetch:
		ra := reader(di.A, ph)
		return func(m *Machine, data []int64) {
			m.vregs[d] = int64(m.text.FetchWord(uint64(ra(m, data))))
		}, true

	case ir.QOp:
		return compileQOp(di, ph)

	case ir.CallExt:
		xi := di.Imm
		rargs := make([]func(*Machine, []int64) int64, len(di.Args))
		for i, a := range di.Args {
			rargs[i] = reader(a, ph)
		}
		// One argument buffer per call site, reused on every call: an
		// Extern's args are valid only during the call.
		args := make([]int64, len(rargs))
		return func(m *Machine, data []int64) {
			fn := m.externs[xi]
			for i, ra := range rargs {
				args[i] = ra(m, data)
			}
			if fn != nil {
				m.vregs[d] = fn(args)
			} else {
				m.vregs[d] = 0
			}
		}, true
	}

	// Unknown dynamic op: the interpreter ignores it; compile the same no-op.
	return func(*Machine, []int64) {}, true
}

func compileQOp(di *ir.DynInst, ph *int) (dynFn, bool) {
	d := di.D
	qid := di.QID
	switch di.Sub {
	case ir.QSize:
		return func(m *Machine, _ []int64) {
			res := int64(m.queue(qid).Size())
			if d >= 0 {
				m.vregs[d] = res
			}
		}, true
	case ir.QPush:
		rargs := make([]func(*Machine, []int64) int64, len(di.Args))
		for i, a := range di.Args {
			rargs[i] = reader(a, ph)
		}
		// One tuple buffer per push site, reused: Push copies the values.
		vals := make([]int64, len(rargs))
		return func(m *Machine, data []int64) {
			q := m.queue(qid)
			for i, ra := range rargs {
				vals[i] = ra(m, data)
			}
			if len(vals) == q.Width() {
				q.Push(vals)
			}
			if d >= 0 {
				m.vregs[d] = 0
			}
		}, true
	case ir.QPop:
		return func(m *Machine, _ []int64) {
			res := m.queue(qid).Pop()
			if d >= 0 {
				m.vregs[d] = res
			}
		}, true
	case ir.QGet:
		ra := reader(di.A, ph)
		rb := reader(di.B, ph)
		return func(m *Machine, data []int64) {
			res := m.queue(qid).Get(ra(m, data), rb(m, data))
			if d >= 0 {
				m.vregs[d] = res
			}
		}, true
	case ir.QSet:
		// Structural arity guard: a QSet without its value operand would
		// panic below, so the block replays interpreted instead.
		if len(di.Args) < 1 {
			return nil, false
		}
		ra := reader(di.A, ph)
		rb := reader(di.B, ph)
		rv := reader(di.Args[0], ph)
		return func(m *Machine, data []int64) {
			a, b := ra(m, data), rb(m, data)
			m.queue(qid).Set(a, b, rv(m, data))
			if d >= 0 {
				m.vregs[d] = 0
			}
		}, true
	case ir.QFront:
		ra := reader(di.A, ph)
		return func(m *Machine, data []int64) {
			res := m.queue(qid).Front(ra(m, data))
			if d >= 0 {
				m.vregs[d] = res
			}
		}, true
	case ir.QFull:
		return func(m *Machine, _ []int64) {
			var res int64
			if m.queue(qid).Full() {
				res = 1
			}
			if d >= 0 {
				m.vregs[d] = res
			}
		}, true
	case ir.QClear:
		return func(m *Machine, _ []int64) {
			m.queue(qid).Clear()
			if d >= 0 {
				m.vregs[d] = 0
			}
		}, true
	}
	// Unknown queue sub-op: the interpreter computes res=0 and writes it.
	return func(m *Machine, _ []int64) {
		if d >= 0 {
			m.vregs[d] = 0
		}
	}, true
}

// buildFused assembles the derived compiled state headed at n: the head
// node's own vetted segment, and the maximal (length-capped) straight-line
// run of DTNone nodes, each vetted exactly as the interpreted loop would
// vet it before execution. The run ends before the first node that is nil,
// fails checkNode, is uncompiled, or is fork- or ret-terminated — the
// replay loop handles that node, detecting any corruption with the
// identical fault.
func (m *Machine) buildFused(n *node) *fusedRun {
	bc := m.vetNode(n)
	fr := &fusedRun{head: bc}
	for bc != nil && len(fr.steps) < ir.MaxFuseLen && m.p.Blocks[n.blockID].DynTerm == ir.DTNone {
		fr.steps = append(fr.steps, fusedStep{fns: bc.fns, data: n.data})
		fr.ops += uint64(len(m.p.Blocks[n.blockID].Dyn))
		n = n.next
		bc = m.vetNode(n)
	}
	fr.end = n
	if len(fr.steps) < ir.MinFuseLen {
		// Too short to amortize a fused dispatch: the head replays alone.
		return &fusedRun{head: fr.head}
	}
	return fr
}

// vetNode returns the compiled segment of n's block when n passes
// checkNode and the block compiled, nil otherwise.
func (m *Machine) vetNode(n *node) *blockCode {
	if n == nil {
		return nil
	}
	if _, _, ok := m.checkNode(n); !ok {
		return nil
	}
	if bc := &m.code[n.blockID]; bc.ok {
		return bc
	}
	return nil
}
