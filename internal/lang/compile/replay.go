package compile

import (
	"fmt"

	"facile/internal/lang/ir"
	"facile/internal/lang/token"
)

// This file is the whole-program fusion/replay dataflow tier: a static,
// compile-time computation of everything the replay engine's
// superinstruction builder used to discover at machine-build time.
//
// For every block it proves
//
//   - the action class (pure-flow / fork / step-end), from the dynamic
//     terminator the BTA extracted;
//
//   - the placeholder-layout verdict: whether every recorded placeholder
//     sits in an operand field the replayer reads, in the recorder's
//     append order, with the total matching NPh — the conditions rt's
//     closure compiler needs to assign placeholder indices at build time,
//     proven only here: the engine trusts the table and keeps no proof of
//     its own;
//
//   - the maximal pure-flow run threading through the block: the static
//     upper bound on the superinstruction a replay chain can form here,
//     computed over the dynamic-successor graph (the first blocks with
//     dynamic segments reachable along rt-static control flow).
//
// The verdicts ride on the Program as ir.ReplayPlan (consumed by rt); the
// richer evidence — why-unfusable cause chains, successor edges, loop
// membership — feeds the fvet FV07xx analyzers.

// LayoutCauseKind classifies one reason a block's placeholder layout
// cannot be proven against the recorder's append order.
type LayoutCauseKind uint8

// Layout cause kinds.
const (
	// LayoutPhUnread: a placeholder operand sits in a field the replayer
	// never reads; the recorder still appends it, so every later
	// placeholder index would shift.
	LayoutPhUnread LayoutCauseKind = iota
	// LayoutPhCount: the compile-time placeholder assignment disagrees
	// with the recorder's per-execution count (block NPh).
	LayoutPhCount
	// LayoutBadInst: the dynamic instruction is structurally malformed
	// (e.g. a queue set with no value operand).
	LayoutBadInst
)

// LayoutCause is one edge of a why-unfusable chain.
type LayoutCause struct {
	Kind  LayoutCauseKind
	Pos   token.Pos // offending dynamic instruction
	Op    ir.Op
	Field string // operand field holding the stray placeholder
	Want  int    // LayoutPhCount: recorder's NPh
	Got   int    // LayoutPhCount: compile-time assignment
}

// String renders the cause for diagnostics.
func (c LayoutCause) String() string {
	switch c.Kind {
	case LayoutPhUnread:
		return fmt.Sprintf("placeholder recorded in operand field %s of op %d, which the replayer never reads", c.Field, c.Op)
	case LayoutPhCount:
		return fmt.Sprintf("compile-time placeholder assignment (%d) disagrees with the recorder's per-execution count (%d)", c.Got, c.Want)
	}
	return fmt.Sprintf("malformed dynamic instruction (op %d)", c.Op)
}

// BlockReplayEvidence is the per-block evidence behind a plan verdict.
type BlockReplayEvidence struct {
	Causes []LayoutCause // why the layout is unprovable (empty when OK)
	Succ   []int         // dynamic-successor blocks (first HasDyn blocks downstream)
	Hot    bool          // block sits inside a CFG cycle (statically hot)
}

// ReplayEvidence pairs the proven plan with its per-block evidence for
// the fvet fusion analyzers.
type ReplayEvidence struct {
	Plan   *ir.ReplayPlan
	Blocks []BlockReplayEvidence
}

// readSet describes which operand fields of a dynamic instruction the
// replayer reads; placeholders anywhere else break the recorded layout.
type readSet struct {
	a, b bool
	args int // number of leading Args entries read (-1 = all)
}

// dynReads mirrors the replay interpreter's operand read order (which rt's
// closure compiler follows) exactly: for each op, the fields a recorded
// placeholder may legally occupy. ok=false marks a structurally malformed
// instruction.
func dynReads(di *ir.DynInst) (rs readSet, ok bool) {
	switch di.Op {
	case ir.Mov, ir.Un, ir.Ext, ir.StoreG, ir.LoadA, ir.Fetch:
		return readSet{a: true}, true
	case ir.Bin, ir.StoreA:
		return readSet{a: true, b: true}, true
	case ir.LoadG:
		return readSet{}, true
	case ir.QOp:
		switch di.Sub {
		case ir.QSize, ir.QPop, ir.QFull, ir.QClear:
			return readSet{}, true
		case ir.QPush:
			return readSet{args: -1}, true
		case ir.QGet:
			return readSet{a: true, b: true}, true
		case ir.QSet:
			if len(di.Args) < 1 {
				return readSet{}, false
			}
			return readSet{a: true, b: true, args: 1}, true
		case ir.QFront:
			return readSet{a: true}, true
		}
		// Unknown queue sub-op: the replayer computes res=0 reading nothing.
		return readSet{}, true
	case ir.CallExt:
		return readSet{args: -1}, true
	}
	// Unknown dynamic op: the replayer ignores it; no placeholder may hide
	// in it.
	return readSet{}, true
}

// proveLayout runs the compile-time version of the engine's per-block
// placeholder-layout proof: every SrcPh must occupy a read field (so the
// compile-time index assignment, which walks read fields in the
// interpreter's order, matches the recorder's append order), and the
// total must equal the recorder's NPh.
func proveLayout(blk *ir.Block) (ok bool, causes []LayoutCause) {
	ph := 0
	for i := range blk.Dyn {
		di := &blk.Dyn[i]
		rs, wellFormed := dynReads(di)
		if !wellFormed {
			causes = append(causes, LayoutCause{Kind: LayoutBadInst, Pos: di.Pos, Op: di.Op})
			continue
		}
		isPh := func(s ir.Src) bool { return s.Kind == ir.SrcPh }
		if isPh(di.A) {
			if rs.a {
				ph++
			} else {
				causes = append(causes, LayoutCause{Kind: LayoutPhUnread, Pos: di.Pos, Op: di.Op, Field: "A"})
			}
		}
		if isPh(di.B) {
			if rs.b {
				ph++
			} else {
				causes = append(causes, LayoutCause{Kind: LayoutPhUnread, Pos: di.Pos, Op: di.Op, Field: "B"})
			}
		}
		for ai, a := range di.Args {
			if !isPh(a) {
				continue
			}
			if rs.args == -1 || ai < rs.args {
				ph++
			} else {
				causes = append(causes, LayoutCause{Kind: LayoutPhUnread, Pos: di.Pos, Op: di.Op,
					Field: fmt.Sprintf("Args[%d]", ai)})
			}
		}
	}
	if len(causes) == 0 && ph != blk.NPh {
		pos := token.Pos{}
		if len(blk.Dyn) > 0 {
			pos = blk.Dyn[0].Pos
		}
		causes = append(causes, LayoutCause{Kind: LayoutPhCount, Pos: pos, Want: blk.NPh, Got: ph})
	}
	return len(causes) == 0, causes
}

// classOf maps a block's extracted dynamic terminator to its replay class.
func classOf(blk *ir.Block) ir.ReplayClass {
	if !blk.HasDyn {
		return ir.ReplayNoDyn
	}
	switch blk.DynTerm {
	case ir.DTBr, ir.DTSetArg, ir.DTPin:
		return ir.ReplayFork
	case ir.DTRet:
		return ir.ReplayRet
	}
	return ir.ReplayPure
}

// dynSuccessors computes, for block bi, the first blocks with dynamic
// segments reachable from its CFG successors along rt-static control flow
// (paths through blocks replay never records). Cycles of dyn-free blocks
// terminate via the visited set.
func dynSuccessors(p *ir.Program, bi int) []int {
	var out []int
	seen := make(map[int]bool)
	added := make(map[int]bool)
	var stack []int
	push := func(b *ir.Block) {
		for _, s := range b.Succ {
			if s >= 0 && s < len(p.Blocks) && !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	push(p.Blocks[bi])
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		b := p.Blocks[id]
		if b.HasDyn {
			if !added[id] {
				added[id] = true
				out = append(out, id)
			}
			continue
		}
		push(b)
	}
	return out
}

// hotBlocks marks every block that participates in a CFG cycle, via
// Tarjan's strongly-connected components.
func hotBlocks(p *ir.Program) []bool {
	n := len(p.Blocks)
	hot := make([]bool, n)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	next := 0

	type frame struct {
		v, si int
	}
	for root := 0; root < n; root++ {
		if index[root] != -1 {
			continue
		}
		frames := []frame{{v: root}}
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			if f.si < len(p.Blocks[v].Succ) {
				w := p.Blocks[v].Succ[f.si]
				f.si++
				if w < 0 || w >= n {
					continue
				}
				if index[w] == -1 {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
				} else if onStack[w] {
					if index[w] < low[v] {
						low[v] = index[w]
					}
				}
				continue
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				u := frames[len(frames)-1].v
				if low[v] < low[u] {
					low[u] = low[v]
				}
			}
			if low[v] == index[v] {
				// Pop the component; multi-node components are cycles, and a
				// single node is hot only with a self-edge.
				var comp []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				cyclic := len(comp) > 1
				if !cyclic {
					for _, s := range p.Blocks[v].Succ {
						if s == v {
							cyclic = true
						}
					}
				}
				if cyclic {
					for _, w := range comp {
						hot[w] = true
					}
				}
			}
		}
	}
	return hot
}

// buildReplayPlan proves the whole-program fusion/replay table: per-block
// class and layout verdicts, the dynamic-successor graph, and maximal
// pure-flow run lengths. The plan is what engines consume; the evidence
// feeds diagnostics.
func buildReplayPlan(p *ir.Program) (*ir.ReplayPlan, *ReplayEvidence) {
	n := len(p.Blocks)
	plan := &ir.ReplayPlan{Blocks: make([]ir.BlockReplay, n)}
	ev := &ReplayEvidence{Plan: plan, Blocks: make([]BlockReplayEvidence, n)}

	for bi, blk := range p.Blocks {
		br := &plan.Blocks[bi]
		br.Class = classOf(blk)
		br.DynOps = len(blk.Dyn)
		if br.Class == ir.ReplayNoDyn {
			br.LayoutOK = true // trivially: nothing is recorded
			continue
		}
		ok, causes := proveLayout(blk)
		br.LayoutOK = ok
		ev.Blocks[bi].Causes = causes
		ev.Blocks[bi].Succ = dynSuccessors(p, bi)
		plan.DynBlocks++
		plan.DynOps += len(blk.Dyn)
		if br.Class == ir.ReplayPure && ok {
			plan.FusableBlocks++
			plan.FusableOps += len(blk.Dyn)
		}
	}

	hot := hotBlocks(p)
	for bi := range ev.Blocks {
		ev.Blocks[bi].Hot = hot[bi]
	}

	// Maximal pure-flow runs over the dynamic-successor graph: a DFS with
	// cycle capping. A back edge inside a fusable region means the engine's
	// length cap, not the graph, bounds the run.
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := make([]byte, n)
	runLen := make([]int, n)
	var walk func(bi int) int
	walk = func(bi int) int {
		if !plan.Fusable(bi) {
			return 0
		}
		switch state[bi] {
		case visiting:
			return ir.MaxFuseLen // cycle: the cap bounds the run
		case done:
			return runLen[bi]
		}
		state[bi] = visiting
		best := 0
		for _, s := range ev.Blocks[bi].Succ {
			if v := walk(s); v > best {
				best = v
			}
		}
		r := best + 1
		if r > ir.MaxFuseLen {
			r = ir.MaxFuseLen
		}
		state[bi] = done
		runLen[bi] = r
		return r
	}
	for bi := range p.Blocks {
		plan.Blocks[bi].MaxRun = walk(bi)
	}
	return plan, ev
}
