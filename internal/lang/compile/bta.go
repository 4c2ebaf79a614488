package compile

import (
	"fmt"

	"facile/internal/lang/ir"
	"facile/internal/lang/token"
	"facile/internal/lang/types"
)

// analyze runs binding-time analysis over the lowered program, marks every
// instruction rt-static or dynamic, and extracts the per-block dynamic
// segments (the actions).
//
// The analysis is the paper's §4.1 abstract interpretation: a forward
// dataflow over the lattice rt-static < dynamic. Global scalars are
// tracked flow-sensitively (a global assigned a run-time static value is
// rt-static from that point until re-assigned dynamic, per §4.1); virtual
// registers are tracked flow-insensitively — a register with any dynamic
// definition is dynamic everywhere. Binding times only increase, both
// variable sets are finite, so the fixpoint terminates (the paper's
// termination argument).
//
// Whenever a run-time static value can be observed by dynamic code — a
// static store to a dynamically-read global, or a static definition of a
// dynamic vreg — the instruction is reclassified as a *write-through*
// (BTStaticWT): the slow simulator memoizes the computed value as
// placeholder data and the fast simulator re-applies it during replay.
// This is exactly the paper's "extra data written into the specialized
// action cache whenever a run-time static value becomes dynamic" (§6.3),
// and the LiftLiveOnly option implements the liveness optimization that
// elides write-throughs no dynamic reader can observe.
//
// Evidence collection is optional (facts may be nil). When facts are
// requested, every lattice raise, first-cause edge, and queue violation is
// recorded for the vet analyzers.
func analyze(p *ir.Program, c *types.Checked, opt Options, facts *Facts) error {
	nv := p.NumVReg
	ng := len(p.Globals)

	vbt := make([]byte, nv) // flow-insensitive vreg binding times
	// in-state per block: global binding times; nil = unvisited.
	in := make([][]byte, len(p.Blocks))
	entry := make([]byte, ng)
	for g := 0; g < ng; g++ {
		entry[g] = ir.BTDynamic // globals are dynamic at step entry
	}
	in[p.Entry] = entry

	if facts != nil {
		facts.VRegCause = make([]Cause, nv)
		facts.GlobalDynStore = make([]Cause, ng)
		facts.GlobalStaticStore = make([]token.Pos, ng)
	}

	// Queue violations: the compiler's error is the first one, but all of
	// them are collected (deduplicated — the fixpoint revisits blocks) so
	// diagnostics can point at every site.
	var violations []QueueViolation
	vseen := map[QueueViolation]bool{}
	violate := func(pos token.Pos, msg string) {
		v := QueueViolation{Pos: pos, Msg: msg}
		if vseen[v] {
			return
		}
		vseen[v] = true
		violations = append(violations, v)
	}

	bt := func(v int32) byte {
		if v < 0 {
			return ir.BTStatic
		}
		return vbt[v]
	}
	// setv raises vreg d to binding time b, recording the transition and
	// (on the first raise to dynamic) the cause edge.
	setv := func(d int32, b byte, cause Cause) bool {
		if d >= 0 && vbt[d] < b {
			if facts != nil {
				facts.Transitions = append(facts.Transitions,
					Transition{VReg: d, From: vbt[d], To: b, Pos: cause.Pos})
				if b == ir.BTDynamic && facts.VRegCause[d].Kind == CauseNone {
					facts.VRegCause[d] = cause
				}
			}
			vbt[d] = b
			return true
		}
		return false
	}

	// transferOne applies one instruction; reports whether any vreg
	// binding time increased.
	transferOne := func(inst *ir.Inst, gst []byte) bool {
		switch inst.Op {
		case ir.Const:
			return false // constants are rt-static; dest stays as-is
		case ir.Mov, ir.Un, ir.Ext, ir.Fetch, ir.Pin:
			if inst.Op == ir.Pin {
				return false // pinned results are rt-static by definition
			}
			return setv(inst.D, bt(inst.A), Cause{Kind: CauseVReg, Pos: inst.Pos, From: inst.A})
		case ir.Bin:
			b := bt(inst.A)
			from := inst.A
			if bb := bt(inst.B); bb > b {
				b = bb
				from = inst.B
			}
			return setv(inst.D, b, Cause{Kind: CauseVReg, Pos: inst.Pos, From: from})
		case ir.LoadG:
			return setv(inst.D, gst[inst.Imm],
				Cause{Kind: CauseGlobal, Pos: inst.Pos, From: int32(inst.Imm)})
		case ir.StoreG:
			if facts != nil {
				if bt(inst.A) == ir.BTDynamic {
					if facts.GlobalDynStore[inst.Imm].Kind == CauseNone {
						facts.GlobalDynStore[inst.Imm] = Cause{Kind: CauseVReg, Pos: inst.Pos, From: inst.A}
					}
				} else if facts.GlobalStaticStore[inst.Imm].Line == 0 {
					facts.GlobalStaticStore[inst.Imm] = inst.Pos
				}
			}
			gst[inst.Imm] = bt(inst.A)
			return false
		case ir.LoadA:
			return setv(inst.D, ir.BTDynamic,
				Cause{Kind: CauseArray, Pos: inst.Pos, From: int32(inst.Imm)})
		case ir.CallExt:
			return setv(inst.D, ir.BTDynamic,
				Cause{Kind: CauseExtern, Pos: inst.Pos, From: int32(inst.Imm)})
		case ir.QOp:
			if inst.QID < 0 {
				if bt(inst.A) == ir.BTDynamic || bt(inst.B) == ir.BTDynamic {
					violate(inst.Pos, "dynamic value used to address a run-time static queue")
				}
				for _, a := range inst.Args {
					if bt(a) == ir.BTDynamic {
						violate(inst.Pos, "cannot store a dynamic value into a run-time static queue; route dynamic data through global state")
					}
				}
				return setv(inst.D, ir.BTStatic, Cause{})
			}
			return setv(inst.D, ir.BTDynamic,
				Cause{Kind: CauseQueue, Pos: inst.Pos, From: inst.QID})
		}
		return false
	}

	// Fixpoint: iterate the global-state dataflow; whenever a vreg binding
	// time rises, run another full round (vreg states feed global
	// transfers and vice versa; everything is monotone).
	for {
		vchanged := false
		work := make([]int, 0, len(p.Blocks))
		inWork := make([]bool, len(p.Blocks))
		for id := range p.Blocks {
			if in[id] != nil {
				work = append(work, id)
				inWork[id] = true
			}
		}
		for len(work) > 0 {
			id := work[0]
			work = work[1:]
			inWork[id] = false
			b := p.Blocks[id]
			gst := make([]byte, ng)
			copy(gst, in[id])
			for i := range b.Insts {
				if transferOne(&b.Insts[i], gst) {
					vchanged = true
				}
			}
			for _, s := range b.Succ {
				if s < 0 {
					continue
				}
				changed := false
				if in[s] == nil {
					in[s] = make([]byte, ng)
					copy(in[s], gst)
					changed = true
				} else {
					for g := 0; g < ng; g++ {
						if gst[g] == ir.BTDynamic && in[s][g] != ir.BTDynamic {
							in[s][g] = ir.BTDynamic
							changed = true
						}
					}
				}
				if changed && !inWork[s] {
					work = append(work, s)
					inWork[s] = true
				}
			}
		}
		if !vchanged {
			break
		}
	}

	// Marking pass A: classify instructions and find globals that are ever
	// read by dynamic code (their rt-static stores must write through).
	dynRead := make([]bool, ng)
	classify := func(b *ir.Block) {
		gst := make([]byte, ng)
		copy(gst, in[b.ID])
		for i := range b.Insts {
			inst := &b.Insts[i]
			var dyn bool
			switch inst.Op {
			case ir.Const:
				dyn = vbt[inst.D] == ir.BTDynamic // materialized constant
			case ir.Mov, ir.Un, ir.Ext, ir.Fetch:
				dyn = bt(inst.A) == ir.BTDynamic
			case ir.Bin:
				dyn = bt(inst.A) == ir.BTDynamic || bt(inst.B) == ir.BTDynamic
			case ir.LoadG:
				dyn = gst[inst.Imm] == ir.BTDynamic
				if dyn {
					dynRead[inst.Imm] = true
				}
			case ir.StoreG:
				dyn = bt(inst.A) == ir.BTDynamic
			case ir.LoadA, ir.StoreA, ir.CallExt:
				dyn = true
			case ir.QOp:
				dyn = inst.QID >= 0
			case ir.SetArg, ir.Pin:
				dyn = bt(inst.A) == ir.BTDynamic
			}
			if dyn {
				inst.BT = ir.BTDynamic
				p.NumDynamic++
			} else {
				inst.BT = ir.BTStatic
				p.NumStatic++
			}
			transferOne(inst, gst)
		}
		if b.Term.Op == ir.Br {
			if bt(b.Term.A) == ir.BTDynamic {
				b.Term.BT = ir.BTDynamic
				p.NumDynamic++
			} else {
				b.Term.BT = ir.BTStatic
				p.NumStatic++
			}
		}
	}
	for _, b := range p.Blocks {
		if in[b.ID] == nil {
			continue // unreachable
		}
		classify(b)
	}

	// Marking pass B: build dynamic segments. Rules:
	//   - dynamic instructions execute during replay, reading dynamic
	//     vregs, recorded placeholders (rt-static operands), or constants;
	//   - rt-static instructions whose destination vreg is dynamic are
	//     write-throughs: the slow simulator records the computed value,
	//     the fast simulator re-applies it (Mov dest <- placeholder);
	//   - rt-static stores to dynamically-read globals write through the
	//     stored value the same way.
	for _, b := range p.Blocks {
		if in[b.ID] == nil {
			continue
		}
		consts := map[int32]int64{} // vreg -> known constant within block
		src := func(v int32) ir.Src {
			if v < 0 {
				return ir.Src{Kind: ir.SrcNone}
			}
			if vbt[v] == ir.BTDynamic {
				return ir.Src{Kind: ir.SrcVReg, VReg: v}
			}
			if cv, ok := consts[v]; ok {
				return ir.Src{Kind: ir.SrcConst, Const: cv}
			}
			return ir.Src{Kind: ir.SrcPh, VReg: v}
		}
		countPh := func(ss ...ir.Src) {
			for _, s := range ss {
				if s.Kind == ir.SrcPh {
					b.NPh++
				}
			}
		}
		b.Dyn = nil
		b.NPh = 0
		b.DynTerm = ir.DTNone
		for i := range b.Insts {
			inst := &b.Insts[i]
			if inst.BT == ir.BTStatic {
				switch {
				case inst.Op == ir.StoreG && (!opt.LiftLiveOnly || dynRead[inst.Imm]):
					// rt-static global store: write through the value
					inst.BT = ir.BTStaticWT
					di := ir.DynInst{Op: ir.StoreG, Imm: inst.Imm,
						A: ir.Src{Kind: ir.SrcPh, VReg: inst.A}, Pos: inst.Pos}
					if inst.A < 0 {
						di.A = ir.Src{Kind: ir.SrcConst}
					}
					b.NPh++
					b.Dyn = append(b.Dyn, di)
				case inst.Op != ir.StoreG && inst.Op != ir.SetArg && inst.Op != ir.Pin &&
					inst.D >= 0 && vbt[inst.D] == ir.BTDynamic:
					// rt-static value flowing into a dynamic vreg:
					// materialize the result for the fast simulator
					inst.BT = ir.BTStaticWT
					b.NPh++
					b.Dyn = append(b.Dyn, ir.DynInst{Op: ir.Mov, D: inst.D,
						A: ir.Src{Kind: ir.SrcPh, VReg: inst.D}, Pos: inst.Pos})
				case inst.Op == ir.Const:
					consts[inst.D] = inst.Imm
				}
				if inst.BT == ir.BTStatic {
					// Track constants through rt-static moves for
					// placeholder folding.
					if inst.Op == ir.Mov {
						if cv, ok := consts[inst.A]; ok {
							consts[inst.D] = cv
						} else {
							delete(consts, inst.D)
						}
					} else if inst.D >= 0 && inst.Op != ir.Const {
						delete(consts, inst.D)
					}
					continue
				}
				if inst.D >= 0 {
					delete(consts, inst.D)
				}
				continue
			}
			// dynamic instructions
			if inst.D >= 0 {
				delete(consts, inst.D)
			}
			switch inst.Op {
			case ir.SetArg:
				// block-final by construction: a dynamic-result test
				// pinning the next key component
				b.DynTerm = ir.DTSetArg
				b.ArgIdx = int(inst.Imm)
				b.TermSrc = src(inst.A)
			case ir.Pin:
				b.DynTerm = ir.DTPin
				b.PinDst = inst.D
				b.TermSrc = src(inst.A)
			default:
				di := ir.DynInst{Op: inst.Op, Sub: inst.Sub, D: inst.D, Imm: inst.Imm, QID: inst.QID, Pos: inst.Pos}
				// Classify exactly the operands each op reads; unused
				// operand fields are zero-valued, not vreg 0.
				switch inst.Op {
				case ir.Const:
					di.A = ir.Src{Kind: ir.SrcConst, Const: inst.Imm}
					di.Op = ir.Mov
				case ir.Mov, ir.Un, ir.Ext, ir.Fetch, ir.LoadA, ir.StoreG:
					di.A = src(inst.A)
				case ir.Bin, ir.StoreA:
					di.A = src(inst.A)
					di.B = src(inst.B)
				case ir.QOp:
					switch inst.Sub {
					case ir.QGet, ir.QSet:
						di.A = src(inst.A)
						di.B = src(inst.B)
					case ir.QFront:
						di.A = src(inst.A)
					}
				}
				for _, a := range inst.Args {
					di.Args = append(di.Args, src(a))
				}
				countPh(di.A, di.B)
				countPh(di.Args...)
				b.Dyn = append(b.Dyn, di)
			}
		}
		switch b.Term.Op {
		case ir.Br:
			if b.Term.BT == ir.BTDynamic {
				if b.DynTerm == ir.DTSetArg || b.DynTerm == ir.DTPin {
					return &Error{Pos: b.Term.Pos, Msg: "internal: dynamic-result block also ends in a dynamic branch"}
				}
				b.DynTerm = ir.DTBr
				b.TermSrc = ir.Src{Kind: ir.SrcVReg, VReg: b.Term.A}
			}
		case ir.Ret:
			if b.DynTerm != ir.DTNone {
				return &Error{Pos: b.Term.Pos, Msg: "internal: dynamic-result block ends in Ret"}
			}
			b.DynTerm = ir.DTRet
		}
		b.HasDyn = len(b.Dyn) > 0 || b.DynTerm != ir.DTNone
	}
	if facts != nil {
		facts.VRegBT = append([]byte(nil), vbt...)
		facts.DynRead = dynRead
		facts.QueueViolations = violations
	}
	if len(violations) > 0 {
		// Same contract as before facts existed: the compile error is the
		// first violation encountered; the rest live in the facts.
		return &Error{Pos: violations[0].Pos, Msg: violations[0].Msg}
	}
	return nil
}

// DumpBTA renders a binding-time summary for tests and the compiler driver.
func DumpBTA(p *ir.Program) string {
	return fmt.Sprintf("static=%d dynamic=%d blocks=%d vregs=%d",
		p.NumStatic, p.NumDynamic, len(p.Blocks), p.NumVReg)
}
