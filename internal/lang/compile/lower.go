// Package compile lowers checked Facile programs to IR, runs binding-time
// analysis, and extracts the dynamic segments the fast simulator replays.
//
// Lowering inlines every call (Facile forbids recursion, so this
// terminates); whole-program inlining gives the precision of the paper's
// polyvariant binding-time analysis at the cost of code growth — the same
// trade the paper's compiler makes. The `?exec()` attribute and pattern
// switches expand into a decode decision tree over the declared patterns,
// with field extractions bound as virtual registers and sem bodies inlined
// at each dispatch site.
package compile

import (
	"fmt"

	"facile/internal/lang/ast"
	"facile/internal/lang/ir"
	"facile/internal/lang/token"
	"facile/internal/lang/types"
)

// Error is a compile-time error with position information.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Options control optional compiler behavior.
type Options struct {
	// LiftLiveOnly enables the liveness optimization of paper §6.3 (#3):
	// write-throughs are skipped for globals no dynamic reader observes,
	// shrinking both the action stream and the cache.
	LiftLiveOnly bool

	// NoOptimize disables constant folding / copy propagation / dead-code
	// elimination (paper §6.3 #5), for ablation measurements.
	NoOptimize bool
}

// Compile lowers a checked program and runs BTA, action extraction and
// replay planning. It collects no analysis evidence and returns no
// program on error.
func Compile(c *types.Checked, opt Options) (*ir.Program, error) {
	return compile(c, opt, nil)
}

// compile is the one pipeline behind Compile and CompileWithFacts: lower,
// optimize, binding-time analysis, replay plan. facts, when non-nil,
// receives the analysis evidence, and the program is then returned fully
// analyzed and planned even on a binding-time error, so diagnostics can
// point at every violating site. Without facts an error returns no
// program.
func compile(c *types.Checked, opt Options, facts *Facts) (*ir.Program, error) {
	lw := &lowerer{c: c, p: &ir.Program{}}
	lw.declare()
	if err := lw.lowerMain(); err != nil {
		return nil, err
	}
	if !opt.NoOptimize {
		optimize(lw.p)
	}
	err := analyze(lw.p, c, opt, facts)
	if err != nil && facts == nil {
		return nil, err
	}
	var ev *ReplayEvidence
	lw.p.Replay, ev = buildReplayPlan(lw.p)
	if facts != nil {
		facts.Replay = ev
	}
	return lw.p, err
}

type loopCtx struct {
	breakTo, contTo int
}

type frame struct {
	locals map[string]int32 // params and locals -> vreg
	fields map[string]int32 // decoded fields in scope -> vreg
	word   int32            // decoded token word vreg (fields derive from it)
	retReg int32
	retBlk int
}

type lowerer struct {
	c      *types.Checked
	p      *ir.Program
	blocks []*ir.Block
	cur    *ir.Block
	nv     int32
	loops  []loopCtx
	frames []*frame
	depth  int
	err    error
}

func (lw *lowerer) errorf(pos token.Pos, format string, args ...any) {
	if lw.err == nil {
		lw.err = &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
	}
}

func (lw *lowerer) declare() {
	c := lw.c
	// Dense global tables in deterministic declaration order.
	lw.p.Globals = make([]ir.GlobalDecl, len(c.GlobalIdx))
	lw.p.Arrays = make([]ir.ArrayDecl, len(c.Arrays))
	lw.p.QueuesG = make([]ir.QueueDecl, len(c.Queues))
	for _, g := range c.Prog.Globals {
		switch g.Kind {
		case ast.ValArray:
			lw.p.Arrays[c.Arrays[g.Name]] = ir.ArrayDecl{Name: g.Name, Len: g.ArrayLen, Init: g.ArrayInit}
		case ast.ValQueue:
			lw.p.QueuesG[c.Queues[g.Name]] = ir.QueueDecl{Name: g.Name, Cap: g.QueueCap, Width: g.QueueW}
		default:
			init := int64(0)
			if g.Init != nil {
				init, _ = types.ConstFold(g.Init)
			}
			lw.p.Globals[c.GlobalIdx[g.Name]] = ir.GlobalDecl{Name: g.Name, Init: init}
		}
	}
	lw.p.Externs = make([]string, len(c.ExternIdx))
	for name, i := range c.ExternIdx {
		lw.p.Externs[i] = name
	}
	for _, prm := range c.Main.Params {
		pd := ir.ParamDecl{Name: prm.Name}
		if prm.Kind == ast.ParamQueue {
			pd.IsQueue = true
			pd.Queue = ir.QueueDecl{Name: prm.Name, Cap: prm.QueueCap, Width: prm.QueueW}
		}
		lw.p.Params = append(lw.p.Params, pd)
	}
}

func (lw *lowerer) newVReg() int32 {
	v := lw.nv
	lw.nv++
	return v
}

func (lw *lowerer) newBlock() *ir.Block {
	b := &ir.Block{ID: len(lw.blocks), Succ: [2]int{-1, -1}}
	lw.blocks = append(lw.blocks, b)
	return b
}

func (lw *lowerer) emit(in ir.Inst) {
	lw.cur.Insts = append(lw.cur.Insts, in)
}

// jmp terminates the current block with a jump to to, unless it already
// has a terminator (break/continue/return ended it). The synthesized
// terminator inherits the position of the last real instruction in the
// block so no control edge is left without a source span.
func (lw *lowerer) jmp(to *ir.Block) {
	if !lw.cur.Terminated() {
		lw.cur.Term = ir.Inst{Op: ir.Jmp, Pos: lw.lastPos()}
		lw.cur.Succ[0] = to.ID
	}
}

// lastPos returns the position of the most recent instruction emitted into
// the current block, for synthesized terminators.
func (lw *lowerer) lastPos() token.Pos {
	for i := len(lw.cur.Insts) - 1; i >= 0; i-- {
		if lw.cur.Insts[i].Pos.Line > 0 {
			return lw.cur.Insts[i].Pos
		}
	}
	return token.Pos{}
}

// nameVReg records the source binding a vreg stands for.
func (lw *lowerer) nameVReg(v int32, name, kind string, pos token.Pos) {
	if lw.p.VRegNames == nil {
		lw.p.VRegNames = map[int32]ir.VRegName{}
	}
	lw.p.VRegNames[v] = ir.VRegName{Name: name, Kind: kind, Pos: pos}
}

func (lw *lowerer) br(cond int32, then, els *ir.Block, pos token.Pos) {
	lw.cur.Term = ir.Inst{Op: ir.Br, A: cond, Pos: pos}
	lw.cur.Succ = [2]int{then.ID, els.ID}
}

func (lw *lowerer) ret(pos token.Pos) {
	lw.cur.Term = ir.Inst{Op: ir.Ret, Pos: pos}
	lw.cur.Succ = [2]int{-1, -1}
}

const maxInlineDepth = 64

func (lw *lowerer) lowerMain() error {
	main := lw.c.Main
	f := &frame{locals: map[string]int32{}, fields: map[string]int32{}, retReg: -1, retBlk: -1, word: -1}
	// Integer parameters occupy the first vregs, seeded by the runtime.
	for _, prm := range main.Params {
		if prm.Kind == ast.ParamInt {
			v := lw.newVReg()
			f.locals[prm.Name] = v
			lw.nameVReg(v, prm.Name, "param", prm.P)
		}
	}
	lw.frames = append(lw.frames, f)
	entry := lw.newBlock()
	lw.p.Entry = entry.ID
	lw.cur = entry
	lw.block(main.Body)
	if !lw.cur.Terminated() {
		lw.ret(main.P)
	}
	// Unreachable continuation blocks (after break/continue/return) may be
	// left unterminated; seal them as returns carrying the position of the
	// block's last instruction (or of main as a fallback).
	for _, b := range lw.blocks {
		if !b.Terminated() {
			pos := main.P
			for i := len(b.Insts) - 1; i >= 0; i-- {
				if b.Insts[i].Pos.Line > 0 {
					pos = b.Insts[i].Pos
					break
				}
			}
			b.Term = ir.Inst{Op: ir.Ret, Pos: pos}
			b.Succ = [2]int{-1, -1}
		}
	}
	lw.p.Blocks = lw.blocks
	lw.p.NumVReg = int(lw.nv)
	return lw.err
}

func (lw *lowerer) frame() *frame { return lw.frames[len(lw.frames)-1] }

// lookupVar resolves an identifier to a vreg (locals, params, fields) or a
// global index.
func (lw *lowerer) lookupVar(name string) (vreg int32, gidx int, isVReg bool, ok bool) {
	f := lw.frame()
	if v, found := f.locals[name]; found {
		return v, 0, true, true
	}
	if v, found := f.fields[name]; found {
		return v, 0, true, true
	}
	if gi, found := lw.c.GlobalIdx[name]; found {
		return 0, gi, false, true
	}
	return 0, 0, false, false
}

// queueID resolves a queue name to its IR identity (>= 0 global queues,
// negative encodings for main queue parameters).
func (lw *lowerer) queueID(name string) (int32, bool) {
	if qi, ok := lw.c.Queues[name]; ok {
		return int32(qi), true
	}
	for i, prm := range lw.c.Main.Params {
		if prm.Kind == ast.ParamQueue && prm.Name == name {
			return int32(^i), true
		}
	}
	return 0, false
}

// ------------------------------------------------------------ statements --

func (lw *lowerer) block(b *ast.Block) {
	// Block-scoped locals: save and restore the name map.
	f := lw.frame()
	saved := make(map[string]int32, len(f.locals))
	for k, v := range f.locals {
		saved[k] = v
	}
	for _, s := range b.Stmts {
		lw.stmt(s)
		if lw.err != nil {
			return
		}
	}
	f.locals = saved
}

func (lw *lowerer) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.Block:
		lw.block(s)
	case *ast.LocalDecl:
		v := lw.newVReg()
		if s.Decl.Init != nil {
			src := lw.expr(s.Decl.Init)
			lw.emit(ir.Inst{Op: ir.Mov, D: v, A: src, Pos: s.Decl.P})
		} else {
			lw.emit(ir.Inst{Op: ir.Const, D: v, Imm: 0, Pos: s.Decl.P})
		}
		lw.frame().locals[s.Decl.Name] = v
		lw.nameVReg(v, s.Decl.Name, "local", s.Decl.P)
	case *ast.Assign:
		lw.assign(s)
	case *ast.If:
		cond := lw.expr(s.Cond)
		then := lw.newBlock()
		join := lw.newBlock()
		els := join
		if s.Else != nil {
			els = lw.newBlock()
		}
		lw.br(cond, then, els, s.P)
		lw.cur = then
		lw.block(s.Then)
		lw.jmp(join)
		if s.Else != nil {
			lw.cur = els
			lw.stmt(s.Else)
			lw.jmp(join)
		}
		lw.cur = join
	case *ast.While:
		head := lw.newBlock()
		body := lw.newBlock()
		exit := lw.newBlock()
		lw.jmp(head)
		lw.cur = head
		cond := lw.expr(s.Cond)
		lw.br(cond, body, exit, s.P)
		lw.loops = append(lw.loops, loopCtx{breakTo: exit.ID, contTo: head.ID})
		lw.cur = body
		lw.block(s.Body)
		lw.jmp(head)
		lw.loops = lw.loops[:len(lw.loops)-1]
		lw.cur = exit
	case *ast.Break:
		lw.cur.Term = ir.Inst{Op: ir.Jmp, Pos: s.P}
		lw.cur.Succ[0] = lw.loops[len(lw.loops)-1].breakTo
		lw.cur = lw.newBlock() // unreachable continuation
	case *ast.Continue:
		lw.cur.Term = ir.Inst{Op: ir.Jmp, Pos: s.P}
		lw.cur.Succ[0] = lw.loops[len(lw.loops)-1].contTo
		lw.cur = lw.newBlock()
	case *ast.Return:
		f := lw.frame()
		if f.retBlk < 0 {
			// return from main ends the step
			lw.ret(s.P)
			lw.cur = lw.newBlock()
			return
		}
		if s.Value != nil {
			v := lw.expr(s.Value)
			lw.emit(ir.Inst{Op: ir.Mov, D: f.retReg, A: v, Pos: s.P})
		}
		lw.cur.Term = ir.Inst{Op: ir.Jmp, Pos: s.P}
		lw.cur.Succ[0] = f.retBlk
		lw.cur = lw.newBlock()
	case *ast.Switch:
		lw.intSwitch(s)
	case *ast.PatSwitch:
		subj := lw.expr(s.Subject)
		lw.dispatch(subj, s.Cases, s.Default, s.P)
	case *ast.ExprStmt:
		lw.expr(s.X)
	}
}

func (lw *lowerer) assign(s *ast.Assign) {
	v := lw.expr(s.Value)
	switch t := s.Target.(type) {
	case *ast.Ident:
		if vr, gi, isV, ok := lw.lookupVar(t.Name); ok {
			if isV {
				lw.emit(ir.Inst{Op: ir.Mov, D: vr, A: v, Pos: s.P})
			} else {
				lw.emit(ir.Inst{Op: ir.StoreG, Imm: int64(gi), A: v, Pos: s.P})
			}
			return
		}
		lw.errorf(t.P, "assignment to unresolved %q", t.Name)
	case *ast.Index:
		arr := t.Arr.(*ast.Ident)
		ai := lw.c.Arrays[arr.Name]
		idx := lw.expr(t.Idx)
		lw.emit(ir.Inst{Op: ir.StoreA, Imm: int64(ai), A: idx, B: v, Pos: s.P})
	}
}

func (lw *lowerer) intSwitch(s *ast.Switch) {
	subj := lw.expr(s.Subject)
	join := lw.newBlock()
	for _, cse := range s.Cases {
		body := lw.newBlock()
		// cond = subj == v0 || subj == v1 ...
		cond := int32(-1)
		for _, val := range cse.Vals {
			c := lw.newVReg()
			cv := lw.newVReg()
			lw.emit(ir.Inst{Op: ir.Const, D: cv, Imm: val, Pos: cse.P})
			lw.emit(ir.Inst{Op: ir.Bin, Sub: uint8(token.EQ), D: c, A: subj, B: cv, Pos: cse.P})
			if cond < 0 {
				cond = c
			} else {
				d := lw.newVReg()
				lw.emit(ir.Inst{Op: ir.Bin, Sub: uint8(token.LOR), D: d, A: cond, B: c, Pos: cse.P})
				cond = d
			}
		}
		next := lw.newBlock()
		lw.br(cond, body, next, cse.P)
		lw.cur = body
		lw.block(cse.Body)
		lw.jmp(join)
		lw.cur = next
	}
	if s.Default != nil {
		lw.block(s.Default)
	}
	lw.jmp(join)
	lw.cur = join
}

// ----------------------------------------------------------- expressions --

func (lw *lowerer) expr(e ast.Expr) int32 {
	switch e := e.(type) {
	case *ast.IntLit:
		v := lw.newVReg()
		lw.emit(ir.Inst{Op: ir.Const, D: v, Imm: e.Val, Pos: e.P})
		return v
	case *ast.Ident:
		if vr, gi, isV, ok := lw.lookupVar(e.Name); ok {
			if isV {
				return vr
			}
			v := lw.newVReg()
			lw.emit(ir.Inst{Op: ir.LoadG, D: v, Imm: int64(gi), Pos: e.P})
			return v
		}
		// Decoded token fields, in scope inside sem bodies and pattern
		// cases, are extracted lazily from the dispatched word.
		if f := lw.frame(); f.word >= 0 {
			if _, isField := lw.c.Fields[e.Name]; isField {
				return lw.fieldVReg(e.Name, f.word, e.P)
			}
		}
		lw.errorf(e.P, "unresolved identifier %q", e.Name)
		return lw.zero(e.P)
	case *ast.Index:
		arr := e.Arr.(*ast.Ident)
		ai := lw.c.Arrays[arr.Name]
		idx := lw.expr(e.Idx)
		v := lw.newVReg()
		lw.emit(ir.Inst{Op: ir.LoadA, D: v, Imm: int64(ai), A: idx, Pos: e.P})
		return v
	case *ast.Unary:
		x := lw.expr(e.X)
		v := lw.newVReg()
		lw.emit(ir.Inst{Op: ir.Un, Sub: uint8(e.Op), D: v, A: x, Pos: e.P})
		return v
	case *ast.Binary:
		l := lw.expr(e.L)
		r := lw.expr(e.R)
		v := lw.newVReg()
		lw.emit(ir.Inst{Op: ir.Bin, Sub: uint8(e.Op), D: v, A: l, B: r, Pos: e.P})
		return v
	case *ast.Call:
		return lw.call(e)
	case *ast.Attr:
		return lw.attr(e)
	}
	lw.errorf(e.Pos(), "unsupported expression")
	return lw.zero(e.Pos())
}

func (lw *lowerer) zero(pos token.Pos) int32 {
	v := lw.newVReg()
	lw.emit(ir.Inst{Op: ir.Const, D: v, Imm: 0, Pos: pos})
	return v
}

func (lw *lowerer) call(e *ast.Call) int32 {
	if e.Name == types.SetArgs {
		argIdx := 0
		for i, a := range e.Args {
			if i < len(lw.c.Main.Params) && lw.c.Main.Params[i].Kind == ast.ParamQueue {
				// Queue state is carried implicitly: the key snapshot reads
				// the queue's contents at step end.
				continue
			}
			v := lw.expr(a)
			lw.emit(ir.Inst{Op: ir.SetArg, Imm: int64(argIdx), A: v, Pos: e.P})
			argIdx++
			// Dynamic SetArgs become dynamic-result tests; block-final
			// position keeps action nodes aligned with blocks.
			nb := lw.newBlock()
			lw.jmp(nb)
			lw.cur = nb
		}
		return lw.zero(e.P)
	}
	if xi, ok := lw.c.ExternIdx[e.Name]; ok {
		args := make([]int32, len(e.Args))
		for i, a := range e.Args {
			args[i] = lw.expr(a)
		}
		v := lw.newVReg()
		lw.emit(ir.Inst{Op: ir.CallExt, D: v, Imm: int64(xi), Args: args, Pos: e.P})
		return v
	}
	f := lw.c.Funs[e.Name]
	if f == nil {
		lw.errorf(e.P, "call to unknown function %q", e.Name)
		return lw.zero(e.P)
	}
	return lw.inline(f, e)
}

// inline expands a Facile function call in place with fresh vregs.
func (lw *lowerer) inline(f *ast.FunDecl, e *ast.Call) int32 {
	lw.depth++
	defer func() { lw.depth-- }()
	if lw.depth > maxInlineDepth {
		lw.errorf(e.P, "call nesting exceeds %d (recursion should have been rejected)", maxInlineDepth)
		return lw.zero(e.P)
	}
	nf := &frame{locals: map[string]int32{}, fields: map[string]int32{}, retReg: lw.newVReg(), word: -1}
	lw.emit(ir.Inst{Op: ir.Const, D: nf.retReg, Imm: 0, Pos: e.P})
	for i, prm := range f.Params {
		av := lw.expr(e.Args[i])
		pv := lw.newVReg()
		lw.emit(ir.Inst{Op: ir.Mov, D: pv, A: av, Pos: e.P})
		nf.locals[prm.Name] = pv
		lw.nameVReg(pv, prm.Name, "param", prm.P)
	}
	cont := lw.newBlock()
	nf.retBlk = cont.ID
	lw.frames = append(lw.frames, nf)
	lw.block(f.Body)
	lw.jmp(cont)
	lw.frames = lw.frames[:len(lw.frames)-1]
	lw.cur = cont
	return nf.retReg
}

func (lw *lowerer) attr(e *ast.Attr) int32 {
	// Queue attributes.
	if id, ok := e.X.(*ast.Ident); ok {
		if qid, isQ := lw.queueID(id.Name); isQ {
			return lw.queueAttr(e, qid)
		}
	}
	switch e.Name {
	case "sext", "zext":
		x := lw.expr(e.X)
		bits, _ := types.ConstFold(e.Args[0])
		sub := uint8(0)
		if e.Name == "sext" {
			sub = 1
		}
		v := lw.newVReg()
		lw.emit(ir.Inst{Op: ir.Ext, Sub: sub, D: v, A: x, Imm: bits, Pos: e.P})
		return v
	case "fetch":
		x := lw.expr(e.X)
		v := lw.newVReg()
		lw.emit(ir.Inst{Op: ir.Fetch, D: v, A: x, Pos: e.P})
		return v
	case "pin":
		// The paper's dynamic result test: the pinned value becomes
		// run-time static along each recorded control path. Block-final so
		// action nodes can fork on it.
		x := lw.expr(e.X)
		v := lw.newVReg()
		lw.emit(ir.Inst{Op: ir.Pin, D: v, A: x, Pos: e.P})
		nb := lw.newBlock()
		lw.jmp(nb)
		lw.cur = nb
		return v
	case "exec":
		x := lw.expr(e.X)
		// Dispatch over every pattern that has semantics, in declaration
		// order (the paper's generated decode-and-dispatch function).
		var cases []*ast.PatCase
		for _, name := range lw.c.PatOrder {
			if sem, ok := lw.c.Sems[name]; ok {
				cases = append(cases, &ast.PatCase{PatName: name, Body: sem.Body, P: sem.P})
			}
		}
		lw.dispatch(x, cases, nil, e.P)
		return lw.zero(e.P)
	}
	lw.errorf(e.P, "unknown attribute ?%s", e.Name)
	return lw.zero(e.P)
}

func (lw *lowerer) queueAttr(e *ast.Attr, qid int32) int32 {
	sub := map[string]uint8{
		"size": ir.QSize, "push": ir.QPush, "pop": ir.QPop, "get": ir.QGet,
		"set": ir.QSet, "front": ir.QFront, "full": ir.QFull, "clear": ir.QClear,
	}[e.Name]
	in := ir.Inst{Op: ir.QOp, Sub: sub, QID: qid, A: -1, B: -1, Pos: e.P}
	switch sub {
	case ir.QPush:
		for _, a := range e.Args {
			in.Args = append(in.Args, lw.expr(a))
		}
	case ir.QGet:
		in.A = lw.expr(e.Args[0])
		in.B = lw.expr(e.Args[1])
	case ir.QSet:
		in.A = lw.expr(e.Args[0])
		in.B = lw.expr(e.Args[1])
		in.Args = []int32{lw.expr(e.Args[2])}
	case ir.QFront:
		in.A = lw.expr(e.Args[0])
	}
	v := lw.newVReg()
	in.D = v
	lw.emit(in)
	return v
}

// dispatch lowers a pattern switch (or ?exec) on the instruction at
// address addr: fetch the token word, then test each case's pattern in
// order, binding its fields in scope of the case body.
func (lw *lowerer) dispatch(addr int32, cases []*ast.PatCase, def *ast.Block, pos token.Pos) {
	word := lw.newVReg()
	lw.emit(ir.Inst{Op: ir.Fetch, D: word, A: addr, Pos: pos})
	// When every case discriminates on one field with distinct constants,
	// compile a binary-search decision tree instead of a linear chain.
	if field, leaves, ok := lw.analyzeTree(cases); ok {
		lw.dispatchTree(word, field, leaves, cases, def, pos)
		return
	}
	join := lw.newBlock()
	f := lw.frame()
	savedFields, savedWord := f.fields, f.word
	for _, cse := range cases {
		// Fields are extracted fresh per case arm so each arm's extraction
		// set stays minimal.
		f.fields = map[string]int32{}
		f.word = word
		cond := lw.patCond(lw.c.Pats[cse.PatName].Expr, word)
		body := lw.newBlock()
		next := lw.newBlock()
		lw.br(cond, body, next, cse.P)
		lw.cur = body
		lw.block(cse.Body)
		lw.jmp(join)
		lw.cur = next
	}
	f.fields, f.word = savedFields, savedWord
	if def != nil {
		lw.block(def)
	}
	lw.jmp(join)
	lw.cur = join
}

// fieldVReg extracts a token field from word, memoizing the extraction in
// the current frame.
func (lw *lowerer) fieldVReg(name string, word int32, pos token.Pos) int32 {
	f := lw.frame()
	if v, ok := f.fields[name]; ok {
		return v
	}
	fd := lw.c.Fields[name]
	sh := lw.newVReg()
	lw.emit(ir.Inst{Op: ir.Const, D: sh, Imm: int64(fd.Lo), Pos: pos})
	t := lw.newVReg()
	lw.emit(ir.Inst{Op: ir.Bin, Sub: uint8(token.SHR), D: t, A: word, B: sh, Pos: pos})
	mk := lw.newVReg()
	width := fd.Hi - fd.Lo + 1
	mask := int64(1)<<uint(width) - 1
	lw.emit(ir.Inst{Op: ir.Const, D: mk, Imm: mask, Pos: pos})
	v := lw.newVReg()
	lw.emit(ir.Inst{Op: ir.Bin, Sub: uint8(token.AMP), D: v, A: t, B: mk, Pos: pos})
	f.fields[name] = v
	lw.nameVReg(v, name, "field", fd.P)
	return v
}

// patCond lowers a pattern expression into a condition vreg over word.
func (lw *lowerer) patCond(e ast.Expr, word int32) int32 {
	switch e := e.(type) {
	case *ast.IntLit:
		v := lw.newVReg()
		lw.emit(ir.Inst{Op: ir.Const, D: v, Imm: e.Val, Pos: e.P})
		return v
	case *ast.Ident:
		if _, isField := lw.c.Fields[e.Name]; isField {
			return lw.fieldVReg(e.Name, word, e.P)
		}
		// pattern reference: expand
		return lw.patCond(lw.c.Pats[e.Name].Expr, word)
	case *ast.Unary:
		x := lw.patCond(e.X, word)
		v := lw.newVReg()
		lw.emit(ir.Inst{Op: ir.Un, Sub: uint8(e.Op), D: v, A: x, Pos: e.P})
		return v
	case *ast.Binary:
		l := lw.patCond(e.L, word)
		r := lw.patCond(e.R, word)
		v := lw.newVReg()
		lw.emit(ir.Inst{Op: ir.Bin, Sub: uint8(e.Op), D: v, A: l, B: r, Pos: e.P})
		return v
	}
	lw.errorf(e.Pos(), "invalid pattern expression")
	return lw.zero(e.Pos())
}
