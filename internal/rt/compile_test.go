package rt

import (
	"testing"

	"facile/internal/faults"
	"facile/internal/lang/ir"
)

// minProgram is the smallest runnable program: one empty block with a Ret
// terminator, no parameters, no globals.
func minProgram() *ir.Program {
	return &ir.Program{
		Blocks: []*ir.Block{{ID: 0, Term: ir.Inst{Op: ir.Ret}}},
	}
}

// TestMissRecoverEmptyPathDegrades drives the defensive guard in
// missRecover directly: every dynamic-result terminator appends its value
// to m.path before the fork lookup, so only corrupted cache data can
// present a mid-step miss with an empty path. The guard must degrade the
// step as a structural fault — never index path[len-1], never count a
// value miss.
func TestMissRecoverEmptyPathDegrades(t *testing.T) {
	m := New(minProgram(), nil, Options{Memoize: true})
	m.curKey = buildKey(m.argI, m.argQ)
	m.started = true
	e := &centry{Key: m.curKey, First: &node{blockID: 0}}
	m.ac.Put(e)
	m.stepKey = e.Key
	m.path = m.path[:0]
	m.nodes = 0
	if err := m.missRecover(e.First, e); err != nil {
		t.Fatalf("missRecover: %v", err)
	}
	st := m.Stats()
	if f := m.LastFault(); f == nil || f.Kind != faults.BrokenChain {
		t.Fatalf("fault = %v, want BrokenChain", m.LastFault())
	}
	if st.DegradedSteps != 1 || st.Invalidations != 1 {
		t.Errorf("expected one degraded step and one invalidation: %+v", st)
	}
	if st.Misses != 0 {
		t.Errorf("a structural fault must not count as a value miss: %+v", st)
	}
}

// TestFusedStateDiscardedOnCverBump pins the derived-state contract: a
// superinstruction built for a node is valid only while the owning entry's
// cver is unchanged, and both fault injection and invalidation move it.
func TestFusedStateDiscardedOnCverBump(t *testing.T) {
	m := New(minProgram(), nil, Options{Memoize: true})
	e := &centry{Key: "", First: &node{blockID: 0}}
	m.ac.Put(e)
	n := e.First
	n.fused = m.buildFused(n)
	n.fusedVer = e.CVer
	m.ac.Invalidate(e)
	if n.fusedVer == e.CVer {
		t.Fatal("invalidate did not bump cver; stale fused state would survive")
	}
	n.fusedVer = e.CVer
	m.injectFault(e, faults.InjFlipFork)
	if n.fusedVer == e.CVer {
		t.Fatal("injectFault did not bump cver; stale fused state would survive")
	}
}

// forkHeadProgram models the PR-8 corner: the first dynamic block of a
// step ends in a dynamic branch test (a fork), followed by a straight
// line of pure-flow blocks. A miss at that head fork degrades the whole
// step before any fused work runs, so the builder must never start a
// superinstruction there.
func forkHeadProgram() *ir.Program {
	pure := func(id int) *ir.Block {
		return &ir.Block{
			ID:     id,
			HasDyn: true,
			Dyn:    []ir.DynInst{{Op: ir.Mov, D: 0, A: ir.Src{Kind: ir.SrcConst, Const: 1}}},
			Term:   ir.Inst{Op: ir.Ret},
		}
	}
	fork := &ir.Block{
		ID:      0,
		HasDyn:  true,
		DynTerm: ir.DTBr,
		TermSrc: ir.Src{Kind: ir.SrcVReg},
		Term:    ir.Inst{Op: ir.Br},
	}
	return &ir.Program{Blocks: []*ir.Block{fork, pure(1), pure(2)}}
}

// TestForkAtRunHeadSeversFusion drives buildFused over a fork-headed
// chain with a static replay plan attached: the fork block is not even
// compiled, the run starting at the fork stays empty, and the same pure
// tail entered one node later fuses normally.
func TestForkAtRunHeadSeversFusion(t *testing.T) {
	plan := &ir.ReplayPlan{
		Blocks: []ir.BlockReplay{
			{Class: ir.ReplayFork},
			{Class: ir.ReplayPure, LayoutOK: true, MaxRun: 2, DynOps: 1},
			{Class: ir.ReplayPure, LayoutOK: true, MaxRun: 1, DynOps: 1},
		},
		DynBlocks: 3, FusableBlocks: 2, DynOps: 3, FusableOps: 2,
	}
	t.Run("planned", func(t *testing.T) {
		p := forkHeadProgram()
		p.Replay = plan
		m := New(p, nil, Options{Memoize: true})
		if m.code[0].ok {
			t.Error("fork block compiled, want it left to the interpreter")
		}
		n2 := &node{blockID: 2}
		n1 := &node{blockID: 1, next: n2}
		n0 := &node{blockID: 0, next: n1}
		if fr := m.buildFused(n0); len(fr.steps) != 0 {
			t.Errorf("fork-headed run fused %d steps, want 0", len(fr.steps))
		}
		if fr := m.buildFused(n1); len(fr.steps) != 2 || fr.ops != 2 {
			t.Errorf("pure tail fused %d steps / %d ops, want 2 / 2", len(fr.steps), fr.ops)
		}
	})
}
