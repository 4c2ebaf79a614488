package ir

// This file defines the compile-time replay/fusion plan: the static table
// the compiler proves once per program and the replay engine consults at
// machine-build time; the engine re-derives nothing per block. It is the
// static counterpart of rt's superinstruction builder — see compile's
// replay analysis for how the verdicts are computed.

// Fuse limits shared by the static planner and both replay engines. A
// superinstruction's node count is capped at MaxFuseLen: longer
// straight-line chains split into consecutive runs, so a cycle in a
// corrupted graph still advances the replay watchdog's count instead of
// hanging the builder. Runs shorter than MinFuseLen are not fused: below
// it the fused dispatch (version check, closure loop) costs more than the
// interpreter iterations it replaces, so the nodes replay interpreted.
const (
	MaxFuseLen = 1024
	MinFuseLen = 2
)

// ReplayClass classifies one block's role in a recorded action chain.
type ReplayClass uint8

// Replay classes, mirroring the DynTermKind taxonomy at action level.
const (
	// ReplayNoDyn: the block has no dynamic segment; it is never recorded
	// as an action and replay skips it entirely.
	ReplayNoDyn ReplayClass = iota
	// ReplayPure: pure-flow — the dynamic segment ends with rt-static
	// control flow (DTNone). Pure-flow actions advance unconditionally,
	// can never miss, and are the only actions eligible for fusion.
	ReplayPure
	// ReplayFork: the segment ends in a dynamic-result test (DTBr,
	// DTSetArg, or DTPin). Forks can miss mid-step and always terminate a
	// fused run.
	ReplayFork
	// ReplayRet: the segment ends the step (DTRet); the next memoization
	// key is assembled here.
	ReplayRet
)

// String implements fmt.Stringer.
func (c ReplayClass) String() string {
	switch c {
	case ReplayPure:
		return "pure-flow"
	case ReplayFork:
		return "fork"
	case ReplayRet:
		return "step-end"
	}
	return "no-dyn"
}

// BlockReplay is the proven per-block replay verdict.
type BlockReplay struct {
	Class ReplayClass

	// LayoutOK reports that the block's placeholder layout is proven to
	// match the recorder's append order (every SrcPh operand sits in a
	// field the replayer reads, and the count equals NPh), so specialized
	// closures may consume recorded data without re-validating it.
	LayoutOK bool

	// MaxRun is the length (in actions) of the longest pure-flow run a
	// replay chain can thread through this block, capped at the fuse
	// bound. Zero for blocks that can never join a run.
	MaxRun int

	// DynOps is the number of dynamic instructions in the block's segment.
	DynOps int
}

// ReplayPlan is the whole-program fusion/replay table attached to a
// compiled Program. Engines treat it as proven and keep no proof of their
// own: a nil plan, or one whose Blocks do not match the program's, means
// every block replays interpreted.
type ReplayPlan struct {
	Blocks []BlockReplay

	// Aggregates over blocks with a dynamic segment.
	DynBlocks     int // blocks recorded as actions (HasDyn)
	FusableBlocks int // pure-flow blocks with a proven layout
	DynOps        int // dynamic instructions across all segments
	FusableOps    int // dynamic instructions inside fusable blocks
}

// Fusable reports whether block bi may be compiled into a superinstruction
// without re-proving its operand layout.
func (pl *ReplayPlan) Fusable(bi int) bool {
	if pl == nil || bi < 0 || bi >= len(pl.Blocks) {
		return false
	}
	b := &pl.Blocks[bi]
	return b.Class == ReplayPure && b.LayoutOK
}

// Coverage is the predicted fusion coverage: the fraction of dynamic
// instructions that live in fusable pure-flow blocks (0..1; 0 when the
// program has no dynamic work).
func (pl *ReplayPlan) Coverage() float64 {
	if pl == nil || pl.DynOps == 0 {
		return 0
	}
	return float64(pl.FusableOps) / float64(pl.DynOps)
}
