package compile

import (
	"facile/internal/lang/ir"
	"facile/internal/lang/token"
	"facile/internal/lang/types"
)

// CauseKind classifies why a value first became dynamic.
type CauseKind uint8

// Cause kinds.
const (
	CauseNone   CauseKind = iota
	CauseVReg             // copied or computed from a dynamic vreg
	CauseGlobal           // loaded from a global that was dynamic at that point
	CauseArray            // array element load (array state is dynamic)
	CauseExtern           // external call result
	CauseQueue            // global queue operation (global queues are dynamic)
)

// Cause is one edge of a binding-time provenance chain: the instruction
// that first raised a value to dynamic, and what it read to do so.
type Cause struct {
	Kind CauseKind
	Pos  token.Pos // position of the raising instruction
	From int32     // CauseVReg: source vreg; otherwise the global/array/extern/queue index
}

// Transition records one lattice raise of a vreg's binding time. The
// analysis is monotone, so From < To for every recorded transition and
// each vreg's transition sequence is non-decreasing — tests assert this.
type Transition struct {
	VReg     int32
	From, To byte
	Pos      token.Pos
}

// QueueViolation is one use of a dynamic value with a run-time static
// queue. The compiler reports only the first as its error; the full list
// feeds diagnostics.
type QueueViolation struct {
	Pos token.Pos
	Msg string
}

// Facts is the binding-time evidence collected during analysis, consumed
// by the fvet provenance and cost analyzers. All slices are indexed like
// their Program counterparts (vreg, global index).
type Facts struct {
	VRegBT    []byte  // final vreg binding times
	VRegCause []Cause // first cause per dynamic vreg (CauseNone if static)

	GlobalDynStore    []Cause     // first dynamic store per global (CauseNone if never)
	GlobalStaticStore []token.Pos // first rt-static store per global (zero if never)
	DynRead           []bool      // global ever read while dynamic (write-throughs must survive)

	Transitions     []Transition // every lattice raise, in analysis order
	QueueViolations []QueueViolation

	// Replay is the fusion/replay evidence behind the program's proven
	// plan (see replay.go), consumed by the fvet fusion analyzers.
	Replay *ReplayEvidence
}

// CompileWithFacts is Compile plus the binding-time evidence the vet
// analyzers need. On a binding-time error (queue violation) the program
// and facts are still returned fully analyzed so diagnostics can point at
// every violating site, not just the first.
func CompileWithFacts(c *types.Checked, opt Options) (*ir.Program, *Facts, error) {
	facts := &Facts{}
	p, err := compile(c, opt, facts)
	if p == nil {
		return nil, nil, err
	}
	return p, facts, err
}
