package vet

import (
	"fmt"

	"facile/internal/lang/ir"
	"facile/internal/lang/source"
	"facile/internal/lang/token"
)

// fusionAnalyzer surfaces the compiler's static fusion/replay dataflow
// tier (compile's replay plan): which blocks the compiled-replay engine
// can fuse into superinstructions, which dynamic-result tests sever those
// runs, and which placeholder layouts are unprovable against the
// recorder's append order. The same proven table the engine consumes at
// machine-build time backs every finding, so a diagnostic here is a
// statement about what the replay fast path will actually do.
var fusionAnalyzer = &Analyzer{
	Name: "fusion",
	Doc:  "static fusion/replay dataflow: barriers, coverage, layout proofs",
	Codes: []CodeDoc{
		{"FV0701", SevWarning, "dynamic-result test forms a fusion barrier severing a pure-flow replay run (with the why-dynamic cause chain)"},
		{"FV0702", SevWarning, "predicted fusion coverage for a unit is below threshold (explain mode reports every unit's coverage as info)"},
		{"FV0703", SevWarning, "statically-hot pure-flow region whose maximal run is shorter than the minimum fuse length"},
		{"FV0704", SevWarning, "operand layout unprovable against the recorder's placeholder append order; the block replays interpreted"},
	},
	Run: runFusion,
}

// DefaultFusionCoverageMin is the FV0702 threshold when Options does not
// set one: below this predicted fusion coverage a unit's replay fast path
// spends most of its dynamic work in single-action dispatch.
const DefaultFusionCoverageMin = 0.5

func runFusion(p *Pass) {
	if p.IR == nil || p.IR.Replay == nil || p.Facts == nil || p.Facts.Replay == nil {
		return
	}
	heads := stepHeads(p.IR)
	reportBarriers(p, heads)
	reportShortHotRuns(p)
	reportLayouts(p)
	reportCoverage(p)
}

// stepHeads computes the blocks where a replay step's action chain can
// begin: the first blocks with dynamic segments reachable from the entry
// along rt-static control flow. A fork here is the PR's
// fork-at-run-head corner — a miss at the head node degrades with no
// fused work preceding it.
func stepHeads(prog *ir.Program) map[int]bool {
	heads := map[int]bool{}
	seen := map[int]bool{}
	stack := []int{prog.Entry}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if id < 0 || id >= len(prog.Blocks) || seen[id] {
			continue
		}
		seen[id] = true
		b := prog.Blocks[id]
		if b.HasDyn {
			heads[id] = true
			continue
		}
		for _, s := range b.Succ {
			stack = append(stack, s)
		}
	}
	return heads
}

// forkPos finds the source position of a fork block's dynamic-result
// test: the branch terminator for DTBr, the block-final SetArg/Pin
// otherwise.
func forkPos(blk *ir.Block) token.Pos {
	if blk.DynTerm == ir.DTBr {
		return blk.Term.Pos
	}
	for i := len(blk.Insts) - 1; i >= 0; i-- {
		if op := blk.Insts[i].Op; op == ir.SetArg || op == ir.Pin {
			return blk.Insts[i].Pos
		}
	}
	return blk.Term.Pos
}

func forkNoun(k ir.DynTermKind) string {
	switch k {
	case ir.DTSetArg:
		return "dynamic next-step argument"
	case ir.DTPin:
		return "?pin dynamic-result test"
	}
	return "dynamic branch"
}

// reportBarriers emits FV0701 for fork blocks that sever pure-flow runs:
// forks inside loops, forks feeding directly into fusable work, and —
// the worst case — forks at the head of a replay step, where a miss
// degrades the whole step with no fused work preceding it. The cause
// chain explains why the tested value is dynamic, in the same provenance
// vocabulary as FV0101.
func reportBarriers(p *Pass, heads map[int]bool) {
	plan, ev := p.IR.Replay, p.Facts.Replay
	type rkey struct {
		pos source.Position
		msg string
	}
	seen := map[rkey]bool{}
	for bi, blk := range p.IR.Blocks {
		if plan.Blocks[bi].Class != ir.ReplayFork {
			continue
		}
		atHead := heads[bi]
		severs := atHead || ev.Blocks[bi].Hot
		if !severs {
			for _, s := range ev.Blocks[bi].Succ {
				if plan.Fusable(s) {
					severs = true
					break
				}
			}
		}
		if !severs {
			continue
		}
		why := ""
		if ts := blk.TermSrc; ts.Kind == ir.SrcVReg {
			why = "; tested value is dynamic: " + p.chain(p.IR, p.Facts, ts.VReg)
		}
		head := ""
		if atHead {
			head = " at the head of a replay step — a miss here degrades the whole step before any fused work runs"
		}
		msg := fmt.Sprintf("%s is a fusion barrier%s: pure-flow replay cannot fuse across a dynamic-result test%s",
			forkNoun(blk.DynTerm), head, why)
		pos := p.Position(forkPos(blk))
		k := rkey{pos, msg}
		if seen[k] {
			continue
		}
		seen[k] = true
		p.Report(Diagnostic{Code: "FV0701", Severity: SevWarning, Analyzer: "fusion",
			Pos: pos, Message: msg,
			Fix: "if the tested value is deterministic for the memoized state, ?pin it (or hoist the test toward the step boundary) so the surrounding pure-flow work fuses"})
	}
}

// reportShortHotRuns emits FV0703 for fusable blocks inside CFG cycles
// whose maximal pure-flow run stays under the minimum fuse length: the
// hot action will replay via single-action dispatch forever.
func reportShortHotRuns(p *Pass) {
	plan, ev := p.IR.Replay, p.Facts.Replay
	type rkey struct {
		pos source.Position
		msg string
	}
	seen := map[rkey]bool{}
	for bi, blk := range p.IR.Blocks {
		if !plan.Fusable(bi) || !ev.Blocks[bi].Hot {
			continue
		}
		if br := plan.Blocks[bi].MaxRun; br < ir.MinFuseLen {
			pos := blk.Term.Pos
			if len(blk.Dyn) > 0 {
				pos = blk.Dyn[0].Pos
			}
			msg := fmt.Sprintf("statically-hot pure-flow action's maximal run length %d is below the minimum fuse length %d: it always replays via single-action dispatch",
				br, ir.MinFuseLen)
			k := rkey{p.Position(pos), msg}
			if seen[k] {
				continue
			}
			seen[k] = true
			p.Report(Diagnostic{Code: "FV0703", Severity: SevWarning, Analyzer: "fusion",
				Pos: p.Position(pos), Message: msg,
				Fix: "merge adjacent dynamic work into the loop body, or relocate the enclosing dynamic-result tests, so consecutive pure-flow actions can fuse"})
		}
	}
}

// reportLayouts emits FV0704 per layout cause: the block's recorded
// placeholder data cannot be proven to line up with the fields its
// replayed operations read, so the engine leaves it interpreted.
func reportLayouts(p *Pass) {
	ev := p.Facts.Replay
	type rkey struct {
		pos source.Position
		msg string
	}
	seen := map[rkey]bool{}
	for bi := range p.IR.Blocks {
		for _, c := range ev.Blocks[bi].Causes {
			msg := "placeholder layout unprovable against the recorder's append order: " +
				c.String() + "; the block replays interpreted"
			k := rkey{p.Position(c.Pos), msg}
			if seen[k] {
				continue
			}
			seen[k] = true
			p.Report(Diagnostic{Code: "FV0704", Severity: SevWarning, Analyzer: "fusion",
				Pos: p.Position(c.Pos), Message: msg,
				Fix: "restructure the expression so run-time static values feed operands the operation actually reads"})
		}
	}
}

// reportCoverage emits the per-unit FV0702 verdicts: a warning when the
// predicted fusion coverage falls below the threshold, and (in explain
// mode) an info stating every unit's predicted coverage — computed from
// the same replay plan the engine compiles under.
func reportCoverage(p *Pass) {
	plan := p.IR.Replay
	min := p.Opt.FusionCoverageMin
	if min == 0 {
		min = DefaultFusionCoverageMin
	}
	pos := token.Pos{}
	if p.AST != nil {
		if m := p.AST.Fun("main"); m != nil {
			pos = m.P
		}
	}
	cov := plan.Coverage()
	maxRun := 0
	for i := range plan.Blocks {
		if r := plan.Blocks[i].MaxRun; r > maxRun {
			maxRun = r
		}
	}
	if p.Opt.Explain {
		p.Reportf("fusion", "FV0702", SevInfo, pos,
			"predicted fusion coverage: %.1f%% (%d of %d dynamic ops in %d of %d action blocks; longest pure-flow run %d)",
			100*cov, plan.FusableOps, plan.DynOps, plan.FusableBlocks, plan.DynBlocks, maxRun)
	}
	if plan.DynOps > 0 && cov < min {
		p.Reportf("fusion", "FV0702", SevWarning, pos,
			"predicted fusion coverage %.1f%% is below %.0f%%: most dynamic work replays via single-action dispatch (%d of %d dynamic ops fusable)",
			100*cov, 100*min, plan.FusableOps, plan.DynOps)
	}
}

// fusionSummary condenses a unit's replay plan for preflight consumers.
func fusionSummary(prog *ir.Program) *FusionSummary {
	pl := prog.Replay
	if pl == nil {
		return nil
	}
	fs := &FusionSummary{
		DynBlocks:     pl.DynBlocks,
		FusableBlocks: pl.FusableBlocks,
		DynOps:        pl.DynOps,
		FusableOps:    pl.FusableOps,
		Coverage:      pl.Coverage(),
	}
	for i := range pl.Blocks {
		switch pl.Blocks[i].Class {
		case ir.ReplayFork:
			fs.Barriers++
		case ir.ReplayPure, ir.ReplayRet:
			if !pl.Blocks[i].LayoutOK {
				fs.LayoutUnproven++
			}
		}
		if r := pl.Blocks[i].MaxRun; r > fs.MaxRun {
			fs.MaxRun = r
		}
	}
	return fs
}
