package facsim

import (
	"bytes"
	"testing"

	"facile/internal/core"
	"facile/internal/isa/loader"
	"facile/internal/obs"
)

// TestPredictedFusionMatchesAchieved pins the facts fvet and the job
// records report to the plan the engine compiles under, on every shipped
// description: the preflight fusion facts equal the replay plan's
// aggregates, and rt.compiled_blocks equals the number of dynamic blocks
// the plan proves. (That each such block is exactly the one compiled is
// checked per block in internal/rt's TestPlanIsTheOnlyLayoutProof.)
func TestPredictedFusionMatchesAchieved(t *testing.T) {
	mks := map[string]func(*loader.Program, Options) (*Instance, error){
		KindFunctional: NewFunctional,
		KindInOrder:    NewInOrder,
		KindOOO:        NewOOO,
	}
	prog := asmOrDie(t, mixedWorkload)
	for kind, mk := range mks {
		t.Run(kind, func(t *testing.T) {
			rec := obs.NewRecorder(obs.Config{})
			if _, err := mk(prog, Options{Memoize: true, Obs: rec}); err != nil {
				t.Fatal(err)
			}
			p := map[string]*core.Simulator{
				KindFunctional: simFunc, KindInOrder: simInOrder, KindOOO: simOOO,
			}[kind].Prog
			pl := p.Replay
			if pl == nil || pl.FusableBlocks == 0 {
				t.Fatal("no predicted fusable blocks: the compiled description carries no replay plan")
			}
			var proven uint64
			for bi, blk := range p.Blocks {
				if blk.HasDyn && len(blk.Dyn) > 0 && pl.Blocks[bi].LayoutOK {
					proven++
				}
			}
			if got := rec.Registry().Counter("rt.compiled_blocks").Load(); got != proven {
				t.Errorf("rt.compiled_blocks = %d, the plan proves %d dynamic blocks", got, proven)
			}
			sum, ok := Preflight(kind)
			if !ok {
				t.Fatalf("no preflight for kind %q", kind)
			}
			f := sum.Fusion
			if f == nil {
				t.Fatal("preflight summary carries no fusion facts")
			}
			if f.DynBlocks != pl.DynBlocks || f.FusableBlocks != pl.FusableBlocks ||
				f.DynOps != pl.DynOps || f.FusableOps != pl.FusableOps {
				t.Errorf("preflight facts (%d/%d blocks, %d/%d ops) disagree with the plan (%d/%d, %d/%d)",
					f.FusableBlocks, f.DynBlocks, f.FusableOps, f.DynOps,
					pl.FusableBlocks, pl.DynBlocks, pl.FusableOps, pl.DynOps)
			}
			if f.DynOps < f.FusableOps {
				t.Errorf("fusable ops %d exceed dynamic ops %d", f.FusableOps, f.DynOps)
			}
		})
	}
}

// TestStaticFactsPreserveReplayParity is the plan-era bit-identity spot
// check: with the engine consulting the static table (compiled replay)
// and with the table ignored (interpreted replay), a memoized run must
// produce identical architectural results, and the compiled run must
// actually exercise fused dispatch.
func TestStaticFactsPreserveReplayParity(t *testing.T) {
	prog := asmOrDie(t, mixedWorkload)
	run := func(interp bool) (Result, uint64) {
		rec := obs.NewRecorder(obs.Config{})
		in, err := NewInOrder(prog, Options{Memoize: true, ReplayInterp: interp, Obs: rec})
		if err != nil {
			t.Fatal(err)
		}
		res, err := in.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		return res, rec.Registry().Counter("rt.fused_dispatches").Load()
	}
	resC, fusedC := run(false)
	resI, fusedI := run(true)
	if !bytes.Equal(resC.Output, resI.Output) {
		t.Errorf("compiled output %q != interpreted output %q", resC.Output, resI.Output)
	}
	if resC.Exit != resI.Exit {
		t.Errorf("compiled exit %d != interpreted exit %d", resC.Exit, resI.Exit)
	}
	if resC.Cycles != resI.Cycles {
		t.Errorf("compiled cycles %d != interpreted cycles %d", resC.Cycles, resI.Cycles)
	}
	if resC.Stats.Replays == 0 || resC.Stats.Replays != resI.Stats.Replays {
		t.Errorf("replays diverge: compiled %d, interpreted %d", resC.Stats.Replays, resI.Stats.Replays)
	}
	if fusedC == 0 {
		t.Error("compiled run never dispatched a fused superinstruction")
	}
	if fusedI != 0 {
		t.Errorf("interpreted run dispatched %d fused superinstructions", fusedI)
	}
}
