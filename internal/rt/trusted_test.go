package rt_test

import (
	"reflect"
	"testing"

	"facile/internal/core"
	"facile/internal/facsim"
	"facile/internal/faults"
	"facile/internal/isa/asm"
	"facile/internal/isa/loader"
	"facile/internal/obs"
	"facile/internal/rt"
)

// linearSrc has no dynamic forks: every entry is a single chain ending in
// one DTRet node, so an injected key truncation always lands on the
// successor key the replay follows.
const linearSrc = `
val acc = 0;
val ticks = 0;
extern emit(1);

fun main(x) {
    ticks = ticks + 1;
    acc = acc + x;
    emit(acc);
    val y = x + 1;
    if (y > 9) { y = 0; }
    set_args(y);
}
`

// TestCurrentLinkDoesNotHideCorruptKey guards the link-gated successor-key
// vetting: replay skips validKey while a DTRet node's link is current, so
// truncating the key of an entry whose link is current must still surface
// as a CorruptKey fault and a rekeyed step, with results bit-identical to
// the non-memoizing run.
func TestCurrentLinkDoesNotHideCorruptKey(t *testing.T) {
	sim, err := core.CompileSource(linearSrc, core.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	newMachine := func(memo bool) (*rt.Machine, *[]int64) {
		m := sim.NewMachine(core.NullText(), rt.Options{Memoize: memo})
		out := new([]int64)
		if err := m.RegisterExtern("emit", func(a []int64) int64 {
			*out = append(*out, a[0])
			return 0
		}); err != nil {
			t.Fatal(err)
		}
		if err := m.SetIntArgs(0); err != nil {
			t.Fatal(err)
		}
		return m, out
	}
	run := func(m *rt.Machine, steps uint64) {
		t.Helper()
		if err := m.Run(steps); err != nil {
			t.Fatalf("run to step %d: %v", steps, err)
		}
	}

	const warm, tail = 200, 100
	plain, outP := newMachine(false)
	run(plain, warm+1)
	wantKey, wantArgs := plain.DebugState()
	run(plain, warm+1+tail)

	memo, outM := newMachine(true)
	run(memo, warm)
	if !memo.NextEntryLinked() {
		t.Fatal("warm-up left the next entry's successor link stale; the gate is not exercised")
	}

	// A seed whose injection takes InjTruncate's successor-key branch: Arm
	// draws the kind, injectFault then draws the key/data choice.
	seed := uint64(1)
	for ; ; seed++ {
		probe := *faults.NewInjector(seed, 1, faults.InjTruncate)
		probe.Arm()
		if probe.Rand()&1 == 0 {
			break
		}
	}
	ij := faults.NewInjector(seed, 1, faults.InjTruncate)
	memo.SetInjector(ij)
	before := memo.Stats()
	run(memo, warm+1)
	memo.SetInjector(nil)
	if ij.Fired() != 1 {
		t.Fatalf("injector fired %d times, want 1", ij.Fired())
	}
	st := memo.Stats()
	if f := memo.LastFault(); f == nil || f.Kind != faults.CorruptKey {
		t.Fatalf("fault = %v, want CorruptKey", memo.LastFault())
	}
	if st.Faults-before.Faults != 1 || st.DegradedSteps-before.DegradedSteps != 1 ||
		st.Invalidations-before.Invalidations != 1 {
		t.Errorf("want one fault, one rekeyed step and one invalidation; before %+v after %+v", before, st)
	}
	if key, args := memo.DebugState(); key != wantKey || !reflect.DeepEqual(args, wantArgs) {
		t.Errorf("rekeyed step left key %x args %v, non-memo run has %x %v", key, args, wantKey, wantArgs)
	}

	run(memo, warm+1+tail)
	sameResults(t, plain, memo, *outP, *outM)
}

// queuePushSrc replays extern calls, a dynamic (global) queue push and
// fork- and ret-terminated nodes on every step.
const queuePushSrc = `
val acc = 0;
val ticks = 0;
val gq = queue(4, 2);
extern next(0);
extern emit(1);

fun main(x) {
    ticks = ticks + 1;
    val v = next();
    if (v % 2 == 0) { acc = acc + x; }
    else            { acc = acc + 1; }
    emit(acc);
    if (gq?full()) { gq?pop(); }
    gq?push(acc, x);
    val y = x + 1;
    if (y > 9) { y = 0; }
    set_args(y);
}
`

// allocsPerReplayedStep warms m to step warm, then measures the heap
// allocations of each further single-step Run call and checks that every
// measured step replayed from the cache.
func allocsPerReplayedStep(t *testing.T, m *rt.Machine, warm uint64, runs int) float64 {
	t.Helper()
	if err := m.Run(warm); err != nil {
		t.Fatal(err)
	}
	before := m.Stats()
	steps := warm
	allocs := testing.AllocsPerRun(runs, func() {
		steps++
		if err := m.Run(steps); err != nil {
			t.Fatal(err)
		}
	})
	after := m.Stats()
	if after.SlowSteps != before.SlowSteps || after.Replays-before.Replays != uint64(runs+1) {
		t.Fatalf("measured window was not pure replay: before %+v after %+v", before, after)
	}
	return allocs
}

// TestWarmCompiledReplayAllocatesNothing pins the allocation-free replay:
// once warm, a compiled replayed step — extern calls, queue pushes, fork
// and ret nodes, the successor link — makes no heap allocation. Checked on
// a step that pushes to a dynamic queue and on a fac-ooo step.
func TestWarmCompiledReplayAllocatesNothing(t *testing.T) {
	t.Run("queue-push", func(t *testing.T) {
		sim, err := core.CompileSource(queuePushSrc, core.Options{})
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		m := sim.NewMachine(core.NullText(), rt.Options{Memoize: true})
		var i, sum int64
		if err := m.RegisterExtern("next", func([]int64) int64 {
			i++
			return i * i % 7
		}); err != nil {
			t.Fatal(err)
		}
		if err := m.RegisterExtern("emit", func(a []int64) int64 {
			sum += a[0]
			return 0
		}); err != nil {
			t.Fatal(err)
		}
		if err := m.SetIntArgs(0); err != nil {
			t.Fatal(err)
		}
		if a := allocsPerReplayedStep(t, m, 2000, 200); a != 0 {
			t.Errorf("warm compiled replay allocated %.2f times per step, want 0", a)
		}
	})
	t.Run("fac-ooo", func(t *testing.T) {
		prog, err := asm.Assemble("alloc", fuzzProgSrc)
		if err != nil {
			t.Fatal(err)
		}
		// Each pass adopts the previous pass's cache. The second pass
		// replays every step, since it sees the same dynamic results, and
		// builds the derived replay state (vetted nodes, fused runs,
		// successor links); the measured third pass finds it all current.
		var wc *rt.WarmCache
		var warm *facsim.Instance
		for pass := 0; pass < 3; pass++ {
			if warm, err = facsim.NewOOO(prog, facsim.Options{Memoize: true}); err != nil {
				t.Fatal(err)
			}
			if wc != nil && !warm.AdoptCache(wc) {
				t.Fatal("AdoptCache refused the cache")
			}
			if pass == 2 {
				break
			}
			if _, err := warm.Run(0); err != nil {
				t.Fatal(err)
			}
			wc = warm.DetachCache()
		}
		if a := allocsPerReplayedStep(t, warm.M, 20, 150); a != 0 {
			t.Errorf("warm compiled fac-ooo replay allocated %.2f times per step, want 0", a)
		}
	})
}

// TestForkAndRetBlocksCompile checks that compiled replay covers more than
// the pure-flow blocks: on the fac-ooo description, rt.compiled_blocks
// equals every dynamic block the replay plan proves, which exceeds the
// plan's fusable (pure-flow) blocks.
func TestForkAndRetBlocksCompile(t *testing.T) {
	prog, err := asm.Assemble("compile", fuzzProgSrc)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(obs.Config{})
	in, err := facsim.NewOOO(prog, facsim.Options{Memoize: true, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	p := in.M.Program()
	var proven uint64
	for bi, blk := range p.Blocks {
		if blk.HasDyn && len(blk.Dyn) > 0 && p.Replay.Blocks[bi].LayoutOK {
			proven++
		}
	}
	all := rec.Registry().Counter("rt.compiled_blocks").Load()
	pure := uint64(p.Replay.FusableBlocks)
	if all != proven {
		t.Errorf("rt.compiled_blocks = %d, the plan proves %d dynamic blocks", all, proven)
	}
	if pure == 0 || all <= pure {
		t.Errorf("rt.compiled_blocks = %d, plan fusable blocks = %d: fork and ret blocks are not compiled", all, pure)
	}
}

// TestPlanIsTheOnlyLayoutProof checks, for every block of the three
// shipped descriptions, that the engine compiles a block's dynamic segment
// exactly when the compiler's replay plan proves its layout: the plan is
// the only proof, and the engine's placeholder-count guard never trips on
// a planned block.
func TestPlanIsTheOnlyLayoutProof(t *testing.T) {
	prog, err := asm.Assemble("plan", fuzzProgSrc)
	if err != nil {
		t.Fatal(err)
	}
	for kind, mk := range map[string]func(*loader.Program, facsim.Options) (*facsim.Instance, error){
		facsim.KindFunctional: facsim.NewFunctional,
		facsim.KindInOrder:    facsim.NewInOrder,
		facsim.KindOOO:        facsim.NewOOO,
	} {
		in, err := mk(prog, facsim.Options{Memoize: true})
		if err != nil {
			t.Fatal(err)
		}
		p := in.M.Program()
		if p.Replay == nil || len(p.Replay.Blocks) != len(p.Blocks) {
			t.Fatalf("%s: description carries no matching replay plan", kind)
		}
		for bi, blk := range p.Blocks {
			want := blk.HasDyn && p.Replay.Blocks[bi].LayoutOK
			if got := in.M.DynCompiled(bi); got != want {
				t.Errorf("%s block %d: compiled = %v, plan says HasDyn && LayoutOK = %v", kind, bi, got, want)
			}
		}
	}
}
