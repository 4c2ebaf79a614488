package rt_test

import (
	"bytes"
	"sync"
	"testing"

	"facile/internal/facsim"
	"facile/internal/isa/asm"
	"facile/internal/isa/loader"
	"facile/internal/rt"
	"facile/internal/snapshot"
)

// fuzzProgSrc is a small target program for the fac-ooo simulator: a loop
// with loads, stores, data-dependent branches and calls, a few thousand
// simulated cycles in all.
const fuzzProgSrc = `
start:  li   r1, 80
        li   r4, 0
        la   r9, buf
loop:   beq  r1, r0, done
        and  r7, r1, 15
        sll  r7, r7, 3
        add  r8, r9, r7
        ldd  r6, r8, 0
        add  r6, r6, r1
        std  r6, r8, 0
        add  r4, r4, r6
        and  r5, r1, 3
        bne  r5, r0, skip
        call bump
skip:   sub  r1, r1, 1
        b    loop
done:   li   r2, 2
        mov  r3, r4
        syscall
        li   r2, 1
        li   r3, 0
        syscall
bump:   add  r4, r4, 7
        ret
        .data
buf:    .space 128
`

var fuzzRef struct {
	once sync.Once
	prog *loader.Program
	cold facsim.Result
	err  error
}

// fuzzReference assembles fuzzProgSrc and runs it once on fac-ooo without
// memoization: the oracle every warm run must reproduce.
func fuzzReference(t *testing.T) (*loader.Program, facsim.Result) {
	t.Helper()
	fuzzRef.once.Do(func() {
		fuzzRef.prog, fuzzRef.err = asm.Assemble("fuzz", fuzzProgSrc)
		if fuzzRef.err != nil {
			return
		}
		var in *facsim.Instance
		if in, fuzzRef.err = facsim.NewOOO(fuzzRef.prog, facsim.Options{}); fuzzRef.err != nil {
			return
		}
		fuzzRef.cold, fuzzRef.err = in.Run(0)
	})
	if fuzzRef.err != nil {
		t.Fatal(fuzzRef.err)
	}
	return fuzzRef.prog, fuzzRef.cold
}

// runWarm runs the reference program on a memoizing fac-ooo instance that
// first adopts wc (when non-nil and adoptable), compares its results with
// the cold no-memo run, and returns the instance.
func runWarm(t *testing.T, what string, wc *rt.WarmCache, opt facsim.Options) *facsim.Instance {
	t.Helper()
	prog, cold := fuzzReference(t)
	in, err := facsim.NewOOO(prog, opt)
	if err != nil {
		t.Fatal(err)
	}
	in.AdoptCache(wc) // a refused cache leaves a cold, still-correct run
	// A correct run stops on its own after exactly the cold run's steps;
	// the bound turns a run that would not into a mismatch, not a hang.
	res, err := in.Run(2 * (cold.Stats.SlowSteps + cold.Stats.Replays))
	if err != nil {
		t.Fatalf("%s run: %v", what, err)
	}
	if res.Insts != cold.Insts || res.Cycles != cold.Cycles ||
		!bytes.Equal(res.Output, cold.Output) || res.Exit != cold.Exit {
		t.Fatalf("%s run: %d insts, %d cycles, exit %d, output %q; no-memo: %d, %d, %d, %q",
			what, res.Insts, res.Cycles, res.Exit, res.Output,
			cold.Insts, cold.Cycles, cold.Exit, cold.Output)
	}
	return in
}

// FuzzLoadWarmCache feeds arbitrary bytes to the warm-cache decoder. A
// stream must either fail to decode or yield a cache that a fac-ooo run
// can adopt and still match the cold no-memo run in insts, cycles, output
// and exit — the paper's memo == no-memo claim as the oracle.
//
// The raw stream carries no checksum (the cache store frames it with
// one), so a stream that decodes may hold well-formed but wrong recorded
// values, which replay trusts by design. The decoded cache therefore
// enters through self-checking: the first run re-executes every
// replayable step on the slow simulator against the recorded chain,
// invalidating what disagrees. The surviving cache, detached, then drives
// a second run with trusted compiled replay. Both runs must match.
func FuzzLoadWarmCache(f *testing.F) {
	f.Fuzz(func(t *testing.T, stream []byte) {
		wc, err := rt.LoadWarmCache(snapshot.NewReader(stream))
		if err != nil {
			return
		}
		checked := runWarm(t, "self-checked", wc, facsim.Options{Memoize: true, SelfCheck: 1})
		runWarm(t, "trusted-replay", checked.DetachCache(), facsim.Options{Memoize: true})
	})
}
