package fastsim

import (
	"bytes"
	"sync"
	"testing"

	"facile/internal/arch/uarch"
	"facile/internal/isa/asm"
	"facile/internal/isa/loader"
	"facile/internal/snapshot"
)

// fuzzProgSrc is a small target program: a loop with loads, stores,
// data-dependent branches and calls, a few thousand simulated cycles.
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
	cold uarch.Result
	seed []byte // Save of the cache a memoizing run leaves behind
	err  error
}

// fuzzReference assembles fuzzProgSrc, runs it once without memoization
// (the oracle every warm run must reproduce) and once memoizing, keeping
// the detached cache's warm stream as the fuzz seed.
func fuzzReference(t testing.TB) (*loader.Program, uarch.Result, []byte) {
	t.Helper()
	fuzzRef.once.Do(func() {
		if fuzzRef.prog, fuzzRef.err = asm.Assemble("fuzz", fuzzProgSrc); fuzzRef.err != nil {
			return
		}
		fuzzRef.cold = New(uarch.Default(), fuzzRef.prog, Options{}).Run(0)
		s := New(uarch.Default(), fuzzRef.prog, Options{Memoize: true})
		s.Run(0)
		w := snapshot.NewWriter()
		s.DetachCache().Save(w)
		fuzzRef.seed = w.Payload()
	})
	if fuzzRef.err != nil {
		t.Fatal(fuzzRef.err)
	}
	return fuzzRef.prog, fuzzRef.cold, fuzzRef.seed
}

// runWarm runs the reference program on a memoizing simulator that first
// adopts wc (when non-nil and adoptable), compares its results with the
// cold no-memo run, and returns the simulator.
func runWarm(t *testing.T, what string, wc *WarmCache, opt Options) *Sim {
	t.Helper()
	prog, cold, _ := fuzzReference(t)
	s := New(uarch.Default(), prog, opt)
	s.AdoptCache(wc) // a refused cache leaves a cold, still-correct run
	// A correct run halts on its own after exactly the cold run's
	// instructions; the bound turns a run that would not into a mismatch,
	// not a hang.
	res := s.Run(2 * cold.Insts)
	if res.Insts != cold.Insts || res.Cycles != cold.Cycles ||
		!bytes.Equal(res.Output, cold.Output) || res.ExitStatus != cold.ExitStatus {
		t.Fatalf("%s run: %d insts, %d cycles, exit %d, output %q; no-memo: %d, %d, %d, %q",
			what, res.Insts, res.Cycles, res.ExitStatus, res.Output,
			cold.Insts, cold.Cycles, cold.ExitStatus, cold.Output)
	}
	return s
}

// FuzzLoadWarmCache feeds arbitrary bytes to the warm-cache decoder. A
// stream must either fail to decode or yield a cache that a simulator can
// adopt and still match the cold no-memo run in insts, cycles, output and
// exit — the paper's memo == no-memo claim as the oracle.
//
// The raw stream carries no checksum (the cache store frames it with one),
// so a stream that decodes may hold well-formed but wrong recorded
// actions, which replay trusts by design. The decoded cache therefore
// enters through self-checking: the first run re-executes every replayable
// step on the slow simulator against the recorded actions, invalidating
// what disagrees. The surviving cache, detached, then drives a second run
// with trusted replay. Both runs must match.
func FuzzLoadWarmCache(f *testing.F) {
	_, _, seed := fuzzReference(f)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, stream []byte) {
		wc, err := LoadWarmCache(snapshot.NewReader(stream))
		if err != nil {
			return
		}
		checked := runWarm(t, "self-checked", wc, Options{Memoize: true, SelfCheck: 1})
		runWarm(t, "trusted-replay", checked.DetachCache(), Options{Memoize: true})
	})
}
