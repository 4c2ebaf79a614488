package main

// The two engine mixes: fastsim-mix (the hand-coded memoizing engine,
// Figure 11) and facile-mix (the Facile-compiled fac-ooo engine, Figure
// 12). Both run the same four programs through runcfg in interleaved
// rounds; every round runs every configuration once, so host drift hits
// all of them alike, and every rate is a median over rounds.

import (
	"bytes"
	"fmt"
	"math"
	"runtime/debug"
	"time"

	"facile/facile"
	"facile/internal/cachestore"
	"facile/internal/core"
	"facile/internal/isa/loader"
	"facile/internal/lang/source"
	"facile/internal/lang/vet"
	"facile/internal/obs"
	"facile/internal/runcfg"
	"facile/internal/workloads"
)

// paperCap is the paper's action-cache cap.
const paperCap = 256 << 20

// mixPrograms: most forks, misses and the largest cache (gcc); the
// lowest memo/no-memo ratio (vortex); regular FP with near-total replay
// (tomcatv); slow-path-bound giant blocks (fpppp).
var mixPrograms = []string{"126.gcc", "147.vortex", "101.tomcatv", "145.fpppp"}

type mixSpec struct {
	engine    string
	progs     []string
	memoScale int // cold memo and warm restart runs (whole programs)
	baseScale int // conventional ooo baseline runs (whole programs)
	slowScale int // whole-program no-memo runs; 0 = slowSteps budgets at memoScale
	slowSteps map[string]uint64

	restartProg  string // the restart job: a warm restart through the store
	restartScale int
	restarts     int // restart jobs per round

	roundS float64 // wall seconds per round on the reference host
	reps   int     // memo and warm runs per program and round
}

var fastsimMixSpec = mixSpec{
	engine:    runcfg.EngineFastsim,
	progs:     mixPrograms,
	memoScale: 20, baseScale: 2, slowScale: 2,
	restartProg: "126.gcc", restartScale: 5, restarts: 12,
	roundS: 1.0, reps: 2,
}

// fac-ooo without memoization runs at 0.01–0.1 Msim-inst/s, so its
// no-memo runs stop after a fixed Facile-step budget (about 0.1–0.2 s
// each) instead of finishing the program.
var facileMixSpec = mixSpec{
	engine:    runcfg.EngineFacOOO,
	progs:     mixPrograms,
	memoScale: 2, baseScale: 2,
	slowSteps:   map[string]uint64{"126.gcc": 600, "147.vortex": 1200, "101.tomcatv": 80, "145.fpppp": 10},
	restartProg: "126.gcc", restartScale: 1, restarts: 8,
	roundS: 1.5, reps: 2,
}

func runFastsimMix(e *env) error { return runMix(e, fastsimMixSpec) }
func runFacileMix(e *env) error  { return runMix(e, facileMixSpec) }

// Layer labels for spans: the module each timed call enters.
const (
	layerBench     = "simbench"
	layerAsm       = "internal/workloads+isa/asm"
	layerCompile   = "internal/core+lang"
	layerVet       = "internal/lang/vet"
	layerRuncfg    = "internal/runcfg"
	layerWarm      = "internal/runcfg (warm codec)"
	layerStore     = "internal/cachestore"
	layerServe     = "internal/serve"
	layerFleet     = "internal/fleet"
	layerObs       = "internal/obs"
	layerFunc      = "internal/arch/funcsim"
	layerOOO       = "internal/arch/ooo"
	layerFastsim   = "internal/arch/fastsim"
	layerFacsimRun = "internal/facsim+rt"
)

func engineLayer(engine string) string {
	switch engine {
	case runcfg.EngineFastsim:
		return layerFastsim
	case runcfg.EngineOOO:
		return layerOOO
	case runcfg.EngineFunc:
		return layerFunc
	}
	return layerFacsimRun
}

// sim is the outcome of one timed simulation.
type sim struct {
	r          runcfg.Runner
	res        runcfg.Result
	st         runcfg.Stats
	newD, runD time.Duration
}

// simulate builds a runner and runs it to target (0 = to completion),
// timing New and Run separately. adopt, when non-nil, is adopted between
// the two and its time returned in adoptD.
func simulate(e *env, parent int, job string, prog *loader.Program, cfg runcfg.Config, target uint64,
	adopt runcfg.WarmCache) (s sim, adoptD time.Duration, err error) {
	s.newD = e.tr.timed(parent, job, layerRuncfg, "runcfg.New "+cfg.Engine, func() {
		s.r, err = runcfg.New(prog, cfg)
	})
	if err != nil {
		return s, 0, err
	}
	if adopt != nil {
		ok := false
		adoptD = e.tr.timed(parent, job, layerWarm, "Runner.AdoptCache", func() { ok = s.r.AdoptCache(adopt) })
		if !ok {
			return s, adoptD, fmt.Errorf("%s: AdoptCache refused a %d-entry cache", job, adopt.Entries())
		}
	}
	s.runD = e.tr.timed(parent, job, engineLayer(cfg.Engine), "Runner.Run", func() { err = s.r.Run(target) })
	s.res, s.st = s.r.Result(), s.r.Stats()
	return s, adoptD, err
}

func assemble(e *env, parent int, name string, scale int) (*loader.Program, time.Duration, error) {
	var w *workloads.Workload
	var err error
	d := e.tr.timed(parent, "setup", layerAsm, "workloads.Get "+name, func() { w, err = workloads.Get(name, scale) })
	if err != nil {
		return nil, d, err
	}
	return w.Prog, d, nil
}

// buildFacile compiles the bundled OOO description and vets it, the
// work facsim and serve do once per process before the first fac-ooo
// run.
func buildFacile(e *env, parent int) (build, preflight time.Duration, fusion *vet.FusionSummary, err error) {
	build = e.tr.timed(parent, "setup", layerCompile, "core.CompileSource ooo.fac", func() {
		_, err = core.CompileSource(facile.OOOSim(), core.Options{})
	})
	if err != nil {
		return
	}
	var sum vet.Summary
	preflight = e.tr.timed(parent, "setup", layerVet, "vet.PreflightFiles ooo.fac", func() {
		fs := source.NewSet()
		fs.Add("facile/svr32.fac", facile.ISA())
		fs.Add("facile/ooo.fac", facile.Sources()["ooo.fac"])
		sum = vet.PreflightFiles(fs)
	})
	if !sum.OK() {
		err = fmt.Errorf("ooo.fac fails preflight: %v", sum.ErrorFindings)
	}
	return build, preflight, sum.Fusion, err
}

type mixProg struct {
	name             string
	memo, slow, base *loader.Program
	gold, goldSlow   runcfg.Result // funcsim golden results at memoScale and slowScale
	goldBase         runcfg.Result
	key              string        // store key of the program's warm record
	cold             runcfg.Result // reference cold memo result
	coldStats        runcfg.Stats
}

type mix struct {
	e     *env
	spec  mixSpec
	progs []*mixProg
	store *cachestore.Store

	restartProg *loader.Program
	restartKey  string
	restartRef  runcfg.Result

	recordBytes float64 // encoded warm records of the reference cold runs
}

func (m *mix) cfg(engine string, memo bool) runcfg.Config {
	return runcfg.Config{Engine: engine, Memoize: memo, CacheCapBytes: paperCap}
}

// setup is the timed set-up: assemble every program, compile and vet the
// Facile description (fac-ooo), construct one engine per configuration.
func (m *mix) setup(rep int) (asmD, buildD, preflightD, newD time.Duration, err error) {
	e, s := m.e, m.spec
	root := e.tr.start(0, "setup", layerBench, fmt.Sprintf("setup #%d", rep), 0)
	defer e.tr.end(root)
	add := func(p **loader.Program, name string, scale int) {
		if err != nil || scale == 0 {
			return
		}
		var d time.Duration
		*p, d, err = assemble(e, root, name, scale)
		asmD += d
	}
	m.progs = nil
	for _, name := range s.progs {
		p := &mixProg{name: name, key: runcfg.LineageKey(name, s.memoScale, "", s.engine, true, paperCap, nil)}
		add(&p.memo, name, s.memoScale)
		add(&p.slow, name, s.slowScale)
		add(&p.base, name, s.baseScale)
		m.progs = append(m.progs, p)
	}
	add(&m.restartProg, s.restartProg, s.restartScale)
	if err != nil {
		return
	}
	if s.engine != runcfg.EngineFastsim {
		if buildD, preflightD, _, err = buildFacile(e, root); err != nil {
			return
		}
	}
	for _, p := range m.progs {
		for _, c := range []struct {
			prog *loader.Program
			cfg  runcfg.Config
		}{{p.memo, m.cfg(s.engine, true)}, {m.slowProg(p), m.cfg(s.engine, false)}, {p.base, m.cfg(runcfg.EngineOOO, false)}} {
			newD += e.tr.timed(root, "setup", layerRuncfg, "runcfg.New "+c.cfg.Engine, func() {
				_, err = runcfg.New(c.prog, c.cfg)
			})
			if err != nil {
				return
			}
		}
	}
	return
}

func (m *mix) slowProg(p *mixProg) *loader.Program {
	if p.slow != nil {
		return p.slow
	}
	return p.memo
}

func golden(e *env, parent int, job string, prog *loader.Program) (runcfg.Result, error) {
	s, _, err := simulate(e, parent, job, prog, runcfg.Config{Engine: runcfg.EngineFunc}, 0, nil)
	return s.res, err
}

// sameRun reports whether a whole-program result matches the golden
// functional model's output, exit status and instruction count.
func sameRun(got, gold runcfg.Result) bool {
	return got.Insts == gold.Insts && got.Exit == gold.Exit && bytes.Equal(got.Output, gold.Output)
}

// park detaches a finished run's cache, encodes it and saves it to the
// store: the restart path's first half.
func (m *mix) park(parent int, job, key string, r runcfg.Runner) (detach, encode, save time.Duration, n int, err error) {
	e := m.e
	var wc runcfg.WarmCache
	detach = e.tr.timed(parent, job, layerWarm, "Runner.DetachCache", func() { wc = r.DetachCache() })
	if wc == nil {
		return detach, 0, 0, 0, fmt.Errorf("%s: no cache to detach", job)
	}
	var payload []byte
	encode = e.tr.timed(parent, job, layerWarm, "runcfg.EncodeWarmCache", func() { payload, err = runcfg.EncodeWarmCache(wc) })
	if err != nil {
		return
	}
	save = e.tr.timed(parent, job, layerStore, "Store.Save", func() {
		err = m.store.Save(key, m.spec.engine, runcfg.CacheFingerprint(m.spec.engine), wc.Entries(), wc.Bytes(), payload)
	})
	return detach, encode, save, len(payload), err
}

// restartTimes is the restart path's second half, split by layer.
type restartTimes struct {
	load, decode, adopt time.Duration
	s                   sim
}

// restart loads a record from the store, decodes it, adopts it into a
// fresh runner and runs to completion.
func (m *mix) restart(parent int, job, key string, prog *loader.Program, replay string) (rt restartTimes, err error) {
	e := m.e
	var payload []byte
	rt.load = e.tr.timed(parent, job, layerStore, "Store.Load", func() { _, payload, err = m.store.Load(key) })
	if err != nil {
		return
	}
	var wc runcfg.WarmCache
	rt.decode = e.tr.timed(parent, job, layerWarm, "runcfg.DecodeWarmCache", func() { wc, err = runcfg.DecodeWarmCache(payload) })
	if err != nil {
		return
	}
	cfg := m.cfg(m.spec.engine, true)
	cfg.Replay = replay
	rt.s, rt.adopt, err = simulate(e, parent, job, prog, cfg, 0, wc)
	return
}

// acc sums one configuration's work over a round: instructions, time
// rescaled to the reference host, and raw host time.
type acc struct{ insts, t, raw float64 }

func (a *acc) add(insts float64, d time.Duration, f float64) {
	a.insts += insts
	a.t += d.Seconds() * f
	a.raw += d.Seconds()
}

// roundSample is everything one round measured. Times are rescaled to
// the reference host (see calib.go) unless named raw.
type roundSample struct {
	traced bool
	runs   int
	busy   float64 // seconds spent in ops

	memo, warm, slow, base, obs acc
	recordS                     float64

	newMs, detachMs, encodeMs, saveMs, loadMs, decodeMs, adoptMs []float64
	slowStep, replayStep, interpStep, oooInst                    perUnit
	restartMs, restartRawMs                                      []float64
}

// perUnit sums rescaled time and units of work (steps, instructions)
// over a round's programs.
type perUnit struct{ ns, units float64 }

func (p *perUnit) add(d time.Duration, f float64, units uint64) {
	p.ns += float64(d.Nanoseconds()) * f
	p.units += float64(units)
}

func (p perUnit) per() float64 { return p.ns / max(p.units, 1) }

// opOut is what one op measured, in raw host time.
type opOut struct {
	insts                          float64
	run, new, detach, encode, save time.Duration
	load, decode, adopt            time.Duration
	steps                          uint64 // slow steps (no-memo) or replays (warm)
}

// roundState carries per-program results between the ops of one round.
type roundState struct {
	cold             []runcfg.Stats // the cold run's counts
	coldRunS         []float64
	slow, check      []runcfg.Result
	replayNs, slowNs []float64
}

func runMix(e *env, spec mixSpec) error {
	m, err := newMix(e, spec)
	if err != nil {
		return err
	}
	setup, err := m.setupReps(31)
	if err != nil {
		return err
	}
	if err := m.prepare(); err != nil {
		return err
	}
	rounds, err := m.measure(roundsFor(e.seconds, spec.roundS), e.seconds*5/4)
	if err != nil {
		return err
	}
	m.report(rounds, setup)
	return nil
}

func newMix(e *env, spec mixSpec) (*mix, error) {
	store, err := cachestore.Open(fmt.Sprintf("%s/store-%s", e.dir, spec.engine), cachestore.Options{})
	if err != nil {
		return nil, err
	}
	fmt.Printf("mix: engine %s, programs %v, memo scale %d, base scale %d, slow scale %d, step budgets %v\n",
		spec.engine, spec.progs, spec.memoScale, spec.baseScale, spec.slowScale, spec.slowSteps)
	return &mix{e: e, spec: spec, store: store}, nil
}

// setupTimes holds one sample per set-up repetition.
type setupTimes struct {
	total, asm, build, preflight, new []float64
}

// setupReps repeats the set-up; setup_s is the median repetition.
func (m *mix) setupReps(reps int) (st setupTimes, err error) {
	var cal calibrator
	cal.start()
	for rep := 0; rep < reps; rep++ {
		t0 := time.Now()
		a, b, p, n, err := m.setup(rep)
		d := time.Since(t0)
		if err != nil {
			return st, fmt.Errorf("setup: %w", err)
		}
		f := cal.next()
		st.total = append(st.total, d.Seconds()*f)
		st.asm, st.build = append(st.asm, ms(a)*f), append(st.build, ms(b)*f)
		st.preflight, st.new = append(st.preflight, ms(p)*f), append(st.new, ms(n)*f)
	}
	return st, nil
}

// measure runs a fixed number of rounds, so every run of a workload
// does the same work; it stops early (after three) when the host is so
// slow that the rounds outlast limit.
func (m *mix) measure(rounds int, limit time.Duration) ([]roundSample, error) {
	e := m.e
	var out []roundSample
	start := time.Now()
	for round := 0; round < rounds; round++ {
		if round >= 3 && time.Since(start) > limit {
			fmt.Printf("stopping after %d of %d rounds: over %v\n", round, rounds, limit)
			break
		}
		// Traced runs alternate rounds with spans on and off, so the
		// tracing overhead is measured inside one run.
		if e.tr != nil {
			e.tr.on.Store(round%2 == 0)
		}
		// Return every free page to the OS first, so a round's peak is its
		// own and not memory the runtime kept from earlier work: without
		// it, the rounds' peaks read 14.3 MB in some processes and 18.3 MB
		// in others.
		debug.FreeOSMemory()
		resetPeakRSS()
		rs, err := m.round(round)
		if err != nil {
			return nil, err
		}
		e.rss = append(e.rss, peakRSSMB())
		out = append(out, rs)
	}
	if e.tr != nil {
		e.tr.on.Store(true)
	}
	fmt.Printf("measured %d rounds in %.1f s\n", len(out), time.Since(start).Seconds())
	return out, nil
}

// roundsFor is how many rounds fill the requested seconds on the
// reference host.
func roundsFor(seconds time.Duration, perRound float64) int {
	return max(3, int(math.Round(seconds.Seconds()/perRound)))
}

type rateDef struct {
	name string
	of   func(r roundSample) acc
}

var mixRates = []rateDef{
	{"memo_msips", func(r roundSample) acc { return r.memo }},
	{"nomemo_msips", func(r roundSample) acc { return r.slow }},
	{"base_msips", func(r roundSample) acc { return r.base }},
	{"warm_msips", func(r roundSample) acc { return r.warm }},
}

// rates lists one rate per round (Msim-inst/s), over the rounds only
// accepts (nil = all), in reference-host or raw host time.
func (rd rateDef) rates(rounds []roundSample, only func(roundSample) bool, raw bool) []float64 {
	var xs []float64
	for _, r := range rounds {
		if only == nil || only(r) {
			a := rd.of(r)
			t := a.t
			if raw {
				t = a.raw
			}
			xs = append(xs, a.insts/t/1e6)
		}
	}
	return xs
}

func (m *mix) report(rounds []roundSample, setup setupTimes) {
	e := m.e
	fmt.Println("end-to-end:")
	med := map[string]float64{}
	for _, rd := range mixRates {
		med[rd.name] = e.timing(e.e2e, rd.name, "Msim-inst/s", rd.rates(rounds, nil, false), true).Median
	}
	var restarts, restartsRaw, jobsPerS []float64
	for _, r := range rounds {
		restarts = append(restarts, r.restartMs...)
		restartsRaw = append(restartsRaw, r.restartRawMs...)
		jobsPerS = append(jobsPerS, float64(r.runs)/r.busy)
	}
	e.e2e["job_p50_ms"] = metric{Value: e.latency("job_tail_ms", "restart jobs", restarts).Median, Unit: "ms"}
	e.timing(e.e2e, "jobs_per_s", "jobs/s", jobsPerS, true)
	e.timing(e.e2e, "setup_s", "s", setup.total, false)
	fmt.Printf("derived (not gated): memo/nomemo %.2fx, memo/base %.2fx, warm/memo %.2fx\n",
		med["memo_msips"]/med["nomemo_msips"], med["memo_msips"]/med["base_msips"], med["warm_msips"]/med["memo_msips"])
	fmt.Println("raw host time (not rescaled by the calibration kernel):")
	for _, rd := range mixRates {
		e.timing(nil, rd.name+" (raw)", "Msim-inst/s", rd.rates(rounds, nil, true), true)
	}
	e.timing(nil, "job_p50_ms (raw)", "ms", restartsRaw, false)

	if e.tr != nil {
		fmt.Println("tracing overhead (rounds with spans vs rounds without, same run):")
		for _, rd := range mixRates {
			on := median(rd.rates(rounds, func(r roundSample) bool { return r.traced }, false))
			off := median(rd.rates(rounds, func(r roundSample) bool { return !r.traced }, false))
			fmt.Printf("  %-34s with spans %s without %s (%+.1f%%)\n", rd.name, fmtNum(on), fmtNum(off), 100*(off-on)/off)
		}
	}

	fmt.Println("per-layer:")
	L := e.layers
	e.timing(L, "asm.assemble_ms", "ms", setup.asm, false)
	if m.spec.engine != runcfg.EngineFastsim {
		e.timing(nil, "facsim.build_ms", "ms", setup.build, false)
		e.timing(nil, "facsim.preflight_ms", "ms", setup.preflight, false)
	}
	e.timing(nil, "runcfg.new_ms (set-up, all configs)", "ms", setup.new, false)
	m.layerTimings(rounds)
	m.counts()
}

// layerTimings reports the per-layer timings of the engine, warm-codec
// and store layers.
func (m *mix) layerTimings(rounds []roundSample) {
	e, L := m.e, m.e.layers
	all := func(f func(r roundSample) []float64) []float64 {
		var xs []float64
		for _, r := range rounds {
			xs = append(xs, f(r)...)
		}
		return xs
	}
	e.timing(L, "runcfg.new_ms", "ms", all(func(r roundSample) []float64 { return r.newMs }), false)
	each := func(f func(r roundSample) float64) []float64 {
		var xs []float64
		for _, r := range rounds {
			xs = append(xs, f(r))
		}
		return xs
	}
	e.timing(L, "engine.slow_ns_per_step", "ns", each(func(r roundSample) float64 { return r.slowStep.per() }), false)
	e.timing(L, "engine.replay_ns_per_step", "ns", each(func(r roundSample) float64 { return r.replayStep.per() }), false)
	e.timing(L, "engine.record_s", "s", each(func(r roundSample) float64 { return r.recordS }), false)
	e.timing(L, "ooo.ns_per_inst", "ns", each(func(r roundSample) float64 { return r.oooInst.per() }), false)
	e.timing(L, "warm.detach_ms", "ms", all(func(r roundSample) []float64 { return r.detachMs }), false)
	e.timing(L, "warm.encode_ms", "ms", all(func(r roundSample) []float64 { return r.encodeMs }), false)
	e.timing(L, "warm.decode_ms", "ms", all(func(r roundSample) []float64 { return r.decodeMs }), false)
	e.timing(L, "warm.adopt_ms", "ms", all(func(r roundSample) []float64 { return r.adoptMs }), false)
	e.timing(L, "cachestore.save_ms", "ms", all(func(r roundSample) []float64 { return r.saveMs }), false)
	e.timing(L, "cachestore.load_ms", "ms", all(func(r roundSample) []float64 { return r.loadMs }), false)
	if e.traced {
		e.timing(L, "engine.interp_replay_ns_per_step", "ns", each(func(r roundSample) float64 { return r.interpStep.per() }), false)
		e.timing(L, "obs.overhead_pct", "%", each(func(r roundSample) float64 { return 100 * (r.obs.t/r.obs.insts/(r.memo.t/r.memo.insts) - 1) }), false)
	}
}

// prepare computes the golden results, runs each program cold once for
// its reference result and exact counts, and seeds the store with every
// warm record the rounds restart from.
func (m *mix) prepare() error {
	e, s := m.e, m.spec
	root := e.tr.start(0, "prepare", layerBench, "prepare", 0)
	defer e.tr.end(root)
	var err error
	for _, p := range m.progs {
		if p.gold, err = golden(e, root, "golden/"+p.name, p.memo); err != nil {
			return err
		}
		if p.slow != nil {
			if p.goldSlow, err = golden(e, root, "golden/"+p.name, p.slow); err != nil {
				return err
			}
		}
		if p.goldBase, err = golden(e, root, "golden/"+p.name, p.base); err != nil {
			return err
		}
		job := "prepare/" + p.name
		c, _, err := simulate(e, root, job, p.memo, m.cfg(s.engine, true), 0, nil)
		if err != nil {
			return err
		}
		e.check(sameRun(c.res, p.gold), "%s cold memo run differs from the funcsim golden", p.name)
		p.cold, p.coldStats = c.res, c.st
		_, _, _, nb, err := m.park(root, job, p.key, c.r)
		if err != nil {
			return err
		}
		m.recordBytes += float64(nb)
	}
	if m.restartProg == nil {
		return nil
	}
	gold, err := golden(e, root, "golden/restart", m.restartProg)
	if err != nil {
		return err
	}
	m.restartKey = runcfg.LineageKey(s.restartProg, s.restartScale, "", s.engine, true, paperCap, nil)
	c, _, err := simulate(e, root, "prepare/restart", m.restartProg, m.cfg(s.engine, true), 0, nil)
	if err != nil {
		return err
	}
	e.check(sameRun(c.res, gold), "restart program cold run differs from the funcsim golden")
	m.restartRef = c.res
	_, _, _, _, err = m.park(root, "prepare/restart", m.restartKey, c.r)
	return err
}

// round runs every configuration of every program once, in an order that
// rotates with the round, with restart jobs spread between programs.
// Every op is bracketed by runs of the calibration kernel, which rescale
// its times to the reference host.
func (m *mix) round(round int) (rs roundSample, err error) {
	e, s := m.e, m.spec
	rs.traced = e.tr.recording()
	rid := e.tr.start(0, fmt.Sprintf("round-%d", round), layerBench, fmt.Sprintf("round %d", round), 0)
	defer e.tr.end(rid)

	// memo and warm run reps times a round: they are the cheap ops, and
	// the headline rates rest on them.
	ops := []string{"slow", "check", "base"}
	for i := 0; i < s.reps; i++ {
		ops = append(ops, "memo", "warm")
	}
	if e.traced {
		ops = append(ops, "interp", "obs")
	}
	n := len(m.progs)
	st := roundState{cold: make([]runcfg.Stats, n), coldRunS: make([]float64, n), slow: make([]runcfg.Result, n),
		check: make([]runcfg.Result, n), replayNs: make([]float64, n), slowNs: make([]float64, n)}
	var cal calibrator
	cal.start()
	for pi := 0; pi < n; pi++ {
		idx := (pi + round) % n
		p := m.progs[idx]
		for oi := range ops {
			op := ops[(oi+round+pi)%len(ops)]
			job := fmt.Sprintf("r%d/%s/%s", round, p.name, op)
			pid := e.tr.start(rid, job, layerBench, op+" "+p.name, 0)
			t0 := time.Now()
			out, err := m.op(&st, pid, job, op, p, idx)
			busy := time.Since(t0)
			e.tr.end(pid)
			if err != nil {
				return rs, err
			}
			f := cal.next()
			rs.busy += busy.Seconds() * f
			rs.runs++
			rs.file(&st, op, idx, out, f)
		}
		if m.restartProg == nil {
			continue
		}
		cal.start()
		for j := 0; j < s.restarts/n; j++ {
			job := fmt.Sprintf("r%d/restart-%d", round, pi*s.restarts/n+j)
			pid := e.tr.start(rid, job, layerBench, "restart job", 0)
			t := time.Now()
			rt, err := m.restart(pid, job, m.restartKey, m.restartProg, "")
			d := time.Since(t)
			e.tr.end(pid)
			if err != nil {
				return rs, err
			}
			e.check(rt.s.res.Insts == m.restartRef.Insts && rt.s.res.Cycles == m.restartRef.Cycles &&
				bytes.Equal(rt.s.res.Output, m.restartRef.Output), "%s: warm restart differs from its cold run", job)
			f := cal.next()
			rs.busy += d.Seconds() * f
			rs.runs++
			rs.restartMs = append(rs.restartMs, ms(d)*f)
			rs.restartRawMs = append(rs.restartRawMs, ms(d))
		}
	}
	for i, p := range m.progs {
		// The paper's claim: memoized cycles equal non-memoized cycles.
		a, b := st.check[i], st.slow[i]
		e.check(a.Insts == b.Insts && a.Cycles == b.Cycles,
			"r%d/%s: memo (%d insts, %d cycles) != no-memo (%d, %d)", round, p.name, a.Insts, a.Cycles, b.Insts, b.Cycles)
		// Record time: the cold run's time not explained by its slow
		// steps and replays at this round's per-step costs.
		c := st.cold[i]
		rs.recordS += st.coldRunS[i] - (float64(c.SlowSteps)*st.slowNs[i]+float64(c.Replays)*st.replayNs[i])/1e9
	}
	return rs, nil
}

// file adds one op's samples to the round, rescaled by f.
func (rs *roundSample) file(st *roundState, op string, idx int, o opOut, f float64) {
	msf := func(d time.Duration) float64 { return ms(d) * f }
	perStep := float64(o.run.Nanoseconds()) * f / float64(max(o.steps, 1))
	switch op {
	case "memo":
		rs.memo.add(o.insts, o.run, f)
		st.coldRunS[idx] = o.run.Seconds() * f
		rs.newMs = append(rs.newMs, msf(o.new))
		rs.detachMs, rs.encodeMs, rs.saveMs = append(rs.detachMs, msf(o.detach)), append(rs.encodeMs, msf(o.encode)), append(rs.saveMs, msf(o.save))
	case "warm":
		rs.warm.add(o.insts, o.load+o.decode+o.adopt+o.run, f)
		rs.loadMs, rs.decodeMs, rs.adoptMs = append(rs.loadMs, msf(o.load)), append(rs.decodeMs, msf(o.decode)), append(rs.adoptMs, msf(o.adopt))
		rs.replayStep.add(o.run, f, o.steps)
		st.replayNs[idx] = perStep
	case "interp":
		rs.interpStep.add(o.run, f, o.steps)
	case "slow":
		rs.slow.add(o.insts, o.run, f)
		rs.slowStep.add(o.run, f, o.steps)
		st.slowNs[idx] = perStep
	case "base":
		rs.base.add(o.insts, o.run, f)
		rs.oooInst.add(o.run, f, uint64(o.insts))
	case "obs":
		rs.obs.add(o.insts, o.run, f)
	}
}

// op runs one configuration of one program and checks its result.
func (m *mix) op(st *roundState, pid int, job, op string, p *mixProg, idx int) (o opOut, err error) {
	e, s := m.e, m.spec
	switch op {
	case "memo", "obs":
		cfg := m.cfg(s.engine, true)
		if op == "obs" {
			cfg.Obs = obs.NewRecorder(obs.Config{})
		}
		c, _, err := simulate(e, pid, job, p.memo, cfg, 0, nil)
		if err != nil {
			return o, err
		}
		e.check(sameRun(c.res, p.gold) && c.res.Cycles == p.cold.Cycles, "%s: cold memo run differs from golden/reference", job)
		o.insts, o.run, o.new = float64(c.res.Insts), c.runD, c.newD
		if op == "obs" {
			return o, nil
		}
		if c.st != p.coldStats {
			fmt.Printf("COUNT DRIFT %s: %+v != %+v\n", job, c.st, p.coldStats)
		}
		st.cold[idx] = c.st
		o.detach, o.encode, o.save, _, err = m.park(pid, job, p.key, c.r)
		return o, err
	case "warm", "interp":
		replay := ""
		if op == "interp" {
			replay = runcfg.ReplayInterp
		}
		rt, err := m.restart(pid, job, p.key, p.memo, replay)
		if err != nil {
			return o, err
		}
		e.check(sameRun(rt.s.res, p.gold) && rt.s.res.Cycles == p.cold.Cycles, "%s: warm run differs from the cold run", job)
		o.insts, o.run, o.steps = float64(rt.s.res.Insts), rt.s.runD, rt.s.st.Replays
		o.load, o.decode, o.adopt = rt.load, rt.decode, rt.adopt
	case "slow", "check":
		target := s.slowSteps[p.name]
		c, _, err := simulate(e, pid, job, m.slowProg(p), m.cfg(s.engine, op == "check"), target, nil)
		if err != nil {
			return o, err
		}
		if target == 0 {
			e.check(sameRun(c.res, p.goldSlow), "%s: whole-program run differs from the funcsim golden", job)
		}
		if op == "check" {
			st.check[idx] = c.res
			return o, nil
		}
		st.slow[idx] = c.res
		o.insts, o.run, o.steps = float64(c.res.Insts), c.runD, c.st.SlowSteps
	case "base":
		c, _, err := simulate(e, pid, job, p.base, m.cfg(runcfg.EngineOOO, false), 0, nil)
		if err != nil {
			return o, err
		}
		e.check(sameRun(c.res, p.goldBase), "%s: ooo baseline differs from the funcsim golden", job)
		o.insts, o.run = float64(c.res.Insts), c.runD
	}
	return o, nil
}

// counts reports the exact engine counts: the cold memo runs' stats
// summed over the mix, and the bundled description's fusion facts.
func (m *mix) counts() {
	e := m.e
	var t runcfg.Stats
	var ff float64
	for _, p := range m.progs {
		st := p.coldStats
		t.SlowSteps += st.SlowSteps
		t.Replays += st.Replays
		t.Misses += st.Misses
		t.KeyMisses += st.KeyMisses
		t.DegradedSteps += st.DegradedSteps
		t.Faults += st.Faults
		t.CacheBytes += st.CacheBytes
		t.CacheEntries += st.CacheEntries
		t.CacheClears += st.CacheClears
		ff += st.FastForwardedPc / float64(len(m.progs))
	}
	e.count("engine.slow_steps", float64(t.SlowSteps))
	e.count("engine.replays", float64(t.Replays))
	e.count("engine.misses", float64(t.Misses))
	e.count("engine.key_misses", float64(t.KeyMisses))
	e.count("engine.degraded_steps", float64(t.DegradedSteps))
	e.count("engine.faults", float64(t.Faults))
	e.count("engine.cache_bytes", float64(t.CacheBytes))
	e.count("engine.cache_entries", float64(t.CacheEntries))
	e.count("engine.clears", float64(t.CacheClears))
	e.count("engine.fastfwd_pct", ff)
	e.count("engine.replay_share", float64(t.Replays)/float64(max(t.Replays+t.SlowSteps, 1)))
	e.count("cachestore.record_bytes", m.recordBytes)
	if f := runcfg.FusionFacts(m.spec.engine); f != nil {
		e.countText("fusion.predicted_ops", float64(f.FusableOps))
		e.countText("fusion.coverage_pc", 100*f.Coverage)
	}
}
