package main

// fleet-jobs: a closed loop of two clients submitting short memoizing
// jobs over loopback HTTP to an in-process fleet router in front of two
// job servers, each with one pool worker, a cache store and the
// always-on observability recorder, as fsimd runs.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"slices"
	"sort"
	"sync"
	"time"

	"facile/internal/cachestore"
	"facile/internal/fleet"
	"facile/internal/isa/loader"
	"facile/internal/obs"
	"facile/internal/runcfg"
	"facile/internal/serve"
)

const (
	fleetBench   = "126.gcc"
	fleetScale   = 2
	fleetClients = 2
	fleetWorkers = fleetClients // each client's lineages live on a worker of its own
	epochJobs    = 10           // jobs per client between calibration runs: one block
	epochS       = 0.8          // wall seconds per epoch on the reference host
)

// Job classes. Every job runs 126.gcc at one scale, so a class is one
// latency population; lineages differ by their (non-binding) cache cap.
const (
	classWarmFast = "fastsim-warm" // fastsim memo on one of its client's two shared lineages
	classWarmFac  = "fac-ooo-warm" // fac-ooo memo on its client's shared lineage
	classCold     = "fastsim-cold" // fastsim memo on a lineage no other job shares
)

// block is the fixed class mix of every ten jobs a client submits; the
// seed shuffles each block. The fastsim-warm class is most of the mix,
// so the reported median sits inside it.
var block = []string{classWarmFast, classWarmFast, classWarmFast, classWarmFast, classWarmFast,
	classWarmFast, classWarmFast, classWarmFac, classWarmFac, classCold}

type fleetJob struct {
	seq    int
	client int
	class  string
	req    serve.JobRequest

	submitD      time.Duration // client Submit call
	latency      time.Duration // Submit to terminal status received
	recvAt       time.Time
	st           serve.JobStatus
	err          error
	epoch        int
	traced       bool
	firstOfShare bool // first job of a shared lineage: runs cold
}

// jobSequence builds each client's job list: blocks of the fixed mix.
// Every lineage a client uses is one the router places on that client's
// own worker (workers[c]), so a client never queues behind the other
// client's job: each class is one latency population, not a mix of
// queued and unqueued jobs.
func jobSequence(seed int64, blocks int, workers []string) [][]*fleetJob {
	rng := rand.New(rand.NewSource(seed))
	ring := fleet.NewRing(0)
	for _, w := range workers {
		ring.Add(w)
	}
	// nextCap returns the next cache cap, stepping down from the paper's,
	// whose lineage the router places on worker w.
	capAt := uint64(paperCap)
	nextCap := func(engine, w string) uint64 {
		for {
			capAt -= 4 << 10
			req := serve.JobRequest{Bench: fleetBench, Scale: fleetScale, Engine: engine, Memoize: true, CacheCapBytes: capAt}
			if owner, _ := ring.Owner(req.LineageKey()); owner == w {
				return capAt
			}
		}
	}
	type lineages struct {
		fast [2]uint64
		fac  uint64
	}
	shared := make([]lineages, len(workers))
	for c, w := range workers {
		shared[c] = lineages{[2]uint64{nextCap(runcfg.EngineFastsim, w), nextCap(runcfg.EngineFastsim, w)}, nextCap(runcfg.EngineFacOOO, w)}
	}
	seen := map[uint64]bool{}
	jobs := make([][]*fleetJob, len(workers))
	seq := 0
	for b := 0; b < blocks; b++ {
		for c, w := range workers {
			for _, i := range rng.Perm(len(block)) {
				j := &fleetJob{seq: seq, client: c, class: block[i]}
				seq++
				req := serve.JobRequest{Bench: fleetBench, Scale: fleetScale, Engine: runcfg.EngineFastsim, Memoize: true}
				switch j.class {
				case classWarmFast:
					req.CacheCapBytes = shared[c].fast[rng.Intn(2)]
				case classWarmFac:
					req.Engine, req.CacheCapBytes = runcfg.EngineFacOOO, shared[c].fac
				case classCold:
					req.CacheCapBytes = nextCap(req.Engine, w)
				}
				if j.class != classCold {
					j.firstOfShare = !seen[req.CacheCapBytes]
					seen[req.CacheCapBytes] = true
				}
				j.req = req
				jobs[c] = append(jobs[c], j)
			}
		}
	}
	return jobs
}

// stack is one router with its workers, all serving on loopback.
type stack struct {
	router  *fleet.Router
	servers []*serve.Server
	https   []*http.Server
	url     string   // router base URL
	urls    []string // worker base URLs
	names   []string // worker names in the fleet, as registration assigned them
}

func listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	return srv, "http://" + ln.Addr().String(), nil
}

// standUp builds the router, the workers with their stores, and
// registers the workers over HTTP, as fsimd -register does.
func standUp(e *env, parent int, dir string) (*stack, error) {
	st := &stack{}
	var err error
	e.tr.timed(parent, "setup", layerFleet, "fleet.NewRouter", func() {
		st.router = fleet.NewRouter(fleet.Config{})
		var hs *http.Server
		if hs, st.url, err = listen(st.router.Handler()); err == nil {
			st.https = append(st.https, hs)
		}
	})
	if err != nil {
		return st, err
	}
	for i := 0; i < fleetWorkers; i++ {
		rec := obs.NewRecorder(obs.Config{})
		var store *cachestore.Store
		e.tr.timed(parent, "setup", layerStore, "cachestore.Open", func() {
			store, err = cachestore.Open(fmt.Sprintf("%s/w%d", dir, i), cachestore.Options{Rec: rec})
		})
		if err != nil {
			return st, err
		}
		var url string
		e.tr.timed(parent, "setup", layerServe, "serve.New", func() {
			srv := serve.New(serve.Config{Workers: 1, Rec: rec, Store: store})
			st.servers = append(st.servers, srv)
			var hs *http.Server
			if hs, url, err = listen(srv.Handler()); err == nil {
				st.https = append(st.https, hs)
				st.urls = append(st.urls, url)
			}
		})
		if err != nil {
			return st, err
		}
		e.tr.timed(parent, "setup", layerFleet, "fleet.RegisterWorker", func() {
			var rr fleet.RegisterResponse
			rr, err = fleet.RegisterWorker(context.Background(), http.DefaultClient, st.url, fleet.RegisterRequest{URL: url})
			st.names = append(st.names, rr.Name)
		})
		if err != nil {
			return st, err
		}
	}
	return st, nil
}

func (st *stack) close() {
	for _, s := range st.servers {
		s.Drain()
	}
	if st.router != nil {
		st.router.Close()
	}
	for _, h := range st.https {
		h.Close()
	}
}

// expected is the reference result of one job shape, run in-process.
type expected struct {
	insts, cycles uint64
	output        []byte
	exit          int64
}

func runFleetJobs(e *env) error {
	// Set-up, repeated: assemble the program, compile and vet the Facile
	// description, construct one engine per job shape, stand up the
	// router and workers and register them. The last stack stays up.
	probe, err := newMix(e, fleetProbeSpec)
	if err != nil {
		return err
	}
	const setupReps = 11
	var setupS, asmMs, buildMs, preflightMs, standMs []float64
	var st *stack
	var cal calibrator
	for rep := 0; rep < setupReps; rep++ {
		if st != nil {
			st.close()
		}
		cal.start()
		t0 := time.Now()
		a, _, _, _, err := probe.setup(rep)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		b, p, err := setupFacOOO(e, probe.progs[0].slow)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		t1 := time.Now()
		st, err = standUp(e, 0, fmt.Sprintf("%s/stores-%d", e.dir, rep))
		stand := time.Since(t1)
		d := time.Since(t0)
		if err != nil {
			st.close()
			return fmt.Errorf("setup: %w", err)
		}
		f := cal.next()
		setupS = append(setupS, d.Seconds()*f)
		asmMs, buildMs, preflightMs = append(asmMs, ms(a)*f), append(buildMs, ms(b)*f), append(preflightMs, ms(p)*f)
		standMs = append(standMs, ms(stand)*f)
	}
	defer st.close()

	// The engine rates of the served program, measured in-process
	// before the loop fills the heap with parked caches.
	if err := probe.prepare(); err != nil {
		return err
	}
	rounds, err := probe.measure(probeRounds, e.seconds)
	if err != nil {
		return err
	}
	want, err := fleetExpected(e)
	if err != nil {
		return err
	}

	jobs := jobSequence(e.seed, roundsFor(e.seconds, epochS)*epochJobs/len(block), st.names)
	e.rss = nil // the fleet's memory is the served loop's, not the in-process runs'.
	done, loops, err := runLoop(e, st, jobs, want)
	if err != nil {
		return err
	}

	var hop []float64
	if e.traced {
		if hop, err = hopProbe(e, st); err != nil {
			return err
		}
	}
	reportFleet(e, st, done, loops, setupS, hop)

	fmt.Println("per-layer (set-up):")
	e.timing(e.layers, "asm.assemble_ms", "ms", asmMs, false)
	e.timing(nil, "facsim.build_ms", "ms", buildMs, false)
	e.timing(nil, "facsim.preflight_ms", "ms", preflightMs, false)
	e.timing(nil, "fleet.standup_ms", "ms", standMs, false)

	fmt.Println("end-to-end (engine rates of the served program, in-process):")
	for _, rd := range mixRates {
		e.timing(e.e2e, rd.name, "Msim-inst/s", rd.rates(rounds, nil, false), true)
	}
	fmt.Println("per-layer (engine, warm codec and store, same in-process runs):")
	probe.layerTimings(rounds)
	probe.counts()
	return nil
}

// setupFacOOO is the fac-ooo share of the set-up: compile and vet the
// description, construct the engine.
func setupFacOOO(e *env, prog *loader.Program) (build, preflight time.Duration, err error) {
	root := e.tr.start(0, "setup", layerBench, "setup fac-ooo", 0)
	defer e.tr.end(root)
	if build, preflight, _, err = buildFacile(e, root); err != nil {
		return
	}
	e.tr.timed(root, "setup", layerRuncfg, "runcfg.New fac-ooo", func() {
		_, err = runcfg.New(prog, runcfg.Config{Engine: runcfg.EngineFacOOO, Memoize: true})
	})
	return
}

// probeRounds of the served program give the fleet's engine rates.
const probeRounds = 60

// fleetProbeSpec runs the served program in-process. Cold memo and warm
// runs use scale 10: at the served scale a memo run lasts 5 ms, too short
// to time steadily against the host's drift. No-memo and baseline runs
// use the served scale.
var fleetProbeSpec = mixSpec{
	engine: runcfg.EngineFastsim, progs: []string{fleetBench},
	memoScale: 10, baseScale: fleetScale, slowScale: fleetScale,
	reps: 2,
}

// fleetExpected runs every job shape in-process and records the result
// each served job must reproduce.
func fleetExpected(e *env) (map[string]expected, error) {
	root := e.tr.start(0, "expected", layerBench, "expected results", 0)
	defer e.tr.end(root)
	prog, _, err := assemble(e, root, fleetBench, fleetScale)
	if err != nil {
		return nil, err
	}
	gold, err := golden(e, root, "expected/golden", prog)
	if err != nil {
		return nil, err
	}
	want := map[string]expected{}
	for _, c := range []struct {
		engine string
		memo   bool
	}{{runcfg.EngineFastsim, true}, {runcfg.EngineFastsim, false}, {runcfg.EngineFacOOO, true}, {runcfg.EngineOOO, false}} {
		s, _, err := simulate(e, root, "expected/"+c.engine, prog, runcfg.Config{Engine: c.engine, Memoize: c.memo}, 0, nil)
		if err != nil {
			return nil, err
		}
		e.check(sameRun(s.res, gold), "expected %s result differs from the funcsim golden", c.engine)
		key := fmt.Sprintf("%s/%v", c.engine, c.memo)
		want[key] = expected{s.res.Insts, s.res.Cycles, s.res.Output, s.res.Exit}
	}
	// The paper's claim, on the served program: memo cycles = no-memo.
	a, b := want[runcfg.EngineFastsim+"/true"], want[runcfg.EngineFastsim+"/false"]
	e.check(a.cycles == b.cycles, "fastsim memo cycles %d != no-memo cycles %d", a.cycles, b.cycles)
	return want, nil
}

// loopEpoch is one epoch of the closed loop: its jobs, its wall time
// and the calibration factor of its bracket.
type loopEpoch struct {
	jobs int
	wall time.Duration
	f    float64
}

// runLoop drives the closed loop in epochs: in each, every client works
// through its next block of jobs, submitting its next job only after its
// previous one ended; between epochs the calibration kernel runs alone.
func runLoop(e *env, st *stack, jobs [][]*fleetJob, want map[string]expected) ([]*fleetJob, []loopEpoch, error) {
	clients := make([]*serve.Client, len(jobs))
	for i := range clients {
		clients[i] = serve.NewClient(st.url)
	}
	var done []*fleetJob
	var epochs []loopEpoch
	cal := calibrator{served: true}
	cal.start()
	start := time.Now()
	epochsWanted := roundsFor(e.seconds, epochS)
	for ep := 0; ep < epochsWanted && (ep+1)*epochJobs <= len(jobs[0]); ep++ {
		if limit := e.seconds * 5 / 4; ep >= 3 && time.Since(start) > limit {
			fmt.Printf("stopping after %d of %d epochs: over %v\n", ep, epochsWanted, limit)
			break
		}
		if e.tr != nil {
			e.tr.on.Store(ep%2 == 0)
		}
		var batch []*fleetJob
		var wg sync.WaitGroup
		resetPeakRSS()
		t0 := time.Now()
		for c := range clients {
			mine := jobs[c][ep*epochJobs : (ep+1)*epochJobs]
			batch = append(batch, mine...)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, j := range mine {
					j.epoch = ep
					runJob(e, clients[c], c+1, j)
				}
			}()
		}
		wg.Wait()
		wall := time.Since(t0)
		e.rss = append(e.rss, peakRSSMB())
		f := cal.next()
		epochs = append(epochs, loopEpoch{jobs: len(batch), wall: wall, f: f})
		for _, j := range batch {
			if j.err != nil {
				return nil, nil, fmt.Errorf("job %d (%s): %w", j.seq, j.class, j.err)
			}
			checkJob(e, j, want)
		}
		done = append(done, batch...)
	}
	if e.tr != nil {
		e.tr.on.Store(true)
	}
	fmt.Printf("closed loop: %d clients, %d jobs in %d epochs, %.1f s\n", len(clients), len(done), len(epochs), time.Since(start).Seconds())
	return done, epochs, nil
}

// runJob submits one job through the router and follows its event
// stream to the terminal status line.
func runJob(e *env, c *serve.Client, lane int, j *fleetJob) {
	ctx := context.Background()
	id := fmt.Sprintf("job-%d", j.seq) // every span of the job carries it
	sid := e.tr.start(0, id, layerBench, "job "+j.class, lane)
	t0 := time.Now()
	sub := e.tr.start(sid, id, layerFleet, "Client.Submit via router", lane)
	st, err := c.Submit(ctx, j.req)
	j.submitD = time.Since(t0)
	e.tr.end(sub)
	if err != nil {
		j.err = err
		e.tr.end(sid)
		return
	}
	wid := e.tr.start(sid, id, layerFleet, "Client.WaitJob via router "+st.ID, lane)
	j.st, j.err = c.WaitJob(ctx, st.ID, nil)
	j.recvAt = time.Now()
	j.latency = j.recvAt.Sub(t0)
	e.tr.record(wid, id, layerServe, "queued on worker", lane, j.st.QueuedAt, j.st.StartedAt)
	e.tr.record(wid, id, layerServe, "running on worker", lane, j.st.StartedAt, j.st.FinishedAt)
	e.tr.end(wid)
	e.tr.end(sid)
	j.traced = sid != 0
}

// checkJob verifies a served result against the in-process reference.
func checkJob(e *env, j *fleetJob, want map[string]expected) {
	w := want[fmt.Sprintf("%s/%v", j.req.Engine, j.req.Memoize)]
	r := j.st.Result
	e.check(j.st.State == serve.StateDone && r != nil && r.Insts == w.insts && r.Cycles == w.cycles &&
		r.Exit == w.exit && bytes.Equal(r.Output, w.output),
		"job %s (%s): state %s, result %+v, want %d insts %d cycles", j.st.ID, j.class, j.st.State, r, w.insts, w.cycles)
}

// hopProbe measures the router's proxy hop: the same status call for a
// running job through the router and straight to its worker.
func hopProbe(e *env, st *stack) ([]float64, error) {
	ctx := context.Background()
	rc := serve.NewClient(st.url)
	long := serve.JobRequest{Bench: fleetBench, Scale: 400, Engine: runcfg.EngineOOO}
	fst, err := rc.Submit(ctx, long)
	if err != nil {
		return nil, err
	}
	var wc *serve.Client
	var remote string
	for wait := 0; wait < 200 && remote == ""; wait++ {
		for i, s := range st.servers {
			for _, js := range s.List() {
				if js.Engine == runcfg.EngineOOO && js.State == serve.StateRunning {
					remote, wc = js.ID, serve.NewClient(st.urls[i])
				}
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	defer func() {
		rc.Cancel(ctx, fst.ID)
		rc.Wait(ctx, fst.ID, 5*time.Millisecond)
	}()
	if remote == "" {
		return nil, errors.New("hop probe: the long job never started")
	}
	var hop []float64
	for i := 0; i < 40; i++ {
		t0 := time.Now()
		s1, err1 := rc.Status(ctx, fst.ID)
		t1 := time.Now()
		s2, err2 := wc.Status(ctx, remote)
		t2 := time.Now()
		if err1 != nil || err2 != nil || s1.State != serve.StateRunning || s2.State != serve.StateRunning {
			break
		}
		hop = append(hop, ms(t1.Sub(t0))-ms(t2.Sub(t1)))
	}
	return hop, nil
}

func reportFleet(e *env, st *stack, done []*fleetJob, epochs []loopEpoch, setupS, hop []float64) {
	f := map[int]float64{}
	for i, ep := range epochs {
		f[i] = ep.f
	}
	byClass := map[string][]*fleetJob{}
	for _, j := range done {
		c := j.class
		if j.firstOfShare {
			c = "first-of-lineage"
		}
		byClass[c] = append(byClass[c], j)
	}
	runMs := func(j *fleetJob) float64 { return ms(j.st.FinishedAt.Sub(j.st.StartedAt)) * f[j.epoch] }
	// rate reports a class's served rate: its instructions over its summed
	// worker run time, over the whole run (the reported value) and per
	// epoch (the distribution printed beside it).
	rate := func(name, class string) {
		insts, t := make([]float64, len(epochs)), make([]float64, len(epochs))
		var sumI, sumT float64
		for _, j := range byClass[class] {
			insts[j.epoch] += float64(j.st.Result.Insts)
			t[j.epoch] += runMs(j)
			sumI += float64(j.st.Result.Insts)
			sumT += runMs(j)
		}
		var xs []float64
		for i := range epochs {
			if t[i] > 0 {
				xs = append(xs, insts[i]/t[i]/1e3)
			}
		}
		e.timing(nil, name+" (per epoch)", "Msim-inst/s", xs, true)
		fmt.Printf("  %-34s %-12s %s over %d %s jobs\n", name, "Msim-inst/s", fmtNum(sumI/sumT/1e3), len(byClass[class]), class)
	}
	lat := func(class string, raw bool) []float64 {
		var xs []float64
		for _, j := range byClass[class] {
			if raw {
				xs = append(xs, ms(j.latency))
			} else {
				xs = append(xs, ms(j.latency)*f[j.epoch])
			}
		}
		return xs
	}
	fmt.Println("end-to-end (served, worker run time = started→finished on the worker):")
	rate("served memo_msips", classCold)
	rate("served warm_msips", classWarmFast)
	// job_p50_ms is the median latency of the fastsim-warm class, so the
	// percentile sits inside one latency population; job_tail_ms is the
	// tail over all jobs.
	var all []float64
	var sum float64
	for _, j := range done {
		l := ms(j.latency) * f[j.epoch]
		all = append(all, l)
		sum += l
	}
	var perS []float64
	var jobs, wall float64
	for _, ep := range epochs {
		perS = append(perS, float64(ep.jobs)/(ep.wall.Seconds()*ep.f))
		jobs += float64(ep.jobs)
		wall += ep.wall.Seconds() * ep.f
	}
	e.timing(e.e2e, "job_p50_ms", "ms", lat(classWarmFast, false), false)
	e.latency("job_tail_ms", "jobs", all)
	// Throughput of the closed loop by Little's law: clients ÷ mean
	// latency. It counts the same completed jobs per second as the loop
	// does, without the idle tail at the end of each epoch, whose length
	// depends on which job happens to finish last.
	jps := float64(fleetClients) / (sum / float64(len(all)) / 1e3)
	e.e2e["jobs_per_s"] = metric{Value: jps, Unit: "jobs/s"}
	fmt.Printf("  %-34s %-12s %s (%d clients / mean latency over %d jobs)\n", "jobs_per_s", "jobs/s", fmtNum(jps), fleetClients, len(all))
	e.timing(nil, "jobs_per_s (per epoch, with its idle tail)", "jobs/s", perS, true)
	fmt.Printf("  %-34s %-12s %s (%.0f jobs over %.2f s of loop time)\n", "jobs_per_s (pooled)", "jobs/s", fmtNum(jobs/wall), jobs, wall)
	e.timing(e.e2e, "setup_s", "s", setupS, false)
	fmt.Println("latency by class (submit→terminal status, ms):")
	classes := make([]string, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		e.timing(nil, c, "ms", lat(c, false), false)
	}
	e.timing(nil, "job_p50_ms (raw host time)", "ms", lat(classWarmFast, true), false)
	if e.tr != nil {
		var on, off []float64
		for _, j := range byClass[classWarmFast] {
			if j.traced {
				on = append(on, ms(j.latency)*f[j.epoch])
			} else {
				off = append(off, ms(j.latency)*f[j.epoch])
			}
		}
		fmt.Printf("tracing overhead: %s job p50 with spans %s ms, without %s ms (%+.1f%%)\n",
			classWarmFast, fmtNum(median(on)), fmtNum(median(off)), 100*(median(on)-median(off))/median(off))
	}

	fmt.Println("per-layer (serve and fleet, " + classWarmFast + " jobs):")
	var submit, queue, run, tail []float64
	for _, j := range byClass[classWarmFast] {
		submit = append(submit, ms(j.submitD)*f[j.epoch])
		queue = append(queue, ms(j.st.StartedAt.Sub(j.st.QueuedAt))*f[j.epoch])
		run = append(run, runMs(j))
		tail = append(tail, ms(j.recvAt.Sub(j.st.FinishedAt))*f[j.epoch])
	}
	e.timing(nil, "serve.submit_ms", "ms", submit, false)
	e.timing(nil, "serve.queue_wait_ms", "ms", queue, false)
	e.timing(nil, "serve.run_ms", "ms", run, false)
	e.timing(nil, "serve.stream_tail_ms", "ms", tail, false)
	if len(hop) > 0 {
		e.timing(nil, "fleet.hop_ms", "ms", hop, false)
	}
	var saveNs, saves uint64
	for _, s := range st.servers {
		h := s.Recorder().Registry().Histogram("cachestore.save_ns")
		saveNs += h.Sum()
		saves += h.Count()
	}
	if saves > 0 {
		fmt.Printf("  %-34s %-12s %s (mean of %d saves on park, read from the workers' registries)\n",
			"cachestore.save_ms (served)", "ms", fmtNum(float64(saveNs)/float64(saves)/1e6), saves)
	}
	// Placement: client i's lineages were chosen to land on worker i.
	perWorker, perClient := make([]int, len(st.servers)), make([]int, len(st.servers))
	for i, s := range st.servers {
		for _, js := range s.List() {
			if js.LineageKey != "" {
				perWorker[i]++
			}
		}
	}
	for _, j := range done {
		perClient[j.client]++
	}
	fmt.Printf("  %-34s %-12s %s (memo jobs per worker %v, per client %v)\n", "fleet.placement_skew", "ratio",
		fmtNum(float64(slices.Max(perWorker))/float64(max(slices.Min(perWorker), 1))), perWorker, perClient)
	if !slices.Equal(perWorker, perClient) {
		fmt.Fprintf(os.Stderr, "simbench: the router placed jobs off their client's worker: %v, want %v; clients queue behind each other\n", perWorker, perClient)
	}

	// Exact counts over the first 100 jobs of the sequence, which every
	// run completes.
	const prefix = 100
	var memo, warm int
	var fast float64
	for _, j := range done[:min(prefix, len(done))] {
		if !j.req.Memoize {
			continue
		}
		memo++
		if j.st.WarmStart {
			warm++
		}
		fast += j.st.FastSharePc
	}
	e.countText("serve.warm_start_share", float64(warm)/float64(max(memo, 1)))
	e.countText("serve.fast_share_pc", fast/float64(max(memo, 1)))
	fm := st.router.Metrics(context.Background())
	e.countText("fleet.reroutes", float64(fm.Router.Counters["frouter.jobs_rerouted"]))
	for _, j := range done {
		if j.class == classCold && j.st.WarmStart {
			fmt.Fprintf(os.Stderr, "simbench: job %s opened a new lineage but warm-started\n", j.st.ID)
		}
	}
}
