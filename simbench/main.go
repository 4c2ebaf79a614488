// Command simbench is the repository's benchmark: it drives the
// simulator's layers through their public functions, times every call
// from outside, checks every result, and prints one JSON line of
// metrics. See README.md for the workloads and metrics.
//
//	simbench -workload fastsim-mix -seed 1 -seconds 20 -trace 0
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

type workload struct {
	name string
	run  func(e *env) error
}

var allWorkloads = []workload{
	{"fastsim-mix", runFastsimMix},
	{"facile-mix", runFacileMix},
	{"fleet-jobs", runFleetJobs},
}

// The metrics every run reports, as BENCHMARK.json lists them: the
// end-to-end set in untraced runs, the per-layer set in traced runs.
var e2eMetrics = []string{
	"memo_msips", "nomemo_msips", "base_msips", "warm_msips",
	"job_p50_ms", "job_tail_ms", "jobs_per_s", "setup_s",
}

var layerMetrics = []string{
	"asm.assemble_ms", "runcfg.new_ms",
	"engine.slow_ns_per_step", "engine.replay_ns_per_step", "engine.record_s", "engine.interp_replay_ns_per_step",
	"engine.slow_steps", "engine.replays", "engine.misses", "engine.key_misses", "engine.degraded_steps",
	"engine.faults", "engine.fastfwd_pct", "engine.cache_bytes", "engine.cache_entries", "engine.clears",
	"engine.replay_share", "ooo.ns_per_inst",
	"warm.detach_ms", "warm.encode_ms", "warm.decode_ms", "warm.adopt_ms",
	"cachestore.save_ms", "cachestore.load_ms", "cachestore.record_bytes", "obs.overhead_pct",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// env is one benchmark run: its settings, its correctness tally and the
// metrics it reports.
type env struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	tr       *tracer // nil in untraced runs
	dir      string  // scratch directory for stores and traces, inside the checkout

	attempted, failed int

	e2e    map[string]metric // printed with -trace 0
	layers map[string]metric // printed with -trace 1
	counts []string          // exact counts, printed apart from timings
	rss    []float64         // peak resident memory (MB) of each round or epoch
}

// check counts one checked operation; a false ok is a failed one.
func (e *env) check(ok bool, format string, args ...any) bool {
	e.attempted++
	if !ok {
		e.failed++
		fmt.Fprintln(os.Stderr, "simbench: check failed:", fmt.Sprintf(format, args...))
	}
	return ok
}

// timing reports a timed quantity: one line with its distribution, and
// its median under name in the metric set it belongs to.
func (e *env) timing(set map[string]metric, name, unit string, xs []float64, lowerBad bool) summary {
	s := summarize(xs, lowerBad)
	fmt.Printf("  %-34s %-12s %s\n", name, unit, s)
	if set != nil && s.N > 0 {
		set[name] = metric{Value: s.Median, Unit: unit}
	}
	return s
}

// count reports an exact count: it must repeat bit-for-bit across runs
// of the same code and seed.
func (e *env) count(name string, v float64) {
	e.layers[name] = metric{Value: v, Unit: "count"}
	e.counts = append(e.counts, fmt.Sprintf("%s=%s", name, strconv.FormatFloat(v, 'g', -1, 64)))
}

// countText reports an exact count in the text report only: a count
// that only some workloads have.
func (e *env) countText(name string, v float64) {
	e.counts = append(e.counts, fmt.Sprintf("%s=%s", name, strconv.FormatFloat(v, 'g', -1, 64)))
}

// latency prints a latency distribution and reports its tail under
// tail: the highest percentile with at least ten samples beyond it.
func (e *env) latency(tail, what string, xs []float64) summary {
	s := e.timing(nil, what+" latency", "ms", xs, false)
	v, pct := s.Tail, fmt.Sprintf("p%d", s.TailPct)
	if s.TailPct == 0 {
		v, pct = quantile(xs, 1), "max (fewer than 11 samples)"
	}
	e.e2e[tail] = metric{Value: v, Unit: "ms"}
	fmt.Printf("  %-34s %-12s %s of %d %s = %s\n", tail, "ms", pct, s.N, what, fmtNum(v))
	return s
}

func main() {
	wl := flag.String("workload", "", "workload name: fastsim-mix, facile-mix or fleet-jobs")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 25, "how long to measure; sets the number of rounds")
	trace := flag.Int("trace", 0, "1 = traced run: record spans and report per-layer metrics")
	out := flag.String("out", ".bench_build/simbench", "directory for stores, spans and scratch files")
	flag.Parse()

	var w *workload
	for i := range allWorkloads {
		if allWorkloads[i].name == *wl {
			w = &allWorkloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: simbench -workload fastsim-mix|facile-mix|fleet-jobs -seed N -seconds S -trace 0|1\n")
		os.Exit(2)
	}
	dir, err := os.MkdirTemp(mustMkdir(*out), fmt.Sprintf("%s-seed%d-", w.name, *seed))
	if err != nil {
		fatal(err)
	}
	e := &env{workload: w.name, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		traced: *trace == 1, dir: dir, e2e: map[string]metric{}, layers: map[string]metric{}}
	if e.traced {
		e.tr = newTracer()
	}
	printHost(e)
	if err := w.run(e); err != nil {
		os.RemoveAll(dir)
		fatal(err)
	}

	e.timing(nil, "peak_rss_mb", "MB", e.rss, false)
	frac := 0.0
	if e.attempted > 0 {
		frac = float64(e.failed) / float64(e.attempted)
	}
	fmt.Printf("  %-34s %-12s %g (%d failed of %d checked operations)\n", "failed_frac", "ratio", frac, e.failed, e.attempted)
	sort.Strings(e.counts)
	fmt.Printf("exact counts: %s\n", strings.Join(e.counts, " "))

	if e.tr != nil {
		fmt.Println("per-layer self time (from spans):")
		for _, lt := range e.tr.selfTimes() {
			fmt.Printf("  %-28s self %9.1f ms  total %9.1f ms  spans %d\n", lt.Layer, ms(lt.Self), ms(lt.Total), lt.Spans)
		}
		path := filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.json", w.name, *seed))
		n, err := e.tr.writeChrome(path)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d spans to %s\n", n, path)
	}
	os.RemoveAll(dir)

	want, have := e2eMetrics, e.e2e
	if e.traced {
		want, have = layerMetrics, e.layers
	}
	metrics := map[string]metric{}
	for _, name := range want {
		m, ok := have[name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fatal(fmt.Errorf("metric %s was not measured", name))
		}
		metrics[name] = m
	}
	line, _ := json.Marshal(map[string]any{
		"correct": e.failed == 0 && e.attempted > 0, "attempted": max(e.attempted, 1), "failed": e.failed,
		"metrics": metrics,
	})
	fmt.Println(string(line))
}

func mustMkdir(d string) string {
	if err := os.MkdirAll(d, 0o755); err != nil {
		fatal(err)
	}
	return d
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "simbench:", err)
	os.Exit(1)
}

func printHost(e *env) {
	cpu := "unknown"
	if blob, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(bytes.NewReader(blob))
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	fmt.Printf("simbench %s seed=%d seconds=%d traced=%v\n", e.workload, e.seed, int(e.seconds.Seconds()), e.traced)
	fmt.Printf("host: nproc=%d go=%s cpu=%q\n", runtime.NumCPU(), runtime.Version(), cpu)
}

// resetPeakRSS resets the process's peak resident set size (VmHWM) to
// its current resident set size, so each round's peak is its own. Where
// the kernel refuses, each sample is the process's peak so far.
func resetPeakRSS() {
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	blob, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, ln := range strings.Split(string(blob), "\n") {
		if v, ok := strings.CutPrefix(ln, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}
