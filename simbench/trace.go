package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Spans are recorded by the benchmark itself, around each call it makes
// into a layer of the simulator. A nil *tracer is the untraced mode: it
// records nothing and allocates nothing.

type span struct {
	ID, Parent int
	Job        string // spans of one job (one simulation or one served request) share it
	Layer      string // the module called, e.g. "internal/runcfg"
	Name       string // the call, e.g. "Runner.Run"
	Lane       int    // 0 = main goroutine, i = fleet client i
	Start, End time.Duration
}

type tracer struct {
	t0 time.Time
	on atomic.Bool // traced runs alternate rounds with spans on and off

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.on.Store(true)
	return t
}

// start opens a span and returns its ID (0 when not recording).
func (t *tracer) start(parent int, job, layer, name string, lane int) int {
	if t == nil || !t.on.Load() {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Job: job,
		Layer: layer, Name: name, Lane: lane, Start: now, End: -1})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds a span whose times were measured elsewhere — the worker's
// own queued/started/finished timestamps, read from a job's status.
func (t *tracer) record(parent int, job, layer, name string, lane int, from, to time.Time) {
	if t == nil || parent == 0 || to.Before(from) {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Job: job, Layer: layer, Name: name,
		Lane: lane, Start: from.Sub(t.t0), End: to.Sub(t.t0)})
}

// recording reports whether spans are being recorded right now.
func (t *tracer) recording() bool { return t != nil && t.on.Load() }

// timed runs fn under a span and returns its wall time, measured from
// outside the call whether or not spans are recorded.
func (t *tracer) timed(parent int, job, layer, name string, fn func()) time.Duration {
	id := t.start(parent, job, layer, name, 0)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	t.end(id)
	return d
}

// layerTime is one layer's share of the traced run.
type layerTime struct {
	Layer       string
	Spans       int
	Total, Self time.Duration
}

// selfTimes sums, per layer, each span's duration and its self time: the
// duration minus the part of its interval that its child spans cover.
func (t *tracer) selfTimes() []layerTime {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	agg := map[string]*layerTime{}
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		lt := agg[s.Layer]
		if lt == nil {
			lt = &layerTime{Layer: s.Layer}
			agg[s.Layer] = lt
		}
		lt.Spans++
		lt.Total += s.End - s.Start
		lt.Self += s.End - s.Start - covered(s, kids[s.ID])
	}
	var out []layerTime
	for _, lt := range agg {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum time.Duration
	cur, curEnd := time.Duration(-1), time.Duration(-1)
	for _, k := range kids {
		s, e := max(k.Start, p.Start), min(k.End, p.End)
		if e <= s {
			continue
		}
		if s > curEnd {
			if curEnd > cur {
				sum += curEnd - cur
			}
			cur, curEnd = s, e
		} else if e > curEnd {
			curEnd = e
		}
	}
	if curEnd > cur {
		sum += curEnd - cur
	}
	return sum
}

// writeChrome writes the spans as a Chrome trace_event file (open it in
// Perfetto or chrome://tracing).
func (t *tracer) writeChrome(path string) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	type ev struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]ev, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		evs = append(evs, ev{Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts: float64(s.Start.Nanoseconds()) / 1e3, Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.Lane,
			Args: map[string]any{"job": s.Job, "layer": s.Layer, "id": s.ID, "parent": s.Parent}})
	}
	blob, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return 0, err
	}
	return len(evs), os.WriteFile(path, blob, 0o644)
}
