package main

//wblint:file-ignore DT001 spans are wall-clock intervals by definition; they are benchmark output, never a trial input

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// The span recorder behind the traced run. Spans are recorded around the
// benchmark's own calls into each layer's public functions; nothing inside
// the program is instrumented. Per-measurement calls (Session.Push, the
// wire codec in a layer pass) are summed into counters on their session
// span instead of one span per call, so tracing a 20k-measurement session
// costs one span.

// span is one recorded interval. Times are milliseconds since the
// recorder was created.
type span struct {
	ID       int                `json:"id"`
	Parent   int                `json:"parent"` // 0 for a root span
	Name     string             `json:"name"`
	Unit     int                `json:"unit"` // session or trial index; -1 when the span has none
	StartMS  float64            `json:"start_ms"`
	EndMS    float64            `json:"end_ms"`
	Counters map[string]float64 `json:"counters,omitempty"`
}

// recorder keeps every span in memory until the run ends. A nil
// recorder records nothing and reads no clock, which is the untraced run.
type recorder struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

// spanRef is an open span; the zero value (from a nil recorder) is inert.
type spanRef struct {
	r  *recorder
	id int
}

// begin opens a span named name under parent (zero spanRef for a root).
func (r *recorder) begin(name string, parent spanRef, unit int) spanRef {
	if r == nil {
		return spanRef{}
	}
	now := r.ms(time.Now())
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent.id, Name: name, Unit: unit, StartMS: now,
	})
	return spanRef{r: r, id: len(r.spans)}
}

// interval records a span whose start and end the caller already timed
// (a call timed for a metric anyway is not timed twice).
func (r *recorder) interval(name string, parent spanRef, unit int, start, end time.Time, counters map[string]float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent.id, Name: name, Unit: unit,
		StartMS: r.ms(start), EndMS: r.ms(end), Counters: counters,
	})
}

func (r *recorder) ms(t time.Time) float64 { return float64(t.Sub(r.base).Nanoseconds()) / 1e6 }

// end closes the span, attaching counters (may be nil).
func (s spanRef) end(counters map[string]float64) {
	if s.r == nil {
		return
	}
	now := s.r.ms(time.Now())
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	sp := &s.r.spans[s.id-1]
	sp.EndMS = now
	sp.Counters = counters
}

// on reports whether the span records anything; callers skip counter
// bookkeeping for inert spans.
func (s spanRef) on() bool { return s.r != nil }

// spanSummary aggregates every span of one name.
type spanSummary struct {
	Name     string             `json:"name"`
	Count    int                `json:"count"`
	TotalMS  float64            `json:"total_ms"`
	SelfMS   float64            `json:"self_ms"`
	Counters map[string]float64 `json:"counters,omitempty"`
}

// meanMS is the mean span duration.
func (s spanSummary) meanMS() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.TotalMS / float64(s.Count)
}

// summarize aggregates spans by name, in name order, with self time
// computed against each span's direct children.
func (r *recorder) summarize() []spanSummary {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int][][2]float64)
	for _, sp := range r.spans {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], [2]float64{sp.StartMS, sp.EndMS})
		}
	}
	byName := make(map[string]*spanSummary)
	var names []string
	for _, sp := range r.spans {
		s := byName[sp.Name]
		if s == nil {
			s = &spanSummary{Name: sp.Name}
			byName[sp.Name] = s
			names = append(names, sp.Name)
		}
		s.Count++
		s.TotalMS += sp.EndMS - sp.StartMS
		s.SelfMS += selfTime(sp.StartMS, sp.EndMS, children[sp.ID])
		for k, v := range sp.Counters {
			if s.Counters == nil {
				s.Counters = make(map[string]float64)
			}
			s.Counters[k] += v
		}
	}
	sort.Strings(names)
	out := make([]spanSummary, len(names))
	for i, n := range names {
		out[i] = *byName[n]
	}
	return out
}

// find returns the summary of one span name (zero summary if absent).
func find(sums []spanSummary, name string) spanSummary {
	for _, s := range sums {
		if s.Name == name {
			return s
		}
	}
	return spanSummary{Name: name}
}

// selfTime is a span's duration minus the part of [start, end] that its
// children cover. Children may overlap each other (concurrent work under
// one parent) and may stick out of the parent; each instant is counted
// once and only inside the parent.
func selfTime(start, end float64, children [][2]float64) float64 {
	if end <= start {
		return 0
	}
	iv := make([][2]float64, 0, len(children))
	for _, c := range children {
		lo, hi := c[0], c[1]
		if lo < start {
			lo = start
		}
		if hi > end {
			hi = end
		}
		if hi > lo {
			iv = append(iv, [2]float64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	covered := 0.0
	curLo, curHi := 0.0, 0.0
	open := false
	for _, c := range iv {
		if open && c[0] <= curHi {
			if c[1] > curHi {
				curHi = c[1]
			}
			continue
		}
		if open {
			covered += curHi - curLo
		}
		curLo, curHi, open = c[0], c[1], true
	}
	if open {
		covered += curHi - curLo
	}
	return end - start - covered
}

// writeSpans writes every span and the per-name summary as one JSON
// document.
func (r *recorder) writeSpans(path, workload string, seed int64) error {
	sums := r.summarize()
	r.mu.Lock()
	doc := struct {
		Workload string        `json:"workload"`
		Seed     int64         `json:"seed"`
		Summary  []spanSummary `json:"summary"`
		Spans    []span        `json:"spans"`
	}{workload, seed, sums, r.spans}
	buf, err := json.MarshalIndent(doc, "", " ")
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
