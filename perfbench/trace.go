package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// tracer records spans around calls into the program's public functions.
// Spans are kept in memory and written out once the run ends; a nil tracer
// records nothing, so the untraced paths pay no more than a nil check.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

// span is one timed call: its layer name, the op (design or job) it
// belongs to, and the span that caused it (-1 for a root).
type span struct {
	Name   string        `json:"name"`
	Op     string        `json:"op,omitempty"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name, op string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere (the job
// manager's own timestamps in the serving workload).
func (t *tracer) add(name, op string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
}

// call times fn as one span.
func (t *tracer) call(name, op string, parent int, fn func()) {
	id := t.begin(name, op, parent)
	fn()
	t.end(id)
}

// reduction is the per-layer view of a finished trace.
type reduction struct {
	// self is each layer's summed self time: span duration minus the part
	// of its interval covered by its child spans.
	self map[string]time.Duration
	// total is each layer's summed span duration.
	total map[string]time.Duration
	// durations lists every span duration per layer, for percentiles.
	durations map[string][]time.Duration
	// covered is the share of the root span's interval covered by its
	// children: the rest of the timed phase ran outside any traced call.
	covered float64
	rootDur time.Duration
}

// reduce computes self times over the root span and its descendants (the
// timed phase; set-up spans are left out). The root's children should
// cover the phase.
func (t *tracer) reduce(root int) reduction {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := reduction{
		self:      map[string]time.Duration{},
		total:     map[string]time.Duration{},
		durations: map[string][]time.Duration{},
	}
	// A parent is always recorded before its children.
	inRoot := make([]bool, len(t.spans))
	children := make(map[int][][2]time.Duration)
	for i, s := range t.spans {
		inRoot[i] = i == root || (s.Parent >= 0 && inRoot[s.Parent])
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	for i, s := range t.spans {
		if !inRoot[i] || s.End < 0 {
			continue
		}
		d := s.End - s.Start
		cov := unionWithin(children[i], s.Start, s.End)
		r.self[s.Name] += d - cov
		r.total[s.Name] += d
		r.durations[s.Name] = append(r.durations[s.Name], d)
		if i == root && d > 0 {
			r.covered = float64(cov) / float64(d)
			r.rootDur = d
		}
	}
	return r
}

// unionWithin returns the length of the union of the intervals, clipped
// to [lo, hi].
func unionWithin(iv [][2]time.Duration, lo, hi time.Duration) time.Duration {
	if len(iv) == 0 {
		return 0
	}
	iv = append([][2]time.Duration(nil), iv...)
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var sum time.Duration
	curLo, curHi := time.Duration(-1), time.Duration(-1)
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if b <= a {
			continue
		}
		if curHi < 0 || a > curHi {
			if curHi > curLo {
				sum += curHi - curLo
			}
			curLo, curHi = a, b
			continue
		}
		curHi = max(curHi, b)
	}
	if curHi > curLo {
		sum += curHi - curLo
	}
	return sum
}

// write saves every span as JSON to path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
