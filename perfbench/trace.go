package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded from the benchmark's side
// of the layer boundary.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Req    int    `json:"req"`    // request the span belongs to
	Name   string `json:"name"`
	// Start and End are offsets from the tracer's epoch.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
}

// Dur is the span's duration.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Tracer keeps spans in memory until the traced run ends. It is safe for
// concurrent use (fit pipelines record spans from pool goroutines).
type Tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

// NewTracer returns an empty tracer whose clock starts now.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Begin opens a span and returns its ID, so spans nested inside it can
// name it as their parent before it ends.
func (t *Tracer) Begin(parent, req int, name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Req: req, Name: name, Start: time.Since(t.epoch)})
	return id
}

// End closes the span Begin opened.
func (t *Tracer) End(id int) {
	end := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = end
}

// Rename renames a span, for a call whose kind is known only once it
// returns (a prediction that turned out to be a cache hit).
func (t *Tracer) Rename(id int, name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].Name = name
}

// Time runs fn inside a span and returns the span's ID.
func (t *Tracer) Time(parent, req int, name string, fn func()) int {
	id := t.Begin(parent, req, name)
	fn()
	t.End(id)
	return id
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteFile writes the spans as JSON lines.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// covered returns the total length of the union of the spans' intervals:
// overlapping children (a fan-out on a pool) count once.
func covered(spans []Span) time.Duration {
	if len(spans) == 0 {
		return 0
	}
	s := append([]Span(nil), spans...)
	sort.Slice(s, func(i, j int) bool { return s[i].Start < s[j].Start })
	var total time.Duration
	start, end := s[0].Start, s[0].End
	for _, x := range s[1:] {
		if x.Start > end {
			total += end - start
			start, end = x.Start, x.End
			continue
		}
		if x.End > end {
			end = x.End
		}
	}
	return total + end - start
}

// SelfTimes returns each span's self time: its duration minus the length
// of the union of its children's intervals. Children either run inside the
// parent (a fan-out inside a stage) or replay the parent's stages right
// after it (the stages of a root call into the service, re-run one by one
// through the layers' public functions); either way the union is the part
// of the parent's duration the children explain, and the self time of a
// root is its unexplained remainder. It can be negative when a replayed
// stage ran slower than it did inside the parent.
func SelfTimes(spans []Span) map[int]time.Duration {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.Dur() - covered(children[s.ID])
	}
	return self
}

// spanSummary aggregates the spans of one name.
type spanSummary struct {
	n    int
	dur  []float64 // seconds
	self []float64 // seconds
}

// Summarize groups spans by name with their durations and self times.
func Summarize(spans []Span) map[string]*spanSummary {
	self := SelfTimes(spans)
	out := make(map[string]*spanSummary)
	for _, s := range spans {
		a := out[s.Name]
		if a == nil {
			a = &spanSummary{}
			out[s.Name] = a
		}
		a.n++
		a.dur = append(a.dur, s.Dur().Seconds())
		a.self = append(a.self, self[s.ID].Seconds())
	}
	return out
}
