package main

import (
	"testing"
	"time"
)

func span(id, parent int, start, end time.Duration) Span {
	return Span{ID: id, Parent: parent, Start: start, End: end}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		// Root with two sequential children inside it and a gap.
		span(1, 0, 0, 10*ms),
		span(2, 1, 1*ms, 3*ms),
		span(3, 1, 5*ms, 9*ms),
		// A fan-out: overlapping children count once.
		span(4, 0, 20*ms, 30*ms),
		span(5, 4, 20*ms, 28*ms),
		span(6, 4, 21*ms, 29*ms),
		// A root whose stages are replayed after it: the remainder.
		span(7, 0, 40*ms, 50*ms),
		span(8, 7, 50*ms, 56*ms),
		span(9, 7, 56*ms, 59*ms),
		// A grandchild belongs to its own parent only.
		span(10, 8, 50*ms, 55*ms),
		// A root its stages more than explain: a negative remainder.
		span(11, 0, 60*ms, 62*ms),
		span(12, 11, 62*ms, 65*ms),
	}
	want := map[int]time.Duration{
		1: 4 * ms, 2: 2 * ms, 3: 4 * ms,
		4: 1 * ms, 5: 8 * ms, 6: 8 * ms,
		7: 1 * ms, 8: 1 * ms, 9: 3 * ms, 10: 5 * ms,
		11: -1 * ms, 12: 3 * ms,
	}
	got := SelfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self(%d) = %v, want %v", id, got[id], w)
		}
	}
}

func TestTracerNestsAndSummarizes(t *testing.T) {
	tr := NewTracer()
	root := tr.Begin(0, 1, "root")
	tr.Time(root, 1, "child", func() { time.Sleep(2 * time.Millisecond) })
	tr.End(root)
	tr.Rename(root, "renamed")
	spans := tr.Spans()
	if len(spans) != 2 || spans[0].Name != "renamed" || spans[1].Parent != root || spans[1].Req != 1 {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[1].Start < spans[0].Start || spans[1].End > spans[0].End {
		t.Errorf("child %+v not inside root %+v", spans[1], spans[0])
	}
	sum := Summarize(spans)
	if sum["renamed"].n != 1 || sum["child"].n != 1 {
		t.Fatalf("summary = %+v", sum)
	}
	if s := sum["renamed"].self[0]; s < 0 || s > sum["renamed"].dur[0] {
		t.Errorf("root self time %v outside [0, %v]", s, sum["renamed"].dur[0])
	}
}
