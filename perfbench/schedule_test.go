package main

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"time"
)

func TestSchedulesAreDeterministicPerSeed(t *testing.T) {
	gen := func(seed uint64) (any, any, any, any) {
		due := arrivals(newRNG(seed, streamArrivals), 500, 2*time.Second)
		return due, warmKeys(newRNG(seed, streamKeys), len(due)),
			coldKeys(newRNG(seed, streamKeys), seed, 200),
			feedbackOps(newRNG(seed, streamKeys), []float64{1, 2, 3}, 200)
	}
	a1, b1, c1, d1 := gen(7)
	a2, b2, c2, d2 := gen(7)
	if !reflect.DeepEqual(a1, a2) || !reflect.DeepEqual(b1, b2) || !reflect.DeepEqual(c1, c2) || !reflect.DeepEqual(d1, d2) {
		t.Fatal("equal seeds gave different inputs")
	}
	a3, b3, c3, d3 := gen(8)
	if reflect.DeepEqual(a1, a3) || reflect.DeepEqual(b1, b3) || reflect.DeepEqual(c1, c3) || reflect.DeepEqual(d1, d3) {
		t.Fatal("a different seed repeated an input family")
	}
}

func TestArrivalsRateAndOrder(t *testing.T) {
	due := arrivals(newRNG(1, streamArrivals), 500, 20*time.Second)
	if n := float64(len(due)); math.Abs(n-10000) > 400 {
		t.Errorf("%v arrivals in 20s at 500/s", n)
	}
	for i := 1; i < len(due); i++ {
		if due[i] < due[i-1] || due[i] >= 20*time.Second {
			t.Fatalf("arrival %d at %v out of order or past the end", i, due[i])
		}
	}
}

func TestColdKeysAreDistinctAndWeighted(t *testing.T) {
	keys := coldKeys(newRNG(3, streamKeys), 3, 4000)
	seen := make(map[string]bool)
	slow := 0
	for _, k := range keys {
		if seen[string(k.body())] {
			t.Fatalf("cold query %s repeats", k)
		}
		seen[string(k.body())] = true
		if k.SampleSeed <= 1 {
			t.Fatalf("cold query %s shares the probes' sample seed", k)
		}
		if k.Algorithm == "SC" || k.Algorithm == "TOPK" {
			slow++
		}
	}
	// PR/CC/NH weigh 3:1 over SC/TOPK: 2/11 of the queries are slow.
	if share := float64(slow) / float64(len(keys)); math.Abs(share-2.0/11) > 0.03 {
		t.Errorf("slow share %.3f, want about %.3f", share, 2.0/11)
	}
}

func TestWarmKeysRepeatAndSplitScales(t *testing.T) {
	keys := warmKeys(newRNG(5, streamKeys), 5000)
	counts := make(map[string]int)
	large := 0
	for _, k := range keys {
		counts[k.String()]++
		if k.Scale == 1 {
			large++
		}
	}
	top := 0
	for _, c := range counts {
		top = max(top, c)
	}
	if top < 500 {
		t.Errorf("hottest key seen %d times in 5000: popularity is not skewed", top)
	}
	if share := float64(large) / float64(len(keys)); math.Abs(share-0.5) > 0.03 {
		t.Errorf("large-scale share %.3f, want about 0.5", share)
	}
}

func TestRequestBodies(t *testing.T) {
	k := predictKey{Dataset: "Wiki", Scale: 0.25, Algorithm: "PR", Workers: 16, SampleSeed: 9}
	want := `{"dataset":"Wiki","scale":0.25,"algorithm":"PR","workers":16,"sample_seed":9}`
	if got := string(k.body()); got != want {
		t.Errorf("body = %s, want %s", got, want)
	}
	if got := string(observeBody("a|b", 1.5)); got != `{"model_key":"a|b","actual_seconds":1.5}` {
		t.Errorf("observe body = %s", got)
	}
}

func TestStripElapsed(t *testing.T) {
	for in, want := range map[string]string{
		`{"a":1,"elapsed_ms":0.123}`:          `{"a":1}`,
		`{"elapsed_ms":12,"a":1}`:             `{"a":1}`,
		`{"a":1,"elapsed_ms":3e-05,"b":true}`: `{"a":1,"b":true}`,
		`{"a":1}`:                             `{"a":1}`,
	} {
		if got := stripElapsed([]byte(in)); !bytes.Equal(got, []byte(want)) {
			t.Errorf("stripElapsed(%s) = %s, want %s", in, got, want)
		}
	}
}
