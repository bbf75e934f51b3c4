package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"
	"time"
)

// Streams separate the random draws of one workload seed, so adding a draw
// to one input family never shifts another.
const (
	streamArrivals uint64 = iota + 1
	streamKeys
	streamProbe
	streamNoise
	streamHeldOut
	streamPrefill
)

func newRNG(seed, stream uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, stream)) }

// predictKey is one /predict query.
type predictKey struct {
	Dataset    string
	Scale      float64
	Algorithm  string
	Workers    int
	SampleSeed uint64 // 0 keeps the service default
}

// body renders the /predict request body.
func (k predictKey) body() []byte {
	b := []byte(`{"dataset":"` + k.Dataset + `","scale":`)
	b = strconv.AppendFloat(b, k.Scale, 'g', -1, 64)
	b = append(b, `,"algorithm":"`+k.Algorithm+`"`...)
	if k.Workers != 0 {
		b = append(b, `,"workers":`...)
		b = strconv.AppendInt(b, int64(k.Workers), 10)
	}
	if k.SampleSeed != 0 {
		b = append(b, `,"sample_seed":`...)
		b = strconv.AppendUint(b, k.SampleSeed, 10)
	}
	return append(b, '}')
}

func (k predictKey) String() string {
	return fmt.Sprintf("%s/%s@%g w=%d ss=%d", k.Algorithm, k.Dataset, k.Scale, k.Workers, k.SampleSeed)
}

// arrivals returns the due times of an open loop: Poisson arrivals at
// rate per second over dur.
func arrivals(r *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	for t := r.ExpFloat64() / rate; t < dur.Seconds(); t += r.ExpFloat64() / rate {
		out = append(out, time.Duration(t*float64(time.Second)))
	}
	return out
}

// whatIfWorkers are the what-if cluster sizes warm queries draw from (0 is
// the sample cluster's own size).
var whatIfWorkers = []int{0, 2, 4, 8, 16, 32, 64}

// warmScales are the two Wiki scales of the warm workload: small, and large
// enough that a warm path growing in |V| shows.
var warmScales = []float64{0.08, 1.0}

var warmAlgorithms = []string{"PR", "CC", "NH"}

// warmKeys draws n warm queries. Popularity is Zipf over (algorithm,
// workers) pairs in a seeded order, so hot keys repeat; the scale is a
// fair coin per query, so every seed sends the same expected share of
// large-graph queries.
func warmKeys(r *rand.Rand, n int) []predictKey {
	type pair struct {
		alg     string
		workers int
	}
	var pairs []pair
	for _, a := range warmAlgorithms {
		for _, w := range whatIfWorkers {
			pairs = append(pairs, pair{a, w})
		}
	}
	r.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	z := rand.NewZipf(r, 1.1, 1, uint64(len(pairs)-1))
	out := make([]predictKey, n)
	for i := range out {
		p := pairs[z.Uint64()]
		out[i] = predictKey{Dataset: "Wiki", Scale: warmScales[r.IntN(len(warmScales))], Algorithm: p.alg, Workers: p.workers}
	}
	return out
}

// coldScale is the graph scale of the cold workload.
const coldScale = 0.25

var coldDatasets = []string{"Wiki", "LJ"}

// coldWeights weights the algorithms of cold fits: the fast-fitting
// PR/CC/NH 3:1 over the slow SC/TOPK, so the fit-latency p50 falls inside
// the fast mode and the p95 inside the slow one.
var coldWeights = []struct {
	alg    string
	weight int
}{{"PR", 3}, {"CC", 3}, {"NH", 3}, {"SC", 1}, {"TOPK", 1}}

// coldBlock is one block of the cold mix: each (algorithm, dataset) pair
// as often as its weight, 22 queries in all.
func coldBlock() []predictKey {
	var block []predictKey
	for _, d := range coldDatasets {
		for _, w := range coldWeights {
			for i := 0; i < w.weight; i++ {
				block = append(block, predictKey{Dataset: d, Scale: coldScale, Algorithm: w.alg})
			}
		}
	}
	return block
}

// coldKeys draws n cold queries; each has a sample seed no other query of
// the run uses, so every one misses the model cache. The mix is stratified:
// every consecutive block of len(coldBlock()) queries is a seeded shuffle
// of coldBlock(), so the share of slow fits — which sets the run's CPU and
// latency — does not vary with the seed.
func coldKeys(r *rand.Rand, seed uint64, n int) []predictKey {
	block := coldBlock()
	base := (seed%1_000_003)*1_000_000 + 2 // the probes use the default sample seed 1
	out := make([]predictKey, 0, n+len(block))
	for len(out) < n {
		r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		out = append(out, block...)
	}
	out = out[:n]
	for i := range out {
		out[i].SampleSeed = base + uint64(i)
	}
	return out
}

// probeKeys are the pre-fitted keys the cold workload's warm probe queries.
func probeKeys() []predictKey {
	var out []predictKey
	for _, d := range coldDatasets {
		for _, a := range warmAlgorithms {
			out = append(out, predictKey{Dataset: d, Scale: coldScale, Algorithm: a})
		}
	}
	return out
}

// feedbackScale is the graph scale of the feedback workload.
const feedbackScale = 0.25

// feedbackKeys are the feedback workload's model keys.
func feedbackKeys() []predictKey {
	out := make([]predictKey, len(warmAlgorithms))
	for i, a := range warmAlgorithms {
		out[i] = predictKey{Dataset: "Wiki", Scale: feedbackScale, Algorithm: a}
	}
	return out
}

// noiseSigma is the log-scale spread of observed runtimes around a key's
// hidden target: about 5% per run.
const noiseSigma = 0.05

// noisy draws one observed runtime around target.
func noisy(r *rand.Rand, target float64) float64 {
	return target * math.Exp(noiseSigma*r.NormFloat64())
}

// feedbackOp is one operation of the feedback mix.
type feedbackOp struct {
	observe bool
	key     int
	actual  float64 // observed runtime, for observes
}

// feedbackOps draws n operations: observes and predicts 1:3 over the keys,
// observed runtimes noisy around each key's target. Like the cold mix it
// is stratified: every block holds one observe and three predictions per
// key, in a seeded order.
func feedbackOps(r *rand.Rand, targets []float64, n int) []feedbackOp {
	var block []feedbackOp
	for k := range targets {
		block = append(block, feedbackOp{observe: true, key: k},
			feedbackOp{key: k}, feedbackOp{key: k}, feedbackOp{key: k})
	}
	out := make([]feedbackOp, 0, n+len(block))
	for len(out) < n {
		r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		out = append(out, block...)
	}
	out = out[:n]
	for i := range out {
		if out[i].observe {
			out[i].actual = noisy(r, targets[out[i].key])
		}
	}
	return out
}
