package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"
)

// postRaw posts v and returns the full response (status, headers, body)
// without decoding, for tests that assert on shed headers.
func postRaw(t *testing.T, url string, v any) (*http.Response, map[string]json.RawMessage) {
	t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, out
}

// TestWriteServiceErrorStatusMapping pins the error-to-HTTP contract:
// every service error code maps to its status, shed errors carry their
// Retry-After hint, deadline expiry maps to 504, and anything untyped
// is a 500. Wrapped errors unwrap.
func TestWriteServiceErrorStatusMapping(t *testing.T) {
	cases := []struct {
		name       string
		err        error
		wantStatus int
		wantRetry  string // Retry-After header; empty = must be absent
		wantMsg    string
	}{
		{
			name:       "bad request",
			err:        &Error{Status: http.StatusBadRequest, Msg: "service: missing dataset"},
			wantStatus: http.StatusBadRequest,
			wantMsg:    "service: missing dataset",
		},
		{
			name:       "not found",
			err:        &Error{Status: http.StatusNotFound, Msg: "service: no such dataset"},
			wantStatus: http.StatusNotFound,
			wantMsg:    "service: no such dataset",
		},
		{
			name:       "shed 429 carries Retry-After",
			err:        &Error{Status: http.StatusTooManyRequests, RetryAfterSeconds: 2, Msg: "service: too many in flight"},
			wantStatus: http.StatusTooManyRequests,
			wantRetry:  "2",
			wantMsg:    "service: too many in flight",
		},
		{
			name:       "shed 503 carries Retry-After",
			err:        &Error{Status: http.StatusServiceUnavailable, RetryAfterSeconds: 1, Msg: "service: fit queue full"},
			wantStatus: http.StatusServiceUnavailable,
			wantRetry:  "1",
			wantMsg:    "service: fit queue full",
		},
		{
			name:       "timeout 504",
			err:        &Error{Status: http.StatusGatewayTimeout, Msg: "service: request timed out"},
			wantStatus: http.StatusGatewayTimeout,
			wantMsg:    "service: request timed out",
		},
		{
			name:       "wrapped service error unwraps",
			err:        fmt.Errorf("outer: %w", &Error{Status: http.StatusNotFound, Msg: "inner"}),
			wantStatus: http.StatusNotFound,
			wantMsg:    "inner",
		},
		{
			name:       "context.DeadlineExceeded maps to 504",
			err:        context.DeadlineExceeded,
			wantStatus: http.StatusGatewayTimeout,
			wantMsg:    context.DeadlineExceeded.Error(),
		},
		{
			name:       "wrapped deadline maps to 504",
			err:        fmt.Errorf("fit: %w", context.DeadlineExceeded),
			wantStatus: http.StatusGatewayTimeout,
			wantMsg:    "fit: " + context.DeadlineExceeded.Error(),
		},
		{
			name:       "untyped error is a 500",
			err:        errors.New("boom"),
			wantStatus: http.StatusInternalServerError,
			wantMsg:    "boom",
		},
		{
			// The /observe contract: an unknown model key is a typed 404,
			// never a silently created orphan history record.
			name:       "observe unknown model key is a 404",
			err:        observeUnknownKeyError(t),
			wantStatus: http.StatusNotFound,
			wantMsg:    `service: unknown model key "no-such-key": observations attach to fitted models (predict first)`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			c := codecPool.Get().(*codec)
			c.writeServiceError(rec, tc.err)
			codecPool.Put(c)
			if rec.Code != tc.wantStatus {
				t.Fatalf("status = %d, want %d", rec.Code, tc.wantStatus)
			}
			if got := rec.Header().Get("Retry-After"); got != tc.wantRetry {
				t.Fatalf("Retry-After = %q, want %q", got, tc.wantRetry)
			}
			var body map[string]string
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
				t.Fatalf("body %q is not JSON: %v", rec.Body.Bytes(), err)
			}
			if body["error"] != tc.wantMsg {
				t.Fatalf("error = %q, want %q", body["error"], tc.wantMsg)
			}
		})
	}
}

// TestAdmissionStressColdAndWarm hammers one service from many
// goroutines — a herd on a single cold key, a saturating stream of
// distinct cold keys, and steady warm traffic — and asserts the
// admission invariants: the herd shares exactly one fit, warm hits are
// never shed, every shed is a 503 carrying Retry-After, and warm
// latency stays bounded while the fit queue is saturated.
func TestAdmissionStressColdAndWarm(t *testing.T) {
	svc, server := newTestServer(t, Config{
		FitParallelism: 1,
		FitQueueDepth:  1,
	})

	// Warm two keys and measure uncontended warm latency.
	warmKeys := []PredictRequest{testRequest(), testRequest()}
	warmKeys[1].Algorithm = "CC"
	for _, r := range warmKeys {
		if status, raw := postJSON(t, server.URL+"/predict", r); status != http.StatusOK {
			t.Fatalf("warming: HTTP %d (%v)", status, raw)
		}
	}
	warmupFits := svc.Stats().Fits

	var uncontended []time.Duration
	for i := 0; i < 20; i++ {
		start := time.Now()
		if status, _ := postJSON(t, server.URL+"/predict", warmKeys[i%2]); status != http.StatusOK {
			t.Fatalf("uncontended warm: HTTP %d", status)
		}
		uncontended = append(uncontended, time.Since(start))
	}

	// Herd: one cold key, many concurrent requests, exactly one fit.
	herd := testRequest()
	herd.SampleSeed = 77
	const herdSize = 8
	var wg sync.WaitGroup
	errs := make(chan error, herdSize)
	for i := 0; i < herdSize; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, raw := postRaw(t, server.URL+"/predict", herd)
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("herd request: HTTP %d (%v)", resp.StatusCode, raw)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if fits := svc.Stats().Fits; fits != warmupFits+1 {
		t.Fatalf("herd on one cold key ran %d fits, want exactly 1", fits-warmupFits)
	}

	// Saturation: distinct cold keys flood the depth-1 fit queue while
	// warm traffic continues. Warm requests must all succeed; cold
	// requests either succeed or shed with 503 + Retry-After.
	const (
		coldClients   = 4
		coldPerClient = 6
		warmClients   = 2
		warmPerClient = 25
	)
	var mu sync.Mutex
	var warmLatencies []time.Duration
	shedSeen := 0
	for round := 0; shedSeen == 0 && round < 5; round++ {
		var stress sync.WaitGroup
		stressErrs := make(chan error, coldClients*coldPerClient+warmClients*warmPerClient)
		for c := 0; c < coldClients; c++ {
			stress.Add(1)
			go func(c int) {
				defer stress.Done()
				for i := 0; i < coldPerClient; i++ {
					r := testRequest()
					r.SampleSeed = uint64(1000 + round*1000 + c*100 + i)
					resp, _ := postRaw(t, server.URL+"/predict", r)
					switch resp.StatusCode {
					case http.StatusOK:
					case http.StatusServiceUnavailable:
						if resp.Header.Get("Retry-After") == "" {
							stressErrs <- fmt.Errorf("shed 503 without Retry-After")
							return
						}
						mu.Lock()
						shedSeen++
						mu.Unlock()
					default:
						stressErrs <- fmt.Errorf("cold request: HTTP %d", resp.StatusCode)
						return
					}
				}
			}(c)
		}
		for c := 0; c < warmClients; c++ {
			stress.Add(1)
			go func(c int) {
				defer stress.Done()
				for i := 0; i < warmPerClient; i++ {
					start := time.Now()
					resp, _ := postRaw(t, server.URL+"/predict", warmKeys[(c+i)%2])
					if resp.StatusCode != http.StatusOK {
						stressErrs <- fmt.Errorf("warm request shed or failed: HTTP %d", resp.StatusCode)
						return
					}
					mu.Lock()
					warmLatencies = append(warmLatencies, time.Since(start))
					mu.Unlock()
				}
			}(c)
		}
		stress.Wait()
		close(stressErrs)
		for err := range stressErrs {
			t.Fatal(err)
		}
	}
	if shedSeen == 0 {
		t.Log("no sheds observed (fits drained faster than arrivals); shed path covered by TestPredictShedsWhenFitQueueFull")
	}
	if got := svc.Stats().Shed; got != int64(shedSeen) {
		t.Fatalf("/stats shed = %d, client observed %d", got, shedSeen)
	}

	// Warm latency under saturation stays bounded. The bound is generous
	// (race detector, single-CPU CI runners): 10x the uncontended p99
	// with a 2s floor — this is a starvation check, not a perf gate.
	sort.Slice(uncontended, func(i, j int) bool { return uncontended[i] < uncontended[j] })
	sort.Slice(warmLatencies, func(i, j int) bool { return warmLatencies[i] < warmLatencies[j] })
	up99 := uncontended[len(uncontended)*99/100]
	p99 := warmLatencies[len(warmLatencies)*99/100]
	bound := 10 * up99
	if bound < 2*time.Second {
		bound = 2 * time.Second
	}
	if p99 > bound {
		t.Fatalf("warm p99 %v under saturated fit queue exceeds bound %v (uncontended p99 %v)", p99, bound, up99)
	}
}

// TestPredictShedsWhenFitQueueFull drives the fit-queue 503 path
// deterministically: with the single admission slot held, a cache miss
// must shed immediately with 503 + Retry-After, and a warm hit must
// still be served.
func TestPredictShedsWhenFitQueueFull(t *testing.T) {
	svc, server := newTestServer(t, Config{FitQueueDepth: 1, ShedRetryAfter: 3 * time.Second})

	warm := testRequest()
	if status, raw := postJSON(t, server.URL+"/predict", warm); status != http.StatusOK {
		t.Fatalf("warming: HTTP %d (%v)", status, raw)
	}

	if !svc.fitGate.tryAcquire() {
		t.Fatal("could not hold the only fit-queue slot")
	}
	defer svc.fitGate.release()

	cold := testRequest()
	cold.SampleSeed = 99
	resp, raw := postRaw(t, server.URL+"/predict", cold)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("cold miss with full fit queue: HTTP %d (%v), want 503", resp.StatusCode, raw)
	}
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Fatalf("Retry-After = %q, want %q", got, "3")
	}

	if status, _ := postJSON(t, server.URL+"/predict", warm); status != http.StatusOK {
		t.Fatalf("warm hit was shed (HTTP %d) while the fit queue was full", status)
	}
	if svc.Stats().Shed == 0 {
		t.Fatal("shed counter did not record the 503")
	}
}

// TestPredictShedsWhenInFlightFull drives the request-gate 429 path:
// with every in-flight slot held, the handler sheds before reading the
// body, with 429 + Retry-After.
func TestPredictShedsWhenInFlightFull(t *testing.T) {
	svc, server := newTestServer(t, Config{MaxInFlight: 1, ShedRetryAfter: 2 * time.Second})

	if !svc.reqGate.tryAcquire() {
		t.Fatal("could not hold the only in-flight slot")
	}
	defer svc.reqGate.release()

	resp, raw := postRaw(t, server.URL+"/predict", testRequest())
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("request with in-flight gate full: HTTP %d (%v), want 429", resp.StatusCode, raw)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Fatalf("Retry-After = %q, want %q", got, "2")
	}
	if svc.Stats().Shed != 1 {
		t.Fatalf("shed counter = %d, want 1", svc.Stats().Shed)
	}
}

// TestClientCancelMidFitDoesNotPoison cancels a request mid-fit (tiny
// timeout on a cold key) and asserts the single-flight machinery is not
// poisoned: the request gets a 504, the detached fit completes and warms
// the cache, and the next request for the same key succeeds without a
// second fit.
func TestClientCancelMidFitDoesNotPoison(t *testing.T) {
	svc, server := newTestServer(t, Config{})

	cold := testRequest()
	cold.SampleSeed = 55
	cold.TimeoutMillis = 1
	status, raw := postJSON(t, server.URL+"/predict", cold)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("cold predict with 1ms budget: HTTP %d (%v), want 504", status, raw)
	}

	// The abandoned fit keeps running detached; the retry must succeed —
	// joining the in-flight fill or hitting the warmed cache — without
	// starting a second fit for the key.
	cold.TimeoutMillis = 0
	status, raw = postJSON(t, server.URL+"/predict", cold)
	if status != http.StatusOK {
		t.Fatalf("retry after canceled fit: HTTP %d (%v)", status, raw)
	}
	if pr := decodePrediction(t, raw); pr.SuperstepSeconds <= 0 {
		t.Fatalf("retry returned an empty prediction: %+v", pr)
	}
	if fits := svc.Stats().Fits; fits != 1 {
		t.Fatalf("canceled fit poisoned single-flight: %d fits for one key, want 1", fits)
	}
}

// TestStatsUnderConcurrentLoad scrapes /stats continuously while mixed
// cold/warm traffic runs, asserting every snapshot is internally
// consistent (ratios in range, queue depth within its cap) and the
// counters are monotonic across snapshots; the final totals must agree
// with the traffic actually sent.
func TestStatsUnderConcurrentLoad(t *testing.T) {
	// A history path plus an aggressive growth factor keeps the
	// checkpointing counters moving under the same load, so their
	// monotonicity is asserted under real concurrency, not at rest.
	svc, server := newTestServer(t, Config{
		FitQueueDepth:          2,
		HistoryPath:            filepath.Join(t.TempDir(), "models.jsonl"),
		CheckpointGrowthFactor: 2,
	})

	warm := testRequest()
	if status, raw := postJSON(t, server.URL+"/predict", warm); status != http.StatusOK {
		t.Fatalf("warming: HTTP %d (%v)", status, raw)
	}

	stop := make(chan struct{})
	scrapeErr := make(chan error, 1)
	go func() {
		defer close(scrapeErr)
		var prev Stats
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(server.URL + "/stats")
			if err != nil {
				scrapeErr <- err
				return
			}
			var payload struct {
				Stats Stats `json:"stats"`
			}
			err = json.NewDecoder(resp.Body).Decode(&payload)
			resp.Body.Close()
			if err != nil {
				scrapeErr <- fmt.Errorf("decoding /stats: %w", err)
				return
			}
			st := payload.Stats
			if st.HitRatio < 0 || st.HitRatio > 1 {
				scrapeErr <- fmt.Errorf("hit ratio %v out of [0, 1]", st.HitRatio)
				return
			}
			if st.FitQueueDepth < 0 || st.FitQueueDepth > int64(st.FitQueueCap) {
				scrapeErr <- fmt.Errorf("fit queue depth %d out of [0, %d]", st.FitQueueDepth, st.FitQueueCap)
				return
			}
			if st.Hits < prev.Hits || st.Misses < prev.Misses || st.Fits < prev.Fits ||
				st.Shed < prev.Shed || st.Requests < prev.Requests || st.Coalesced < prev.Coalesced {
				scrapeErr <- fmt.Errorf("counters went backwards: %+v then %+v", prev, st)
				return
			}
			if st.UptimeSeconds < prev.UptimeSeconds {
				scrapeErr <- fmt.Errorf("uptime went backwards: %v then %v", prev.UptimeSeconds, st.UptimeSeconds)
				return
			}
			if st.CheckpointsWritten < prev.CheckpointsWritten || st.Compactions < prev.Compactions ||
				st.CheckpointFailures < prev.CheckpointFailures {
				scrapeErr <- fmt.Errorf("checkpoint counters went backwards: %+v then %+v", prev, st)
				return
			}
			if st.Draining {
				scrapeErr <- fmt.Errorf("service reported draining with no drain begun")
				return
			}
			prev = st
		}
	}()

	const (
		clients   = 4
		perClient = 10
	)
	var wg sync.WaitGroup
	reqErrs := make(chan error, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				r := warm
				if i%3 == 0 { // a third of the traffic is cold
					r.SampleSeed = uint64(10000 + c*100 + i)
				}
				resp, _ := postRaw(t, server.URL+"/predict", r)
				switch resp.StatusCode {
				case http.StatusOK, http.StatusServiceUnavailable:
				default:
					reqErrs <- fmt.Errorf("client %d request %d: HTTP %d", c, i, resp.StatusCode)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(reqErrs)
	for err := range reqErrs {
		t.Fatal(err)
	}
	close(stop)
	if err := <-scrapeErr; err != nil {
		t.Fatal(err)
	}

	st := svc.Stats()
	if want := int64(clients*perClient + 1); st.Requests != want {
		t.Fatalf("requests = %d, want %d", st.Requests, want)
	}
	// Every request reached the model cache exactly once, as a hit, the
	// miss that started a fill, or a waiter that joined one. The graph was
	// cached by the warming request, so no request joined a graph fill
	// and coalesced counts model-fill waiters only.
	if got := st.Hits + st.Misses + st.Coalesced; got != st.Requests {
		t.Fatalf("hits %d + misses %d + coalesced %d = %d model-cache lookups, want one per request (%d)",
			st.Hits, st.Misses, st.Coalesced, got, st.Requests)
	}
	if st.FitQueueCap != 2 {
		t.Fatalf("fit queue cap = %d, want 2", st.FitQueueCap)
	}
	if st.FitQueueDepth != 0 {
		t.Fatalf("fit queue depth = %d after traffic drained, want 0", st.FitQueueDepth)
	}
	// Every completed fit checkpointed (the shed ones never fit at all),
	// and the aggressive growth factor forced at least one compaction.
	if st.CheckpointsWritten != st.Fits {
		t.Fatalf("checkpoints_written = %d with %d fits completed", st.CheckpointsWritten, st.Fits)
	}
	if st.CheckpointFailures != 0 {
		t.Fatalf("checkpoint_failures = %d on a writable volume", st.CheckpointFailures)
	}
	if st.Fits > 2 && st.Compactions < 1 {
		t.Fatalf("compactions = %d after %d checkpoints under growth factor 2", st.Compactions, st.Fits)
	}
}
