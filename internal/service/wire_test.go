package service

import (
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"predict/internal/faultinject"
)

// TestWireContract pins the exact bytes predictd answers on its error and
// admission paths, route by route: status, Content-Type, Content-Length,
// Retry-After, Connection and the body. Refactors of the HTTP layer must
// leave every case byte-identical.
func TestWireContract(t *testing.T) {
	// The only fault: the test's first fit fails, which trips the breaker
	// service's threshold-1 breaker.
	defer faultinject.Enable(faultinject.NewInjector(1, faultinject.Rule{
		Point: faultinject.PointServiceFit,
		Count: 1,
		Err:   errors.New("injected fit failure"),
	}))()

	dir := t.TempDir()
	plain, plainServer := newTestServer(t, Config{MaxInFlight: 1, MaxBatch: 2, DatasetDir: dir})
	draining, drainingServer := newTestServer(t, Config{})
	draining.BeginDrain()
	_, breakerServer := newTestServer(t, Config{FitBreakerThreshold: 1, FitBreakerCooldown: time.Minute})
	servers := map[string]string{
		"plain":    plainServer.URL,
		"draining": drainingServer.URL,
		"breaker":  breakerServer.URL,
	}

	const (
		postOnly  = `{"error":"POST only"}` + "\n"
		getOnly   = `{"error":"GET only"}` + "\n"
		drainBody = `{"error":"service: draining: shutting down, retry against another replica"}` + "\n"
		shedBody  = `{"error":"service: 1 requests already in flight; retry later"}` + "\n"
		predict   = `{"dataset":"Wiki","scale":0.02,"algorithm":"PR","epsilon":0.01,"ratio":0.15,"training_ratios":[0.1,0.2]}`
	)
	cases := []struct {
		name         string
		server       string
		hold         bool // hold the only in-flight slot during the request
		method, path string
		body         string
		status       int
		retryAfter   string
		close        bool // the response asks the client to close
		want         string
	}{
		// Fit failure, then the tripped breaker's fast 503. These run first
		// so the injected failure is the test's first fit.
		{name: "predict fit failure", server: "breaker", method: "POST", path: "/predict", body: predict, status: 500,
			want: `{"error":"injected fit failure"}` + "\n"},
		{name: "predict breaker open", server: "breaker", method: "POST", path: "/predict", body: predict,
			status: 503, retryAfter: "60",
			want: `{"error":"service: circuit breaker open for this model (1 consecutive fit failures); retry later"}` + "\n"},

		// Wrong method, every route.
		{name: "predict GET", server: "plain", method: "GET", path: "/predict", status: 405, want: postOnly},
		{name: "batch GET", server: "plain", method: "GET", path: "/predict/batch", status: 405, want: postOnly},
		{name: "observe GET", server: "plain", method: "GET", path: "/observe", status: 405, want: postOnly},
		{name: "load GET", server: "plain", method: "GET", path: "/datasets/x/load", status: 405, want: postOnly},
		{name: "models POST", server: "plain", method: "POST", path: "/models", status: 405, want: getOnly},
		{name: "datasets POST", server: "plain", method: "POST", path: "/datasets", status: 405, want: getOnly},
		{name: "stats POST", server: "plain", method: "POST", path: "/stats", status: 405, want: getOnly},
		{name: "healthz POST", server: "plain", method: "POST", path: "/healthz", status: 405, want: getOnly},
		{name: "readyz POST", server: "plain", method: "POST", path: "/readyz", status: 405, want: getOnly},

		// Draining: work routes refuse with 503 + Connection: close; the
		// probes keep answering.
		{name: "predict draining", server: "draining", method: "POST", path: "/predict", body: predict,
			status: 503, retryAfter: "1", close: true, want: drainBody},
		{name: "batch draining", server: "draining", method: "POST", path: "/predict/batch", body: `{"requests":[]}`,
			status: 503, retryAfter: "1", close: true, want: drainBody},
		{name: "observe draining", server: "draining", method: "POST", path: "/observe", body: `{}`,
			status: 503, retryAfter: "1", close: true, want: drainBody},
		{name: "load draining", server: "draining", method: "POST", path: "/datasets/x/load",
			status: 503, retryAfter: "1", close: true, want: drainBody},
		{name: "readyz draining", server: "draining", method: "GET", path: "/readyz", status: 503,
			want: `{"ready":false,"status":"draining","reasons":["service is draining: shutting down"]}` + "\n"},

		// In-flight shed: 429 before the body is read.
		{name: "predict shed", server: "plain", hold: true, method: "POST", path: "/predict", body: predict,
			status: 429, retryAfter: "1", want: shedBody},
		{name: "batch shed", server: "plain", hold: true, method: "POST", path: "/predict/batch", body: `{"requests":[]}`,
			status: 429, retryAfter: "1", want: shedBody},
		{name: "observe shed", server: "plain", hold: true, method: "POST", path: "/observe", body: `{}`,
			status: 429, retryAfter: "1", want: shedBody},
		{name: "load shed", server: "plain", hold: true, method: "POST", path: "/datasets/x/load",
			status: 429, retryAfter: "1", want: shedBody},
		{name: "models while shedding", server: "plain", hold: true, method: "GET", path: "/models",
			status: 200, want: `{"count":0,"models":[]}` + "\n"},

		// Malformed bodies.
		{name: "predict malformed", server: "plain", method: "POST", path: "/predict", body: "x", status: 400,
			want: `{"error":"service: malformed request body: invalid character 'x' looking for beginning of value"}` + "\n"},
		{name: "predict unknown field", server: "plain", method: "POST", path: "/predict", body: `{"bogus":1}`, status: 400,
			want: `{"error":"service: malformed request body: json: unknown field \"bogus\""}` + "\n"},
		{name: "batch malformed", server: "plain", method: "POST", path: "/predict/batch", body: "x", status: 400,
			want: `{"error":"service: malformed request body: invalid character 'x' looking for beginning of value"}` + "\n"},
		{name: "observe malformed", server: "plain", method: "POST", path: "/observe", body: "x", status: 400,
			want: `{"error":"service: malformed request body: invalid character 'x' looking for beginning of value"}` + "\n"},

		// Request bounds.
		{name: "predict negative epsilon", server: "plain", method: "POST", path: "/predict",
			body: `{"dataset":"Wiki","scale":0.05,"algorithm":"PR","epsilon":-1}`, status: 400,
			want: `{"error":"service: epsilon -1 must be a positive finite number"}` + "\n"},
		{name: "predict too many training ratios", server: "plain", method: "POST", path: "/predict",
			body: `{"dataset":"Wiki","algorithm":"PR","training_ratios":[` + strings.Repeat("0.1,", 16) + `0.1]}`, status: 400,
			want: `{"error":"service: 17 training ratios exceed the limit of 16"}` + "\n"},
		{name: "batch empty", server: "plain", method: "POST", path: "/predict/batch", body: `{"requests":[]}`, status: 400,
			want: `{"error":"service: empty batch"}` + "\n"},
		{name: "batch oversized", server: "plain", method: "POST", path: "/predict/batch",
			body: `{"requests":[` + predict + "," + predict + "," + predict + `]}`, status: 400,
			want: `{"error":"service: batch of 3 exceeds limit 2"}` + "\n"},

		// Unknown datasets and keys.
		{name: "predict unknown dataset", server: "plain", method: "POST", path: "/predict",
			body: `{"dataset":"Nope","algorithm":"PR"}`, status: 400,
			want: `{"error":"service: unknown dataset \"Nope\": not a file under ` + dir + ` and not a generator prefix (LJ, Wiki, TW, UK)"}` + "\n"},
		{name: "load unknown dataset", server: "plain", method: "POST", path: "/datasets/Nope/load", status: 404,
			want: `{"error":"service: unknown dataset \"Nope\""}` + "\n"},
		{name: "load malformed path", server: "plain", method: "POST", path: "/datasets/Nope", status: 404,
			want: `{"error":"service: want POST /datasets/{name}/load"}` + "\n"},
		{name: "datasets empty registry", server: "plain", method: "GET", path: "/datasets", status: 200,
			want: `{"count":0,"datasets":[],"dir":"` + dir + `"}` + "\n"},
		{name: "observe unknown key", server: "plain", method: "POST", path: "/observe",
			body: `{"model_key":"nope","actual_seconds":1}`, status: 404,
			want: `{"error":"service: unknown model key \"nope\": observations attach to fitted models (predict first)"}` + "\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.hold {
				if !plain.reqGate.tryAcquire() {
					t.Fatal("could not hold the only in-flight slot")
				}
				defer plain.reqGate.release()
			}
			req, err := http.NewRequest(tc.method, servers[tc.server]+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.status {
				t.Errorf("status = %d, want %d", resp.StatusCode, tc.status)
			}
			if got := string(body); got != tc.want {
				t.Errorf("body = %q, want %q", got, tc.want)
			}
			for _, h := range []struct{ name, got, want string }{
				{"Content-Type", resp.Header.Get("Content-Type"), "application/json"},
				{"Content-Length", resp.Header.Get("Content-Length"), strconv.Itoa(len(tc.want))},
				{"Retry-After", resp.Header.Get("Retry-After"), tc.retryAfter},
			} {
				if h.got != h.want {
					t.Errorf("%s = %q, want %q", h.name, h.got, h.want)
				}
			}
			// net/http's client consumes the Connection header into Close.
			if resp.Close != tc.close {
				t.Errorf("Connection: close = %v, want %v", resp.Close, tc.close)
			}
		})
	}
}
