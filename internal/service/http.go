package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// BatchRequest asks for many predictions in one call. Items are answered
// concurrently; identical model keys share one fit via the cache's
// single-flight, so a what-if sweep over worker counts pays for at most
// one cold path per distinct (algorithm, cluster, training, dataset) key.
type BatchRequest struct {
	Requests []PredictRequest `json:"requests"`
}

// BatchItem is one batch answer: a response or an error, never both.
type BatchItem struct {
	Response *PredictResponse `json:"response,omitempty"`
	Error    string           `json:"error,omitempty"`
}

// BatchResponse answers a BatchRequest positionally.
type BatchResponse struct {
	Responses []BatchItem `json:"responses"`
	// CacheHits counts items answered from cached models.
	CacheHits int `json:"cache_hits"`
	// ElapsedMillis is the wall-clock time of the whole batch.
	ElapsedMillis float64 `json:"elapsed_ms"`
}

// Handler returns the service's HTTP API (docs/API.md is the full
// reference). Every endpoint is one row of the route table; serve gives
// each the same front door.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range []route{
		{http.MethodPost, "/predict", true, s.handlePredict},       // PredictRequest -> PredictResponse
		{http.MethodPost, "/predict/batch", true, s.handleBatch},   // BatchRequest -> BatchResponse
		{http.MethodPost, "/observe", true, s.handleObserve},       // ObserveRequest -> ObserveResponse (feedback)
		{http.MethodPost, "/datasets/", true, s.handleDatasetLoad}, // /datasets/{name}/load: load a registry dataset
		{http.MethodGet, "/models", false, s.handleModels},         // {"models": [ModelInfo...]}
		{http.MethodGet, "/datasets", false, s.handleDatasets},     // {"datasets": [DatasetInfo...]} (registry)
		{http.MethodGet, "/stats", false, s.handleStats},           // Stats (pool depth, in-flight fits, hit ratio)
		{http.MethodGet, "/healthz", false, s.handleHealthz},       // liveness: always 200, honest status field
		{http.MethodGet, "/readyz", false, s.handleReadyz},         // readiness: 503 while degraded
	} {
		mux.Handle(rt.path, s.serve(rt))
	}
	return mux
}

// route is one endpoint: the method it answers, its ServeMux pattern,
// whether it is prediction work, and the handler behind the front door.
type route struct {
	method string
	path   string
	work   bool
	handle func(c *codec, w http.ResponseWriter, r *http.Request)
}

// serve is the front door every route shares. It answers a wrong method
// with 405, hands the handler a pooled codec to read and write through,
// and for work routes adds admission: the drain reject, the in-flight
// gate and the activeWork count a supervised drain waits on.
func (s *Service) serve(rt route) http.HandlerFunc {
	wrongMethod := rt.method + " only"
	return func(w http.ResponseWriter, r *http.Request) {
		c := codecPool.Get().(*codec)
		defer codecPool.Put(c)
		if r.Method != rt.method {
			c.writeError(w, http.StatusMethodNotAllowed, wrongMethod)
			return
		}
		if rt.work {
			// A draining service refuses new work: 503 so the caller retries
			// elsewhere, Connection: close so keep-alive clients and load
			// balancers stop routing to this process instead of queueing
			// behind a closing listener. The observability routes keep
			// answering — the drain supervisor itself polls them.
			if s.draining.Load() {
				s.drainRejected.Add(1)
				w.Header().Set("Connection", "close")
				c.writeServiceError(w, &Error{
					Status:            http.StatusServiceUnavailable,
					RetryAfterSeconds: ceilSeconds(s.cfg.ShedRetryAfter),
					Msg:               "service: draining: shutting down, retry against another replica",
				})
				return
			}
			// MaxInFlight sheds at the front door, before any body is read.
			if !s.reqGate.tryAcquire() {
				c.writeServiceError(w, &Error{
					Status:            http.StatusTooManyRequests,
					RetryAfterSeconds: ceilSeconds(s.cfg.ShedRetryAfter),
					Msg: fmt.Sprintf("service: %d requests already in flight; retry later",
						s.cfg.MaxInFlight),
				})
				return
			}
			defer s.reqGate.release()
			s.activeWork.Add(1)
			defer s.activeWork.Add(-1)
		}
		rt.handle(c, w, r)
	}
}

// requestContext derives the per-request context from the request's
// timeout override or the service default.
func (s *Service) requestContext(r *http.Request, timeoutMillis int64) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	if timeoutMillis > 0 {
		d = time.Duration(timeoutMillis) * time.Millisecond
	}
	return context.WithTimeout(r.Context(), d)
}

func (s *Service) handlePredict(c *codec, w http.ResponseWriter, r *http.Request) {
	var req PredictRequest
	if err := c.decodeJSON(w, r, &req); err != nil {
		c.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMillis)
	defer cancel()
	resp := respPool.Get().(*PredictResponse)
	defer respPool.Put(resp)
	if err := s.predictInto(ctx, req, resp); err != nil {
		c.writeServiceError(w, err)
		return
	}
	c.writeJSON(w, http.StatusOK, resp)
}

// handleObserve serves POST /observe: record one observed actual runtime
// against a cached model key (the closed-loop feedback path). Unknown
// keys are 404s — see Service.Observe.
func (s *Service) handleObserve(c *codec, w http.ResponseWriter, r *http.Request) {
	var req ObserveRequest
	if err := c.decodeJSON(w, r, &req); err != nil {
		c.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	ctx, cancel := s.requestContext(r, 0)
	defer cancel()
	resp, err := s.Observe(ctx, req)
	if err != nil {
		c.writeServiceError(w, err)
		return
	}
	c.writeJSON(w, http.StatusOK, resp)
}

func (s *Service) handleBatch(c *codec, w http.ResponseWriter, r *http.Request) {
	var batch BatchRequest
	if err := c.decodeJSON(w, r, &batch); err != nil {
		c.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if len(batch.Requests) == 0 {
		c.writeError(w, http.StatusBadRequest, "service: empty batch")
		return
	}
	if len(batch.Requests) > s.cfg.MaxBatch {
		c.writeError(w, http.StatusBadRequest, fmt.Sprintf(
			"service: batch of %d exceeds limit %d", len(batch.Requests), s.cfg.MaxBatch))
		return
	}

	start := time.Now()
	ctx, cancel := s.requestContext(r, 0)
	defer cancel()

	resp := BatchResponse{Responses: make([]BatchItem, len(batch.Requests))}
	// Bounded fan-out: a batch of distinct cold requests must not launch
	// MaxBatch sample pipelines at once.
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, req := range batch.Requests {
		wg.Add(1)
		go func(i int, req PredictRequest) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			itemCtx := ctx
			var itemCancel context.CancelFunc = func() {}
			if req.TimeoutMillis > 0 {
				itemCtx, itemCancel = context.WithTimeout(ctx,
					time.Duration(req.TimeoutMillis)*time.Millisecond)
			}
			defer itemCancel()
			pr, err := s.Predict(itemCtx, req)
			if err != nil {
				resp.Responses[i] = BatchItem{Error: err.Error()}
				return
			}
			resp.Responses[i] = BatchItem{Response: pr}
		}(i, req)
	}
	wg.Wait()
	for _, item := range resp.Responses {
		if item.Response != nil && item.Response.CacheHit {
			resp.CacheHits++
		}
	}
	resp.ElapsedMillis = float64(time.Since(start)) / float64(time.Millisecond)
	c.writeJSON(w, http.StatusOK, resp)
}

func (s *Service) handleModels(c *codec, w http.ResponseWriter, r *http.Request) {
	models := s.Models()
	c.writeJSON(w, http.StatusOK, map[string]any{
		"models": models,
		"count":  len(models),
	})
}

// handleDatasets lists the dataset registry (GET /datasets).
func (s *Service) handleDatasets(c *codec, w http.ResponseWriter, r *http.Request) {
	if s.cfg.DatasetDir == "" {
		c.writeError(w, http.StatusNotFound, "service: no dataset directory configured")
		return
	}
	datasets, err := s.Datasets()
	if err != nil {
		c.writeError(w, http.StatusInternalServerError, fmt.Sprintf("service: scanning dataset directory: %v", err))
		return
	}
	c.writeJSON(w, http.StatusOK, map[string]any{
		"dir":      s.cfg.DatasetDir,
		"datasets": datasets,
		"count":    len(datasets),
	})
}

// handleDatasetLoad serves POST /datasets/{name}/load: resolve the named
// registry dataset, pull it into the graph cache (shared single-flight
// with any concurrent /predict on the same dataset) and report its shape.
func (s *Service) handleDatasetLoad(c *codec, w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/datasets/")
	name, ok := strings.CutSuffix(rest, "/load")
	if !ok || name == "" || strings.Contains(name, "/") {
		c.writeError(w, http.StatusNotFound, "service: want POST /datasets/{name}/load")
		return
	}
	start := time.Now()
	ctx, cancel := s.requestContext(r, 0)
	defer cancel()
	info, cached, err := s.LoadDataset(ctx, name)
	if err != nil {
		c.writeServiceError(w, err)
		return
	}
	c.writeJSON(w, http.StatusOK, map[string]any{
		"dataset":        info,
		"already_loaded": cached,
		"elapsed_ms":     float64(time.Since(start)) / float64(time.Millisecond),
	})
}

// handleStats exposes the service's operational counters: cache hit
// ratio, in-flight fits, and the shared fit pool's depth — the numbers
// that tell an operator whether FitParallelism is the bottleneck.
func (s *Service) handleStats(c *codec, w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	c.writeJSON(w, http.StatusOK, map[string]any{
		"uptime_seconds": s.Uptime().Seconds(),
		"stats":          st,
	})
}

// handleHealthz is the LIVENESS probe: always 200 while the process
// serves HTTP, because restarting a degraded-but-serving process would
// destroy the warm caches still answering requests. The status field is
// honest — "ok" or "degraded" per the readiness probes — so operators
// and dashboards see trouble here even though only /readyz changes its
// HTTP status. The pre-existing fields are kept for compatibility.
func (s *Service) handleHealthz(c *codec, w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	rd := s.Readiness()
	status := "ok"
	if !rd.Ready {
		status = rd.Status
	}
	c.writeJSON(w, http.StatusOK, map[string]any{
		"status":         status,
		"ready":          rd.Ready,
		"reasons":        rd.Reasons,
		"uptime_seconds": s.Uptime().Seconds(),
		"models":         st.Models,
		"graphs":         st.Graphs,
		"hits":           st.Hits,
		"misses":         st.Misses,
		"evictions":      st.Evictions,
		"fits":           st.Fits,
	})
}

// handleReadyz is the READINESS probe: 503 while a dependency needed for
// new work is broken (dataset dir unreadable, history unwritable), 200
// otherwise. Load balancers drain traffic on 503; the process keeps
// serving warm hits meanwhile, and the endpoint flips back by itself when
// the dependency is restored (probes run live, nothing is cached).
func (s *Service) handleReadyz(c *codec, w http.ResponseWriter, r *http.Request) {
	rd := s.Readiness()
	status := http.StatusOK
	if !rd.Ready {
		status = http.StatusServiceUnavailable
	}
	c.writeJSON(w, status, rd)
}

// maxBodyBytes bounds request bodies so one oversized POST cannot exhaust
// the long-running server's memory. Generous for the largest legal batch.
const maxBodyBytes = 8 << 20

// codec is one request's pooled JSON machinery: a body read buffer, a
// bytes.Reader over it, and a write buffer with a json.Encoder bound to
// it once (the encoder holds only the writer, so it is reusable across
// requests as long as the buffer identity is stable). Pooling these is
// most of the serving path's allocation win: without it every request
// pays a fresh read buffer, encoder and encode buffer.
type codec struct {
	body []byte
	br   bytes.Reader
	out  bytes.Buffer
	enc  *json.Encoder
}

var codecPool = sync.Pool{New: func() any {
	c := &codec{body: make([]byte, 0, 4096)}
	c.enc = json.NewEncoder(&c.out)
	return c
}}

// respPool recycles the response structs the /predict handler fills —
// predictInto overwrites every field, so entries carry no state between
// requests (the slices they point at are fresh per request and never
// written through after encoding).
var respPool = sync.Pool{New: func() any { return new(PredictResponse) }}

// readBody reads the size-limited request body into the codec's reused
// buffer and points the codec's reader at it.
func (c *codec) readBody(w http.ResponseWriter, r *http.Request) error {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	b := c.body[:0]
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			c.body = b
			return err
		}
	}
	c.body = b
	c.br.Reset(b)
	return nil
}

// decodeJSON strictly decodes one size-limited JSON body into v. The
// decoder itself is fresh per request (encoding/json has no decoder
// reset), but it reads from the codec's pooled buffer instead of pulling
// the body through its own internal buffering.
func (c *codec) decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	if err := c.readBody(w, r); err != nil {
		return fmt.Errorf("service: malformed request body: %w", err)
	}
	dec := json.NewDecoder(&c.br)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("service: malformed request body: %w", err)
	}
	return nil
}

// writeJSON encodes v into the codec's pooled buffer and writes it out
// in one Write with an explicit Content-Length. The response bytes are
// exactly what json.Encoder produces — the pre-pooling path encoded
// straight to the wire, and the warm-path fingerprints pin that those
// bytes never change.
func (c *codec) writeJSON(w http.ResponseWriter, status int, v any) {
	c.out.Reset()
	if err := c.enc.Encode(v); err != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprintf(&c.out, `{"error":%q}`, "service: encoding response: "+err.Error())
		_, _ = w.Write(c.out.Bytes())
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(c.out.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(c.out.Bytes())
}

func (c *codec) writeError(w http.ResponseWriter, status int, msg string) {
	c.writeJSON(w, status, map[string]string{"error": msg})
}

// writeServiceError maps service errors to HTTP statuses, attaching the
// Retry-After hint shed (429/503) responses carry. An error that is no
// *Error answers 504 when it is a deadline and 500 otherwise.
func (c *codec) writeServiceError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	if errors.Is(err, context.DeadlineExceeded) {
		status = http.StatusGatewayTimeout
	}
	se := asError(err, status)
	if se.RetryAfterSeconds > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(se.RetryAfterSeconds))
	}
	c.writeError(w, se.Status, se.Msg)
}
