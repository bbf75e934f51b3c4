package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"predict/internal/gen"
	"predict/internal/graph"
)

// newRegistryServer builds a dataset directory holding the same tiny
// graph as both a text edge list ("web") and a binary snapshot ("social",
// plus a "web.snap" shadowing check via "both"), and serves it.
func testWikiGraph(t *testing.T) *graph.Graph {
	t.Helper()
	ds, err := gen.ByPrefix("Wiki")
	if err != nil {
		t.Fatal(err)
	}
	return ds.Generate(0.02, 1)
}

func newRegistryServer(t *testing.T) (*Service, *httptest.Server, *graph.Graph) {
	t.Helper()
	dir := t.TempDir()
	g := testWikiGraph(t)

	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "web.txt"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteSnapshotFile(filepath.Join(dir, "social.snap"), g); err != nil {
		t.Fatal(err)
	}
	// "both" exists in both forms; the snapshot must win.
	if err := os.WriteFile(filepath.Join(dir, "both.txt"), []byte("this is not a valid edge list\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteSnapshotFile(filepath.Join(dir, "both.snap"), g); err != nil {
		t.Fatal(err)
	}
	// Unrecognized extensions are not datasets.
	if err := os.WriteFile(filepath.Join(dir, "notes.md"), []byte("readme"), 0o644); err != nil {
		t.Fatal(err)
	}

	svc := New(Config{DatasetDir: dir})
	server := httptest.NewServer(svc.Handler())
	t.Cleanup(server.Close)
	return svc, server, g
}

func getJSONInto(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
	return resp.StatusCode
}

func postJSONInto(t *testing.T, url string, body, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestDatasetsEndpointLists(t *testing.T) {
	_, server, _ := newRegistryServer(t)
	var got struct {
		Dir      string        `json:"dir"`
		Datasets []DatasetInfo `json:"datasets"`
		Count    int           `json:"count"`
	}
	if code := getJSONInto(t, server.URL+"/datasets", &got); code != http.StatusOK {
		t.Fatalf("GET /datasets = %d", code)
	}
	if got.Count != 3 || len(got.Datasets) != 3 {
		t.Fatalf("count = %d (%d entries), want 3", got.Count, len(got.Datasets))
	}
	// Sorted by name: both, social, web.
	names := []string{got.Datasets[0].Name, got.Datasets[1].Name, got.Datasets[2].Name}
	want := []string{"both", "social", "web"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v, want %v", names, want)
		}
	}
	both := got.Datasets[0]
	if len(both.Formats) != 2 || both.Formats[0] != "snapshot" || both.Formats[1] != "edgelist" {
		t.Errorf("both.Formats = %v, want [snapshot edgelist]", both.Formats)
	}
	if both.Loaded {
		t.Error("both reported loaded before any load")
	}
	if both.SizeBytes == 0 {
		t.Error("both.SizeBytes = 0, want the snapshot size")
	}
}

func TestDatasetLoadEndpoint(t *testing.T) {
	_, server, g := newRegistryServer(t)
	var got struct {
		Dataset       DatasetInfo `json:"dataset"`
		AlreadyLoaded bool        `json:"already_loaded"`
	}
	if code := postJSONInto(t, server.URL+"/datasets/web/load", nil, &got); code != http.StatusOK {
		t.Fatalf("POST /datasets/web/load = %d", code)
	}
	if got.AlreadyLoaded {
		t.Error("first load reported already_loaded")
	}
	if got.Dataset.Vertices != g.NumVertices() || got.Dataset.Edges != g.NumEdges() {
		t.Errorf("loaded %d vertices / %d edges, want %d / %d",
			got.Dataset.Vertices, got.Dataset.Edges, g.NumVertices(), g.NumEdges())
	}
	if len(got.Dataset.Formats) != 1 || got.Dataset.Formats[0] != "edgelist" {
		t.Errorf("Formats = %v, want [edgelist]", got.Dataset.Formats)
	}
	if code := postJSONInto(t, server.URL+"/datasets/web/load", nil, &got); code != http.StatusOK {
		t.Fatalf("second POST = %d", code)
	}
	if !got.AlreadyLoaded {
		t.Error("second load not reported as cached")
	}

	// The list now shows it loaded.
	var list struct {
		Datasets []DatasetInfo `json:"datasets"`
	}
	getJSONInto(t, server.URL+"/datasets", &list)
	for _, d := range list.Datasets {
		if d.Name == "web" && (!d.Loaded || d.Vertices != g.NumVertices()) {
			t.Errorf("web after load: %+v", d)
		}
	}

	// Unknown names and malformed paths 404.
	if code := postJSONInto(t, server.URL+"/datasets/nosuch/load", nil, nil); code != http.StatusNotFound {
		t.Errorf("unknown dataset load = %d, want 404", code)
	}
	if code := postJSONInto(t, server.URL+"/datasets/a/b/load", nil, nil); code != http.StatusNotFound {
		t.Errorf("nested name load = %d, want 404", code)
	}
	if code := postJSONInto(t, server.URL+"/datasets/..%2Fweb/load", nil, nil); code == http.StatusOK {
		t.Error("path-traversal name loaded")
	}
}

func TestDatasetSnapshotPreferredOverEdgeList(t *testing.T) {
	_, server, g := newRegistryServer(t)
	// "both.txt" is deliberately invalid; a successful load proves the
	// snapshot was chosen.
	var got struct {
		Dataset DatasetInfo `json:"dataset"`
	}
	if code := postJSONInto(t, server.URL+"/datasets/both/load", nil, &got); code != http.StatusOK {
		t.Fatalf("POST /datasets/both/load = %d", code)
	}
	if got.Dataset.Formats[0] != "snapshot" {
		t.Errorf("Formats = %v, want snapshot preferred", got.Dataset.Formats)
	}
	if got.Dataset.Vertices != g.NumVertices() {
		t.Errorf("vertices = %d, want %d", got.Dataset.Vertices, g.NumVertices())
	}
}

func TestPredictOnRegistryDataset(t *testing.T) {
	_, server, _ := newRegistryServer(t)
	req := PredictRequest{Dataset: "social", Algorithm: "CC", TrainingRatios: []float64{0.1, 0.2}}
	var resp PredictResponse
	if code := postJSONInto(t, server.URL+"/predict", req, &resp); code != http.StatusOK {
		t.Fatalf("POST /predict on registry dataset = %d", code)
	}
	if resp.Iterations <= 0 || resp.CacheHit {
		t.Errorf("cold registry prediction: iterations=%d hit=%v", resp.Iterations, resp.CacheHit)
	}
	// Second request hits the model cache.
	if code := postJSONInto(t, server.URL+"/predict", req, &resp); code != http.StatusOK {
		t.Fatal("second predict failed")
	}
	if !resp.CacheHit {
		t.Error("repeat registry prediction missed the model cache")
	}
	// Generator prefixes still work beside the registry.
	genReq := PredictRequest{Dataset: "Wiki", Scale: 0.02, Algorithm: "CC", TrainingRatios: []float64{0.1, 0.2}}
	if code := postJSONInto(t, server.URL+"/predict", genReq, &resp); code != http.StatusOK {
		t.Error("generator dataset no longer served")
	}
	// Generator knobs are rejected on registry datasets.
	bad := req
	bad.Scale = 0.5
	if code := postJSONInto(t, server.URL+"/predict", bad, nil); code != http.StatusBadRequest {
		t.Errorf("scale on registry dataset = %d, want 400", code)
	}
	bad = req
	bad.GraphSeed = 7
	if code := postJSONInto(t, server.URL+"/predict", bad, nil); code != http.StatusBadRequest {
		t.Errorf("graph_seed on registry dataset = %d, want 400", code)
	}
	// Unknown names still 400 with the registry hint.
	unknown := PredictRequest{Dataset: "XX", Algorithm: "PR"}
	var errBody map[string]string
	if code := postJSONInto(t, server.URL+"/predict", unknown, &errBody); code != http.StatusBadRequest {
		t.Errorf("unknown dataset = %d, want 400", code)
	}
}

func TestLoadDatasetDirectAndConcurrent(t *testing.T) {
	svc, _, g := newRegistryServer(t)
	const clients = 8
	results := make([]*DatasetInfo, clients)
	errs := make([]error, clients)
	done := make(chan int, clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			info, _, err := svc.LoadDataset(context.Background(), "social")
			results[i], errs[i] = info, err
			done <- i
		}(i)
	}
	for i := 0; i < clients; i++ {
		<-done
	}
	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if results[i].Vertices != g.NumVertices() {
			t.Fatalf("client %d saw %d vertices, want %d", i, results[i].Vertices, g.NumVertices())
		}
	}
	// All clients shared one cache entry.
	st := svc.Stats()
	if st.Graphs != 1 {
		t.Errorf("graphs cached = %d, want 1", st.Graphs)
	}
}

// TestDatasetsListsSymlinkedFiles: symlinking a large graph into the
// dataset directory (instead of copying it) must produce a dataset that
// both lists and loads.
func TestDatasetsListsSymlinkedFiles(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "real-file")
	if err := graph.WriteSnapshotFile(target, testWikiGraph(t)); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(target, filepath.Join(dir, "linked.snap")); err != nil {
		t.Skipf("symlinks unavailable: %v", err)
	}
	// A dangling symlink must not list.
	if err := os.Symlink(filepath.Join(dir, "gone"), filepath.Join(dir, "dangling.snap")); err != nil {
		t.Fatal(err)
	}
	svc := New(Config{DatasetDir: dir})
	infos, err := svc.Datasets()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Name != "linked" {
		t.Fatalf("Datasets() = %+v, want exactly [linked]", infos)
	}
	if _, _, err := svc.LoadDataset(context.Background(), "linked"); err != nil {
		t.Errorf("loading symlinked dataset: %v", err)
	}
}

// TestRegistryDatasetModelKeyNamespaced: a registry file named like a
// generator prefix must not share the generator's model-cache key —
// otherwise a model fitted on the stand-in would be served for the real
// graph (or vice versa) the moment the file appears.
func TestRegistryDatasetModelKeyNamespaced(t *testing.T) {
	dir := t.TempDir()
	if err := graph.WriteSnapshotFile(filepath.Join(dir, "Wiki.snap"), testWikiGraph(t)); err != nil {
		t.Fatal(err)
	}
	req := PredictRequest{Dataset: "Wiki", Algorithm: "PR"}.withDefaults()
	withRegistry := New(Config{DatasetDir: dir})
	without := New(Config{})
	_, fi, _, ok := withRegistry.resolveDataset("Wiki")
	if !ok {
		t.Fatal("Wiki.snap did not resolve")
	}
	regKey := string(withRegistry.appendModelKey(nil, req, datasetKey("Wiki", fi)))
	genKey := string(without.appendModelKey(nil, req, ""))
	if regKey == genKey {
		t.Fatalf("registry and generator models share key %q", regKey)
	}
	if !strings.Contains(regKey, "data=dataset:Wiki@") {
		t.Errorf("registry model key %q not namespaced with file identity", regKey)
	}
}

// TestDatasetReplacedFileReloads: replacing a dataset file on disk must
// invalidate the cached graph — the next load reads the new contents
// instead of reporting already_loaded on the old ones.
func TestDatasetReplacedFileReloads(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(path, []byte("0 1\n1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	svc := New(Config{DatasetDir: dir})
	info, cached, err := svc.LoadDataset(context.Background(), "g")
	if err != nil {
		t.Fatal(err)
	}
	if cached || info.Edges != 2 {
		t.Fatalf("first load: cached=%v edges=%d", cached, info.Edges)
	}
	// Replace with a bigger graph; size change guarantees a new identity
	// even on filesystems with coarse mtimes.
	if err := os.WriteFile(path, []byte("0 1\n1 2\n2 3\n3 4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	info, cached, err = svc.LoadDataset(context.Background(), "g")
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Error("replaced file reported already_loaded")
	}
	if info.Edges != 4 {
		t.Errorf("replaced file served %d edges, want 4", info.Edges)
	}
}

func TestDatasetsWithoutDirConfigured(t *testing.T) {
	svc := New(Config{})
	server := httptest.NewServer(svc.Handler())
	defer server.Close()
	if code := getJSONInto(t, server.URL+"/datasets", &map[string]any{}); code != http.StatusNotFound {
		t.Errorf("GET /datasets without dir = %d, want 404", code)
	}
	if code := postJSONInto(t, server.URL+"/datasets/x/load", nil, nil); code != http.StatusNotFound {
		t.Errorf("POST load without dir = %d, want 404", code)
	}
}

func TestLoadDatasetCorruptFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "bad.txt"), []byte("0 1\nnot an edge\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A truncated snapshot must fail checksum/size validation.
	g := testWikiGraph(t)
	snap := filepath.Join(dir, "cut.snap")
	if err := graph.WriteSnapshotFile(snap, g); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snap, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	svc := New(Config{DatasetDir: dir})
	server := httptest.NewServer(svc.Handler())
	defer server.Close()
	var body map[string]string
	if code := postJSONInto(t, server.URL+"/datasets/bad/load", nil, &body); code != http.StatusInternalServerError {
		t.Errorf("corrupt edge list load = %d (%v), want 500 (server-side fault)", code, body)
	}
	if code := postJSONInto(t, server.URL+"/datasets/cut/load", nil, &body); code != http.StatusInternalServerError {
		t.Errorf("truncated snapshot load = %d (%v), want 500 (server-side fault)", code, body)
	}
}

// TestMmapDatasetsMode serves the registry with MmapDatasets on: snapshot
// loads come back identical to the copy-in path, edge lists still parse,
// a corrupt snapshot still answers 500, and the full /predict path runs
// over the mapped graph.
func TestMmapDatasetsMode(t *testing.T) {
	dir := t.TempDir()
	g := testWikiGraph(t)
	if err := graph.WriteSnapshotFile(filepath.Join(dir, "social.snap"), g); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "web.txt"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "cut.snap")
	if err := graph.WriteSnapshotFile(bad, g); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(bad)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bad, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	svc := New(Config{DatasetDir: dir, MmapDatasets: true})
	server := httptest.NewServer(svc.Handler())
	defer server.Close()

	for _, name := range []string{"social", "web"} {
		var got struct {
			Dataset DatasetInfo `json:"dataset"`
		}
		if code := postJSONInto(t, server.URL+"/datasets/"+name+"/load", nil, &got); code != http.StatusOK {
			t.Fatalf("load %s with mmap mode = %d, want 200", name, code)
		}
		if got.Dataset.Vertices != g.NumVertices() || got.Dataset.Edges != g.NumEdges() {
			t.Errorf("%s: loaded %d/%d, want %d/%d",
				name, got.Dataset.Vertices, got.Dataset.Edges, g.NumVertices(), g.NumEdges())
		}
	}
	// The cached graph must be byte-equivalent to the source.
	loaded, _, err := svc.loadDataset(context.Background(), "social",
		filepath.Join(dir, "social.snap"), "probe-key")
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumVertices(); v++ {
		a, b := g.OutNeighbors(graph.VertexID(v)), loaded.OutNeighbors(graph.VertexID(v))
		if len(a) != len(b) {
			t.Fatalf("vertex %d: mapped degree %d, want %d", v, len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("vertex %d: adjacency differs on mapped dataset", v)
			}
		}
	}

	var body map[string]string
	if code := postJSONInto(t, server.URL+"/datasets/cut/load", nil, &body); code != http.StatusInternalServerError {
		t.Errorf("truncated snapshot with mmap mode = %d (%v), want 500", code, body)
	}

	var resp PredictResponse
	req := PredictRequest{Dataset: "social", Algorithm: "PR", Ratio: 0.3}
	if code := postJSONInto(t, server.URL+"/predict", req, &resp); code != http.StatusOK {
		t.Fatalf("predict on mmap'd dataset = %d, want 200", code)
	}
	if resp.Iterations <= 0 || resp.SuperstepSeconds <= 0 {
		t.Errorf("predict on mmap'd dataset returned iterations=%d superstep=%v",
			resp.Iterations, resp.SuperstepSeconds)
	}
}
