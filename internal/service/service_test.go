package service_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"nova/graph"
	"nova/internal/chaos"
	"nova/internal/harness"
	"nova/internal/service"
	"nova/internal/sim"
	"nova/internal/stats"
)

// buildCSR writes a deterministic uniform graph container and returns its
// path.
func buildCSR(t *testing.T, vertices int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.csr")
	st := graph.NewUniformStream("g", vertices, 6, 32, 7)
	if _, err := graph.BuildCSRFile(path, st, graph.BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	return path
}

func newTestServer(t *testing.T, cfg service.Config) (*service.Server, *httptest.Server) {
	t.Helper()
	srv := service.NewServer(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, payload
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	} else {
		_, _ = io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode
}

// register installs the container under name via the HTTP API.
func register(t *testing.T, base, name, path string) {
	t.Helper()
	resp, body := postJSON(t, base+"/graphs", map[string]string{"name": name, "path": path})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register %s: HTTP %d: %s", name, resp.StatusCode, body)
	}
}

// submitAndWait posts req and polls until the job reaches a terminal
// state, returning the final status.
func submitAndWait(t *testing.T, base string, req map[string]any) service.JobStatus {
	t.Helper()
	resp, body := postJSON(t, base+"/jobs", req)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", resp.StatusCode, body)
	}
	var st service.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for st.State == service.JobQueued || st.State == service.JobRunning {
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", st.ID, st.State)
		}
		time.Sleep(5 * time.Millisecond)
		if code := getJSON(t, base+"/jobs/"+st.ID, &st); code != http.StatusOK {
			t.Fatalf("status poll: HTTP %d", code)
		}
	}
	return st
}

func fetchResult(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result %s: HTTP %d: %s", id, resp.StatusCode, body)
	}
	return body
}

// statsValue reads one dotted-path value from /statsz.
func statsValue(t *testing.T, base, path string) float64 {
	t.Helper()
	var dump struct {
		Records []struct {
			Path  string  `json:"path"`
			Value float64 `json:"value"`
		} `json:"records"`
	}
	if code := getJSON(t, base+"/statsz", &dump); code != http.StatusOK {
		t.Fatalf("statsz: HTTP %d", code)
	}
	for _, r := range dump.Records {
		if r.Path == path {
			return r.Value
		}
	}
	t.Fatalf("statsz: path %q not found", path)
	return 0
}

func TestRegisterListEvict(t *testing.T) {
	_, ts := newTestServer(t, service.Config{})
	path := buildCSR(t, 500)
	register(t, ts.URL, "g", path)

	// Duplicate registration is a conflict.
	resp, _ := postJSON(t, ts.URL+"/graphs", map[string]string{"name": "g", "path": path})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate register: HTTP %d, want 409", resp.StatusCode)
	}

	var list struct{ Graphs []service.GraphInfo }
	if code := getJSON(t, ts.URL+"/graphs", &list); code != http.StatusOK {
		t.Fatalf("list: HTTP %d", code)
	}
	if len(list.Graphs) != 1 || list.Graphs[0].Name != "g" {
		t.Fatalf("list: %+v", list.Graphs)
	}
	if list.Graphs[0].ContentHash == "" || list.Graphs[0].Vertices != 500 {
		t.Fatalf("graph info incomplete: %+v", list.Graphs[0])
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/graphs/g", nil)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("evict: HTTP %d", resp2.StatusCode)
	}
	// Evicting an unknown graph (including one already evicted) is 404.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/graphs/g", nil)
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound {
		t.Fatalf("double evict: HTTP %d, want 404", resp3.StatusCode)
	}
}

// TestCorruptContainerRejected: POST /graphs answers a file no reader
// accepts with 422 and names the corruption (and, for the retired layout,
// the tool that rebuilds it); a missing file is a 404.
func TestCorruptContainerRejected(t *testing.T) {
	_, ts := newTestServer(t, service.Config{})
	for _, tc := range []struct {
		name string
		want string
		mut  func(raw []byte)
	}{
		{"flipped payload byte", "corrupt", func(raw []byte) { raw[len(raw)/2] ^= 0x40 }},
		{"retired partitioned layout", "graphgen", func(raw []byte) {
			// Set the retired layout's header flag bit (bit 0 of the u16
			// at offset 6) and reseal the header CRC, which ends the
			// header; the row section's offset is the header's length.
			hdrLen := binary.LittleEndian.Uint64(raw[24:32])
			binary.LittleEndian.PutUint16(raw[6:8], 1)
			crc := crc32.Checksum(raw[:hdrLen-4], crc32.MakeTable(crc32.Castagnoli))
			binary.LittleEndian.PutUint32(raw[hdrLen-4:], crc)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := buildCSR(t, 300)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			tc.mut(raw)
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			resp, body := postJSON(t, ts.URL+"/graphs", map[string]string{"name": "bad", "path": path})
			if resp.StatusCode != http.StatusUnprocessableEntity {
				t.Fatalf("corrupt register: HTTP %d (%s), want 422", resp.StatusCode, body)
			}
			if !strings.Contains(string(body), "corrupt") || !strings.Contains(string(body), tc.want) {
				t.Fatalf("corrupt register error should name the corruption and %q: %s", tc.want, body)
			}
		})
	}
	// A missing file is a different failure: 404, not 422.
	resp, _ := postJSON(t, ts.URL+"/graphs", map[string]string{"name": "gone", "path": filepath.Join(t.TempDir(), "gone.csr")})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing register: HTTP %d, want 404", resp.StatusCode)
	}
}

func TestWarmCacheHitBitIdentical(t *testing.T) {
	_, ts := newTestServer(t, service.Config{})
	register(t, ts.URL, "g", buildCSR(t, 1500))

	req := map[string]any{"engine": "nova", "workload": "bfs", "graph": "g"}
	cold := submitAndWait(t, ts.URL, req)
	if cold.State != service.JobDone || cold.Cached {
		t.Fatalf("cold run: %+v", cold)
	}
	coldBody := fetchResult(t, ts.URL, cold.ID)

	warm := submitAndWait(t, ts.URL, req)
	if warm.State != service.JobDone || !warm.Cached {
		t.Fatalf("warm run not served from cache: %+v", warm)
	}
	warmBody := fetchResult(t, ts.URL, warm.ID)
	if !bytes.Equal(coldBody, warmBody) {
		t.Fatalf("warm result differs from cold run:\ncold: %s\nwarm: %s", coldBody, warmBody)
	}
	if hits := statsValue(t, ts.URL, "cache.hits"); hits < 1 {
		t.Fatalf("cache.hits = %v, want >= 1", hits)
	}
	// NoCache bypasses the warm path even for an identical cell.
	req["no_cache"] = true
	bypass := submitAndWait(t, ts.URL, req)
	if bypass.Cached {
		t.Fatalf("no_cache run served from cache: %+v", bypass)
	}
}

// TestResultCarriesReadings holds a result body's dump to readings: every
// record holds exactly "path" and "value", and "volatile" only when true,
// and the records are, in order, those of the same cell run in process
// through BuildEngine, with equal values except on volatile records.
func TestResultCarriesReadings(t *testing.T) {
	srv, ts := newTestServer(t, service.Config{})
	register(t, ts.URL, "g", buildCSR(t, 1500))
	entry, err := srv.Registry().Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	defer entry.Release()

	for _, cell := range []struct{ engine, workload string }{
		{"nova", "bfs"}, {"polygraph", "bfs"}, {"ligra", "bfs"}, {"nova", "pr"},
	} {
		t.Run(cell.engine+"/"+cell.workload, func(t *testing.T) {
			st := submitAndWait(t, ts.URL, map[string]any{"engine": cell.engine, "workload": cell.workload, "graph": "g"})
			if st.State != service.JobDone {
				t.Fatalf("job ended %s: %s", st.State, st.Error)
			}
			var body struct {
				Dump struct {
					Meta    map[string]string `json:"meta"`
					Records []json.RawMessage `json:"records"`
				} `json:"dump"`
			}
			if err := json.Unmarshal(fetchResult(t, ts.URL, st.ID), &body); err != nil {
				t.Fatal(err)
			}

			eng, err := service.BuildEngine(&service.JobRequest{Engine: cell.engine, Workload: cell.workload}, nil)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := eng.RunWorkload(context.Background(),
				harness.Workload{Name: cell.workload, G: entry.Graph(), Root: entry.Root()})
			if err != nil {
				t.Fatal(err)
			}
			want := rep.Dump.Records
			if len(body.Dump.Records) != len(want) {
				t.Fatalf("result holds %d records, the in-process dump %d", len(body.Dump.Records), len(want))
			}
			if !maps.Equal(body.Dump.Meta, rep.Dump.Meta) {
				t.Errorf("result meta %v, in-process %v", body.Dump.Meta, rep.Dump.Meta)
			}
			for i, raw := range body.Dump.Records {
				var keys map[string]json.RawMessage
				var r stats.Record
				if err := json.Unmarshal(raw, &keys); err != nil {
					t.Fatal(err)
				}
				if err := json.Unmarshal(raw, &r); err != nil {
					t.Fatal(err)
				}
				nkeys := 2
				if r.Volatile {
					nkeys = 3
				}
				_, hasVolatile := keys["volatile"]
				if keys["path"] == nil || keys["value"] == nil || hasVolatile != r.Volatile || len(keys) != nkeys {
					t.Fatalf("record %d is %s, want path and value, and volatile only when true", i, raw)
				}
				w := want[i]
				if r.Path != w.Path || r.Volatile != w.Volatile || !w.Volatile && r.Value != w.Value {
					t.Fatalf("record %d: %s = %v (volatile %v), in-process %s = %v (volatile %v)",
						i, r.Path, r.Value, r.Volatile, w.Path, w.Value, w.Volatile)
				}
			}
		})
	}
}

func TestConcurrentClientsShareMappedGraph(t *testing.T) {
	_, ts := newTestServer(t, service.Config{Backlog: 256})
	register(t, ts.URL, "g", buildCSR(t, 2000))

	const clients = 50
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			engine := []string{"nova", "polygraph", "ligra"}[c%3]
			workload := []string{"bfs", "pr"}[c%2]
			st := submitAndWait(t, ts.URL, map[string]any{
				"engine": engine, "workload": workload, "graph": "g",
			})
			if st.State != service.JobDone {
				errs <- fmt.Errorf("client %d: job %s ended %s: %s", c, st.ID, st.State, st.Error)
				return
			}
			fetchResult(t, ts.URL, st.ID)
			errs <- nil
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	// Every job released its reference.
	var list struct{ Graphs []service.GraphInfo }
	getJSON(t, ts.URL+"/graphs", &list)
	if len(list.Graphs) != 1 || list.Graphs[0].InFlight != 0 {
		t.Fatalf("registry after run: %+v", list.Graphs)
	}
}

func TestCancelledJobReturnsPartial(t *testing.T) {
	_, ts := newTestServer(t, service.Config{})
	register(t, ts.URL, "g", buildCSR(t, 4000))

	// A long PageRank gives the cancel plenty of runway.
	resp, body := postJSON(t, ts.URL+"/jobs", map[string]any{
		"engine": "nova", "workload": "pr", "graph": "g",
		"pr_iters": 5000, "no_cache": true,
	})
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: HTTP %d: %s", resp.StatusCode, body)
	}
	var st service.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	// Wait until the simulation is demonstrably running (beats moving).
	deadline := time.Now().Add(30 * time.Second)
	for st.State == service.JobQueued || st.Beats == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("job never started: %+v", st)
		}
		if st.State == service.JobDone || st.State == service.JobFailed {
			t.Fatalf("job finished before cancel: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
		getJSON(t, ts.URL+"/jobs/"+st.ID, &st)
	}
	cresp, cbody := postJSON(t, ts.URL+"/jobs/"+st.ID+"/cancel", nil)
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: HTTP %d: %s", cresp.StatusCode, cbody)
	}
	for st.State == service.JobQueued || st.State == service.JobRunning {
		if time.Now().After(deadline) {
			t.Fatalf("job did not stop after cancel: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
		getJSON(t, ts.URL+"/jobs/"+st.ID, &st)
	}
	if st.State != service.JobDone || !st.Partial || st.StopReason != "cancelled" {
		t.Fatalf("cancelled job: %+v, want done/partial/cancelled", st)
	}
	var res struct {
		Partial    bool   `json:"partial"`
		StopReason string `json:"stop_reason"`
	}
	if err := json.Unmarshal(fetchResult(t, ts.URL, st.ID), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Partial || res.StopReason != "cancelled" {
		t.Fatalf("result: %+v, want partial/cancelled", res)
	}
}

func TestBudgetPartialNotCached(t *testing.T) {
	_, ts := newTestServer(t, service.Config{})
	register(t, ts.URL, "g", buildCSR(t, 2000))

	req := map[string]any{
		"engine": "nova", "workload": "pr", "graph": "g", "max_events": 256,
	}
	first := submitAndWait(t, ts.URL, req)
	if first.State != service.JobDone || !first.Partial || first.StopReason != "budget" {
		t.Fatalf("budget-capped job: %+v, want done/partial/budget", first)
	}
	// Partial results must never be cached: the identical resubmit runs
	// again instead of hitting.
	second := submitAndWait(t, ts.URL, req)
	if second.Cached {
		t.Fatalf("partial result was served from cache: %+v", second)
	}
}

func TestChaosWrappedEngine(t *testing.T) {
	srv, ts := newTestServer(t, service.Config{})
	// Wrap the stock builder so every served engine runs inside a chaos
	// cell with a tiny event budget — the service must surface the fault
	// as an ordinary partial result, not an error.
	srv.SetEngineBuilder(func(req *service.JobRequest, obs *sim.Interrupt) (harness.Engine, error) {
		inner, err := service.BuildEngine(req, obs)
		if err != nil {
			return nil, err
		}
		return &chaos.Engine{Inner: inner, Fault: chaos.Budget}, nil
	})
	register(t, ts.URL, "g", buildCSR(t, 1000))

	st := submitAndWait(t, ts.URL, map[string]any{
		"engine": "nova", "workload": "bfs", "graph": "g",
	})
	if st.State != service.JobDone || !st.Partial || st.StopReason != "budget" {
		t.Fatalf("chaos-wrapped job: %+v, want done/partial/budget", st)
	}
}

// blockEngine runs until released (or cancelled) — the backpressure tests
// need a job that stays running on command.
type blockEngine struct {
	started chan struct{}
	release chan struct{}
}

func (e *blockEngine) Name() string        { return "block" }
func (e *blockEngine) Fingerprint() string { return "block" }

func (e *blockEngine) RunWorkload(ctx context.Context, w harness.Workload) (*harness.Report, error) {
	select {
	case e.started <- struct{}{}:
	default:
	}
	select {
	case <-e.release:
		return &harness.Report{Engine: "block", Fingerprint: "block", Workload: w.Name}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func TestQueueBackpressure503(t *testing.T) {
	srv, ts := newTestServer(t, service.Config{Workers: 1, Backlog: 1})
	be := &blockEngine{started: make(chan struct{}, 1), release: make(chan struct{})}
	defer close(be.release)
	srv.SetEngineBuilder(func(req *service.JobRequest, obs *sim.Interrupt) (harness.Engine, error) {
		return be, nil
	})
	register(t, ts.URL, "g", buildCSR(t, 200))

	submit := func(i int) (*http.Response, []byte) {
		return postJSON(t, ts.URL+"/jobs", map[string]any{
			"engine": "nova", "workload": "bfs", "graph": "g", "no_cache": true,
			"root": i, // distinct cells so nothing collides in the cache
		})
	}
	r1, b1 := submit(1)
	if r1.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: HTTP %d: %s", r1.StatusCode, b1)
	}
	<-be.started // the worker is now occupied
	r2, b2 := submit(2)
	if r2.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: HTTP %d: %s", r2.StatusCode, b2)
	}
	// Worker busy + backlog full: the third submission must be shed.
	deadline := time.Now().Add(10 * time.Second)
	for {
		r3, b3 := submit(3)
		if r3.StatusCode == http.StatusServiceUnavailable {
			break
		}
		// The second job may not have reached the queue yet; retry briefly.
		if time.Now().After(deadline) {
			t.Fatalf("third submit: HTTP %d: %s, want 503", r3.StatusCode, b3)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, service.Config{})
	register(t, ts.URL, "g", buildCSR(t, 200))

	job := func(engine string, block map[string]any) map[string]any {
		req := map[string]any{"engine": engine, "workload": "bfs", "graph": "g"}
		if block != nil {
			req[engine] = block
		}
		return req
	}
	cases := []struct {
		name string
		req  map[string]any
		want int
	}{
		{"unknown engine", map[string]any{"engine": "gpu", "workload": "bfs", "graph": "g"}, http.StatusBadRequest},
		{"unknown workload", map[string]any{"engine": "nova", "workload": "dijkstra", "graph": "g"}, http.StatusBadRequest},
		{"unregistered graph", map[string]any{"engine": "nova", "workload": "bfs", "graph": "missing"}, http.StatusNotFound},
		// Known engines and workloads that the engine does not run.
		{"prdelta on ligra", map[string]any{"engine": "ligra", "workload": "prdelta", "graph": "g"}, http.StatusBadRequest},
		{"prdelta on polygraph", map[string]any{"engine": "polygraph", "workload": "prdelta", "graph": "g"}, http.StatusBadRequest},
		{"pr on extmem", map[string]any{"engine": "extmem", "workload": "pr", "graph": "g"}, http.StatusBadRequest},
		{"bc on extmem", map[string]any{"engine": "extmem", "workload": "bc", "graph": "g"}, http.StatusBadRequest},
		{"unknown field", map[string]any{"engine": "nova", "workload": "bfs", "graph": "g", "bogus": 1}, http.StatusBadRequest},
		// A root that names no vertex of the 200-vertex graph, and a
		// negative timeout, which no rule maps to a bound.
		{"root at the vertex count", map[string]any{"engine": "nova", "workload": "bfs", "graph": "g", "root": 200}, http.StatusBadRequest},
		{"root past the vertex count", map[string]any{"engine": "ligra", "workload": "sssp", "graph": "g", "root": 1000000}, http.StatusBadRequest},
		{"negative timeout_ms", map[string]any{"engine": "nova", "workload": "bfs", "graph": "g", "timeout_ms": -1}, http.StatusBadRequest},
		// Unknown keys inside a block, including the Go-only json:"-" fields.
		{"unknown nova field", job("nova", map[string]any{"bogus": 1}), http.StatusBadRequest},
		{"nova observer", job("nova", map[string]any{"observer": nil}), http.StatusBadRequest},
		{"nova stall_timeout", job("nova", map[string]any{"stall_timeout": 1}), http.StatusBadRequest},
		{"extmem max_rounds", job("extmem", map[string]any{"max_rounds": 1}), http.StatusBadRequest},
		// Malformed values no longer fall back to the defaults.
		{"negative gpns", job("nova", map[string]any{"gpns": -4}), http.StatusBadRequest},
		{"negative pes_per_gpn", job("nova", map[string]any{"pes_per_gpn": -3}), http.StatusBadRequest},
		{"ssd_preset without out_of_core", job("nova", map[string]any{"ssd_preset": "sata"}), http.StatusBadRequest},
		// The crossbar is the only inter-GPN topology.
		{"removed ring topology", job("nova", map[string]any{"topology": "ring"}), http.StatusBadRequest},
		// The coalescing buffer's capacity is the fabric's constant, not a key.
		{"removed coalesce_capacity", job("nova", map[string]any{"coalesce_window": 16, "coalesce_capacity": 8}), http.StatusBadRequest},
		{"negative extmem ram_bytes", job("extmem", map[string]any{"ram_bytes": -1}), http.StatusBadRequest},
		{"negative polygraph onchip_bytes", job("polygraph", map[string]any{"onchip_bytes": -1}), http.StatusBadRequest},
		{"negative polygraph force_slices", job("polygraph", map[string]any{"force_slices": -2}), http.StatusBadRequest},
		{"negative ligra threads", job("ligra", map[string]any{"threads": -1}), http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, body := postJSON(t, ts.URL+"/jobs", c.req)
		if resp.StatusCode != c.want {
			t.Errorf("%s: HTTP %d (%s), want %d", c.name, resp.StatusCode, body, c.want)
		}
	}
	// A body must be one JSON value of at most 1 MiB, whitespace around
	// it aside.
	valid := `{"engine":"nova","workload":"bfs","graph":"g"}`
	for _, c := range []struct {
		name, body string
		want       int
	}{
		{"a second object after the first", valid + `{"engine":"ligra"}`, http.StatusBadRequest},
		{"trailing bytes", valid + ` x`, http.StatusBadRequest},
		{"a valid object behind 1 MiB of whitespace", strings.Repeat(" ", 1<<20) + valid, http.StatusBadRequest},
		{"a trailing newline", valid + "\n", http.StatusAccepted},
	} {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.want && !(c.want == http.StatusAccepted && resp.StatusCode == http.StatusOK) {
			t.Errorf("%s: HTTP %d (%s), want %d", c.name, resp.StatusCode, body, c.want)
		}
	}
	if code := getJSON(t, ts.URL+"/jobs/j-999999", nil); code != http.StatusNotFound {
		t.Errorf("unknown job: HTTP %d, want 404", code)
	}

	// superblock_dim reaches the engine: accepted, and keyed apart from
	// the default configuration.
	fingerprint := func(req map[string]any) string {
		st := submitAndWait(t, ts.URL, req)
		var res service.JobResult
		if err := json.Unmarshal(fetchResult(t, ts.URL, st.ID), &res); err != nil {
			t.Fatal(err)
		}
		return res.Fingerprint
	}
	if def, sb := fingerprint(job("nova", nil)), fingerprint(job("nova", map[string]any{"superblock_dim": 64})); def == sb {
		t.Errorf("superblock_dim 64 shares the default fingerprint %s", def)
	}
	// Spelling out a default is the same cell as omitting it.
	if st := submitAndWait(t, ts.URL, job("nova", map[string]any{"topology": "crossbar"})); !st.Cached {
		t.Errorf("explicit default topology missed the cache: %+v", st)
	}
}

func TestStreamEndpoint(t *testing.T) {
	_, ts := newTestServer(t, service.Config{})
	register(t, ts.URL, "g", buildCSR(t, 1500))

	resp, body := postJSON(t, ts.URL+"/jobs", map[string]any{
		"engine": "nova", "workload": "pr", "graph": "g", "pr_iters": 50, "no_cache": true,
	})
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: HTTP %d: %s", resp.StatusCode, body)
	}
	var st service.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"5abc", "0", "-5", "9223372036854775807"} {
		if code := getJSON(t, ts.URL+"/jobs/"+st.ID+"/stream?interval_ms="+v, nil); code != http.StatusBadRequest {
			t.Errorf("interval_ms=%s: HTTP %d, want 400", v, code)
		}
	}
	sresp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/stream?interval_ms=10")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if ct := sresp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	dec := json.NewDecoder(sresp.Body)
	lines := 0
	var last service.JobStatus
	for dec.More() {
		if err := dec.Decode(&last); err != nil {
			t.Fatal(err)
		}
		lines++
	}
	if lines < 1 {
		t.Fatal("stream produced no lines")
	}
	if last.State != service.JobDone {
		t.Fatalf("final stream line: %+v, want done", last)
	}
}

func TestStatsEndpointFormats(t *testing.T) {
	_, ts := newTestServer(t, service.Config{})
	for _, format := range []string{"", "?format=text", "?format=csv"} {
		if code := getJSON(t, ts.URL+"/statsz"+format, nil); code != http.StatusOK {
			t.Fatalf("statsz%s: HTTP %d", format, code)
		}
	}
	if code := getJSON(t, ts.URL+"/statsz?format=yaml", nil); code != http.StatusBadRequest {
		t.Fatal("statsz should reject unknown formats")
	}
}

// TestDoneJobHasReleasedItsGraph pins the order of a job's last steps: a
// client that sees its job done, by polling or on the stream, must find
// the job's graph reference already released. Each client runs its jobs
// one after another on a graph of its own, so any in_flight it reads
// right after done, with no sleep, is a reference the finished job kept.
func TestDoneJobHasReleasedItsGraph(t *testing.T) {
	_, ts := newTestServer(t, service.Config{Workers: 4, Backlog: 64})
	const clients, jobs = 4, 5
	for c := 0; c < clients; c++ {
		register(t, ts.URL, fmt.Sprintf("g%d", c), buildCSR(t, 2000))
	}
	// The clients run on their own goroutines, so they report failures
	// with t.Error through these error-returning helpers.
	decode := func(resp *http.Response, err error, v any) error {
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode >= 300 {
			return fmt.Errorf("%s: HTTP %d", resp.Request.URL, resp.StatusCode)
		}
		return json.NewDecoder(resp.Body).Decode(v)
	}
	inFlight := func(name string) (int, error) {
		var list struct{ Graphs []service.GraphInfo }
		resp, err := http.Get(ts.URL + "/graphs")
		if err := decode(resp, err, &list); err != nil {
			return 0, err
		}
		for _, g := range list.Graphs {
			if g.Name == name {
				return g.InFlight, nil
			}
		}
		return 0, fmt.Errorf("graph %s not listed", name)
	}
	terminal := func(s service.JobState) bool { return s != service.JobQueued && s != service.JobRunning }
	client := func(name string, i int) error {
		body, _ := json.Marshal(map[string]any{"engine": "nova", "workload": "bfs", "graph": name, "no_cache": true})
		var st service.JobStatus
		resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err := decode(resp, err, &st); err != nil {
			return err
		}
		if i%2 == 0 {
			// Poll the status with no sleep between reads.
			for !terminal(st.State) {
				resp, err := http.Get(ts.URL + "/jobs/" + st.ID)
				if err := decode(resp, err, &st); err != nil {
					return err
				}
			}
		} else if !terminal(st.State) {
			// Read the stream up to its terminal line.
			resp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/stream?interval_ms=1")
			if err != nil {
				return err
			}
			dec := json.NewDecoder(resp.Body)
			for !terminal(st.State) && dec.Decode(&st) == nil {
			}
			resp.Body.Close()
		}
		if st.State != service.JobDone {
			return fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
		}
		if n, err := inFlight(name); err != nil || n != 0 {
			return fmt.Errorf("job %s reported %s with its graph still held: in_flight %d (%v)", st.ID, st.State, n, err)
		}
		return nil
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < jobs; i++ {
				if err := client(fmt.Sprintf("g%d", c), i); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
