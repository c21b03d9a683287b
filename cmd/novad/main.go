// Command novad serves the simulator over HTTP: a graph registry of
// mmap-shared .csr containers, a job scheduler over the harness pool,
// and a fingerprint-keyed result cache that serves warm identical sweep
// cells without simulating. See API.md for the endpoint reference and
// DESIGN.md §17 for the architecture.
//
// Serve (the default mode):
//
//	novad -addr :8314 -graph twitter=data/twitter.csr -graph road=data/road.csr
//
// Load test — replay an engine×workload grid from N concurrent clients
// and report the failure count, throughput and cache-hit rate; any failed
// request, or a hit rate under -min-hit-rate, exits nonzero:
//
//	novad loadtest -clients 50 -rounds 4
//
// With -addr empty, loadtest boots an in-process server on a loopback
// listener (generating a medium uniform graph if -csr is not given), so
// the whole flow needs no prior setup.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"nova/graph"
	"nova/internal/service"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "loadtest":
			if err := loadtest(os.Args[2:]); err != nil {
				fmt.Fprintln(os.Stderr, "novad loadtest:", err)
				os.Exit(1)
			}
			return
		}
	}
	if err := serve(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "novad:", err)
		os.Exit(1)
	}
}

// graphFlags collects repeated -graph name=path registrations.
type graphFlags []struct{ name, path string }

func (g *graphFlags) String() string { return fmt.Sprintf("%d graphs", len(*g)) }

func (g *graphFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path, got %q", v)
	}
	*g = append(*g, struct{ name, path string }{name, path})
	return nil
}

func serve(args []string) error {
	fs := flag.NewFlagSet("novad", flag.ExitOnError)
	addr := fs.String("addr", ":8314", "listen address")
	workers := fs.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
	backlog := fs.Int("backlog", 64, "queued-job backlog before submissions get 503")
	timeout := fs.Duration("timeout", 0, "default per-job wall-clock budget (0 = unbounded)")
	cacheEntries := fs.Int("cache-entries", 256, "result-cache entry budget")
	var graphs graphFlags
	fs.Var(&graphs, "graph", "register name=path at boot (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	srv := service.NewServer(service.Config{
		Workers:        *workers,
		Backlog:        *backlog,
		DefaultTimeout: *timeout,
		CacheEntries:   *cacheEntries,
	})
	defer srv.Close()
	for _, g := range graphs {
		info, err := srv.Registry().Register(g.name, g.path)
		if err != nil {
			return fmt.Errorf("registering %s: %w", g.name, err)
		}
		fmt.Printf("registered %s: |V|=%d |E|=%d hash=%s mapped=%v\n",
			info.Name, info.Vertices, info.Edges, info.ContentHash, info.Mapped)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	fmt.Printf("novad listening on %s\n", ln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case s := <-sig:
		fmt.Printf("novad: %v, shutting down\n", s)
		_ = httpSrv.Close()
		return nil
	}
}

// cell is one grid coordinate the load test replays.
type cell struct {
	Engine   string
	Workload string
}

func loadtest(args []string) error {
	fs := flag.NewFlagSet("novad loadtest", flag.ExitOnError)
	addr := fs.String("addr", "", "target daemon (empty = boot an in-process server)")
	clients := fs.Int("clients", 50, "concurrent clients")
	rounds := fs.Int("rounds", 4, "grid replays per client (identical rounds exercise the cache)")
	graphName := fs.String("graph", "bench", "registered graph name the jobs target")
	csr := fs.String("csr", "", "graph container to serve (empty = generate a uniform graph)")
	vertices := fs.Int("vertices", 20000, "generated-graph vertex count (with empty -csr)")
	degree := fs.Float64("degree", 8, "generated-graph average degree (with empty -csr)")
	engines := fs.String("engines", "nova,polygraph,ligra", "comma-separated engine list")
	workloads := fs.String("workloads", "bfs,sssp,pr", "comma-separated workload list")
	timeoutMS := fs.Int64("timeout-ms", 120_000, "per-job timeout sent with every request")
	minHitRate := fs.Float64("min-hit-rate", 0, "fail unless the cache-hit rate reaches this fraction (CI gates warm rounds with it)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Reject a run that would test nothing before any graph or server is
	// built.
	if *clients < 1 {
		return fmt.Errorf("-clients %d: need at least 1", *clients)
	}
	if *rounds < 1 {
		return fmt.Errorf("-rounds %d: need at least 1", *rounds)
	}
	engineNames, err := splitNames("-engines", *engines)
	if err != nil {
		return err
	}
	workloadNames, err := splitNames("-workloads", *workloads)
	if err != nil {
		return err
	}
	var grid []cell
	for _, e := range engineNames {
		for _, w := range workloadNames {
			grid = append(grid, cell{e, w})
		}
	}

	base := *addr
	if base == "" {
		srv := service.NewServer(service.Config{Backlog: *clients * 2})
		defer srv.Close()
		path := *csr
		if path == "" {
			dir, err := os.MkdirTemp("", "novad-loadtest")
			if err != nil {
				return err
			}
			defer os.RemoveAll(dir)
			path = filepath.Join(dir, "bench.csr")
			st := graph.NewUniformStream("bench", *vertices, *degree, 64, 42)
			if _, err := graph.BuildCSRFile(path, st, graph.BuildOptions{}); err != nil {
				return err
			}
		}
		if _, err := srv.Registry().Register(*graphName, path); err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		httpSrv := &http.Server{Handler: srv.Handler()}
		go func() { _ = httpSrv.Serve(ln) }()
		defer httpSrv.Close()
		base = ln.Addr().String()
	}
	baseURL := "http://" + base

	// Each client owns its counters; merged after the run so the hot path
	// takes no shared locks.
	type clientStats struct {
		errors    uint64
		cacheHits uint64
		lastErr   string
	}
	perClient := make([]clientStats, *clients)
	httpc := &http.Client{Timeout: 5 * time.Minute}

	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(cs *clientStats) {
			defer wg.Done()
			for r := 0; r < *rounds; r++ {
				for _, cl := range grid {
					hit, err := runCell(httpc, baseURL, cl, *graphName, *timeoutMS)
					if err != nil {
						cs.errors++
						cs.lastErr = err.Error()
						continue
					}
					if hit {
						cs.cacheHits++
					}
				}
			}
		}(&perClient[c])
	}
	wg.Wait()
	wall := time.Since(start)

	requests := uint64(*clients * *rounds * len(grid))
	var errCount, hits uint64
	lastErr := ""
	for i := range perClient {
		errCount += perClient[i].errors
		hits += perClient[i].cacheHits
		if perClient[i].lastErr != "" {
			lastErr = perClient[i].lastErr
		}
	}
	hitRate := float64(hits) / float64(requests)
	fmt.Printf("loadtest: %d requests (%d clients × %d rounds × %d cells) in %v, %.1f req/s: %d failed, cache-hit rate %.3f\n",
		requests, *clients, *rounds, len(grid), wall.Round(time.Millisecond),
		float64(requests)/wall.Seconds(), errCount, hitRate)
	if errCount > 0 {
		return fmt.Errorf("%d/%d request(s) failed (last: %s)", errCount, requests, lastErr)
	}
	if hitRate < *minHitRate {
		return fmt.Errorf("cache-hit rate %.3f below -min-hit-rate %.3f (warm rounds must hit)", hitRate, *minHitRate)
	}
	return nil
}

// splitNames splits a comma-separated flag value, rejecting empty names.
func splitNames(flagName, list string) ([]string, error) {
	names := strings.Split(list, ",")
	for i, n := range names {
		names[i] = strings.TrimSpace(n)
		if names[i] == "" {
			return nil, fmt.Errorf("%s %q: empty name", flagName, list)
		}
	}
	return names, nil
}

// runCell submits one job and waits for its result, reporting whether the
// response was served from the cache. A job that failed, or finished
// partial, fails the request.
func runCell(c *http.Client, baseURL string, cl cell, graphName string, timeoutMS int64) (cacheHit bool, err error) {
	req := map[string]any{
		"engine":     cl.Engine,
		"workload":   cl.Workload,
		"graph":      graphName,
		"timeout_ms": timeoutMS,
	}
	body, _ := json.Marshal(req)
	resp, err := c.Post(baseURL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return false, err
	}
	var st struct {
		ID         string `json:"id"`
		State      string `json:"state"`
		Cached     bool   `json:"cached"`
		Partial    bool   `json:"partial"`
		StopReason string `json:"stop_reason"`
		Error      string `json:"error"`
	}
	if err := decodeAndClose(resp, &st); err != nil {
		return false, err
	}
	for st.State == "queued" || st.State == "running" {
		time.Sleep(5 * time.Millisecond)
		resp, err := c.Get(baseURL + "/jobs/" + st.ID)
		if err != nil {
			return false, err
		}
		if err := decodeAndClose(resp, &st); err != nil {
			return false, err
		}
	}
	if st.State != "done" {
		return false, fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
	}
	if st.Partial {
		return false, fmt.Errorf("job %s finished PARTIAL (%s)", st.ID, st.StopReason)
	}
	// Fetch the rendered result so every request exercises the full
	// read path, not just the status poll.
	resp, err = c.Get(baseURL + "/jobs/" + st.ID + "/result")
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return false, err
	}
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("result for %s: HTTP %d", st.ID, resp.StatusCode)
	}
	return st.Cached, nil
}

func decodeAndClose(resp *http.Response, v any) error {
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
