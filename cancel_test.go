package nova

import (
	"context"
	"errors"
	"testing"
	"time"

	"nova/graph"
	"nova/internal/harness"
	"nova/internal/sim"
	"nova/program"
)

// cancelTestGraph is big enough that a full PageRank run takes visibly
// longer than the timeouts below, so a cell that returns quickly did so
// because cancellation worked, not because it finished.
func cancelTestGraph() *graph.CSR {
	return graph.GenRMAT("cancel", 13, 16, graph.DefaultRMAT, 8, 5)
}

// TestRunContextCancelledReturnsPartial pins the core salvage contract:
// running under an already-cancelled context stops the simulation at its
// first poll and returns the partial report alongside context.Canceled.
func TestRunContextCancelledReturnsPartial(t *testing.T) {
	acc, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := acc.RunContext(ctx, program.NewPageRank(0.85, 50), cancelTestGraph())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep == nil {
		t.Fatal("cancelled run returned no partial report")
	}
	if !rep.Partial || rep.StopReason != string(sim.StopCancelled) {
		t.Fatalf("partial=%v reason=%q, want partial with %q", rep.Partial, rep.StopReason, sim.StopCancelled)
	}
}

// TestEngineDeadlineStopsWithinPollInterval is the acceptance gate for
// cooperative timeouts: a nova cell with a short deadline must stop
// within the pool's abandon grace (one poll interval for the engine)
// and return a salvaged partial report with the "deadline" stop reason,
// instead of running to completion or being abandoned.
func TestEngineDeadlineStopsWithinPollInterval(t *testing.T) {
	acc, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng := acc.Engine()
	w := harness.Workload{Name: "pr", G: cancelTestGraph(), PRIters: 200}

	start := time.Now()
	results := harness.Map(context.Background(), &harness.Pool{Workers: 1}, []harness.Job[*harness.Report]{{
		Name:    "deadline-cell",
		Timeout: 50 * time.Millisecond,
		Run: func(ctx context.Context) (*harness.Report, error) {
			return eng.RunWorkload(ctx, w)
		},
	}})
	elapsed := time.Since(start)

	r := results[0]
	if !errors.Is(r.Err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", r.Err)
	}
	if r.Value == nil {
		t.Fatal("timed-out cell was abandoned instead of returning its partial report")
	}
	if !r.Value.Partial || r.Value.StopReason != "deadline" {
		t.Fatalf("partial=%v reason=%q, want partial with \"deadline\"", r.Value.Partial, r.Value.StopReason)
	}
	// Timeout (50ms) + one poll interval + scheduling slack. The pool's
	// default abandon grace is 1s, so finishing well inside it proves the
	// engine stopped cooperatively rather than being abandoned.
	if elapsed > 900*time.Millisecond {
		t.Fatalf("cell took %v to observe its deadline", elapsed)
	}
}

// TestWorkloadContextBudgetPartial pins the third stop reason end to end:
// an event budget too small for the workload must surface as a partial
// report classified "budget".
func TestWorkloadContextBudgetPartial(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxEvents = 64
	acc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := acc.Engine().RunWorkload(context.Background(), harness.Workload{Name: "bfs", G: cancelTestGraph()})
	if !errors.Is(err, sim.ErrMaxEvents) {
		t.Fatalf("err = %v, want sim.ErrMaxEvents", err)
	}
	if out == nil || !out.Partial || out.StopReason != string(sim.StopBudget) {
		t.Fatalf("report %+v, want partial with %q", out, sim.StopBudget)
	}
}

// TestBCCancelledReturnsPartial covers the two-phase salvage: bc under an
// already-cancelled context stops in its forward phase and still returns
// a report, Partial with the "cancelled" stop reason, on both simulated
// engines that run it.
func TestBCCancelledReturnsPartial(t *testing.T) {
	acc, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, eng := range []harness.Engine{acc.Engine(), (&PolyGraphBaseline{}).Engine()} {
		rep, err := eng.RunWorkload(ctx, harness.Workload{Name: "bc", G: cancelTestGraph()})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", eng.Name(), err)
		}
		if rep == nil || !rep.Partial || rep.StopReason != string(sim.StopCancelled) {
			t.Fatalf("%s: report %+v, want partial with %q", eng.Name(), rep, sim.StopCancelled)
		}
		if rep.Engine != eng.Name() || rep.Workload != "bc" {
			t.Fatalf("%s: partial report mislabeled %q/%q", eng.Name(), rep.Engine, rep.Workload)
		}
	}
}

// TestSoftwareRunWorkloadContextCancel covers the ligra engine's
// cooperative stop: cancellation between edgeMap iterations returns the
// partial report with the iterations completed so far.
func TestSoftwareRunWorkloadContextCancel(t *testing.T) {
	g := cancelTestGraph()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := (&Software{Threads: 1}).Engine().RunWorkload(ctx, harness.Workload{Name: "pr", G: g, PRIters: 50})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep == nil || !rep.Partial || rep.StopReason != string(sim.StopCancelled) {
		t.Fatalf("report %+v, want partial with %q", rep, sim.StopCancelled)
	}
	if it := rep.Metric(MetricIterations); it >= 50 {
		t.Fatalf("cancelled run completed all %v iterations", it)
	}
}

// TestPolyGraphRunContextCancel covers the polygraph backend's
// cooperative stop between rounds and slice activations.
func TestPolyGraphRunContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := (&PolyGraphBaseline{}).RunContext(ctx, program.NewPageRank(0.85, 50), cancelTestGraph())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep == nil || !rep.Partial || rep.StopReason != string(sim.StopCancelled) {
		t.Fatalf("report %+v, want partial with %q", rep, sim.StopCancelled)
	}
}
