package chaos_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"
	"time"

	"nova"
	"nova/graph"
	"nova/internal/chaos"
	"nova/internal/harness"
	"nova/internal/sim"
)

// chaosSeed returns the randomized seed for a chaos run, honoring the
// CHAOS_SEED environment variable so a failing CI round reproduces
// exactly from its logged seed.
func chaosSeed(t *testing.T) int64 {
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		seed, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED=%q: %v", s, err)
		}
		return seed
	}
	return time.Now().UnixNano()
}

// cellKey fingerprints the deterministic portion of a report: everything
// the simulated engines promise bit-identical, and everything except
// wall-clock time for the ligra backend (its SimSeconds is host timing).
func cellKey(rep *harness.Report) string {
	key := fmt.Sprintf("edges=%d msgs=%d coal=%d epochs=%d",
		rep.Stats.EdgesTraversed, rep.Stats.MessagesSent,
		rep.Stats.MessagesCoalesced, rep.Stats.Epochs)
	if rep.Engine != "ligra" {
		key += fmt.Sprintf(" sim=%.12g", rep.Stats.SimSeconds)
	}
	for _, p := range rep.Props {
		key += fmt.Sprintf(",%d", p)
	}
	for _, s := range rep.Scores {
		key += fmt.Sprintf(",%.12g", s)
	}
	return key
}

// chaosCell is one (engine, workload) grid position.
type chaosCell struct {
	name string
	eng  harness.Engine
	w    harness.Workload
}

func buildGrid(t *testing.T) []chaosCell {
	t.Helper()
	g := graph.GenUniform("chaos", 400, 4, 8, 7)
	sym := g.Symmetrize()
	root := g.LargestOutDegreeVertex()

	acc, err := nova.New(nova.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	engines := []harness.Engine{
		acc.Engine(),
		(&nova.PolyGraphBaseline{}).Engine(),
		(&nova.Software{Threads: 1}).Engine(),
	}
	var cells []chaosCell
	for _, eng := range engines {
		for _, w := range []string{"bfs", "sssp", "cc", "pr"} {
			wg := g
			if w == "cc" {
				wg = sym
			}
			cells = append(cells, chaosCell{
				name: eng.Name() + "/" + w,
				eng:  eng,
				w:    harness.Workload{Name: w, G: wg, Root: root, PRIters: 3},
			})
		}
	}
	// Sharded multi-GPN crossbar cells with the in-fabric coalescing
	// stage armed: faults must surface as typed errors and leave siblings
	// bit-identical across the cross-shard fabric.
	cfg := nova.DefaultConfig()
	cfg.GPNs = 4
	cfg.PEsPerGPN = 2
	cfg.Shards = 2
	cfg.CoalesceWindow = 16
	xacc, err := nova.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"sssp", "cc"} {
		wg := g
		if w == "cc" {
			wg = sym
		}
		cells = append(cells, chaosCell{
			name: "nova-crossbar/" + w,
			eng:  xacc.Engine(),
			w:    harness.Workload{Name: w, G: wg, Root: root},
		})
	}
	return cells
}

// faultSentinel maps each fault to the sentinel its cell error must match.
func faultSentinel(f chaos.Fault) error {
	switch f {
	case chaos.Panic:
		return chaos.ErrInjectedPanic
	case chaos.Stall:
		return sim.ErrStalled
	case chaos.Budget:
		return sim.ErrMaxEvents
	case chaos.Cancel:
		return context.Canceled
	case chaos.Corrupt:
		return graph.ErrCorrupt
	default:
		return nil
	}
}

// TestChaosSweep is the randomized fault-injection gate: across enough
// rounds to exceed 100 injections, every injected fault must surface as
// a typed error on its own cell, sibling cells must complete with
// results bit-identical to the unfaulted baseline, and no fault may
// panic the sweep (the pool's isolation is itself under test — an
// escaped panic fails the whole test binary).
func TestChaosSweep(t *testing.T) {
	seed := chaosSeed(t)
	t.Logf("chaos seed %d (run with CHAOS_SEED=%d to reproduce)", seed, seed)
	rng := rand.New(rand.NewSource(seed))

	cells := buildGrid(t)
	pool := &harness.Pool{Workers: 4}

	// Unfaulted baseline: the determinism reference for sibling cells.
	baseline := make([]string, len(cells))
	base := harness.Map(context.Background(), pool, baselineJobs(cells))
	for i, r := range base {
		if r.Err != nil {
			t.Fatalf("baseline %s: %v", cells[i].name, r.Err)
		}
		baseline[i] = cellKey(r.Value)
	}

	// Budget exhaustion only works on engines that honor
	// Workload.MaxEvents — the NOVA adapter.
	faultsFor := func(i int) []chaos.Fault {
		fs := []chaos.Fault{chaos.Panic, chaos.Stall, chaos.Cancel, chaos.Corrupt}
		if cells[i].eng.Name() == "nova" {
			fs = append(fs, chaos.Budget)
		}
		return fs
	}

	const (
		rounds         = 18
		faultsPerRound = 6
		wantInjections = 100
	)
	injected := 0
	for round := 0; round < rounds; round++ {
		// Pick distinct victim cells and a random fault for each.
		victims := rng.Perm(len(cells))[:faultsPerRound]
		faults := make(map[int]chaos.Fault, faultsPerRound)
		for _, v := range victims {
			fs := faultsFor(v)
			faults[v] = fs[rng.Intn(len(fs))]
		}

		jobs := make([]harness.Job[*harness.Report], len(cells))
		for i, c := range cells {
			eng := c.eng
			if f, ok := faults[i]; ok {
				eng = &chaos.Engine{Inner: c.eng, Fault: f, Seed: rng.Int63()}
			}
			eng, w := eng, c.w
			jobs[i] = harness.Job[*harness.Report]{
				Name: c.name,
				Run: func(ctx context.Context) (*harness.Report, error) {
					return eng.RunWorkload(ctx, w)
				},
			}
		}
		results := harness.Map(context.Background(), pool, jobs)

		for i, r := range results {
			f, faulted := faults[i]
			if !faulted {
				if r.Err != nil {
					t.Fatalf("round %d: unfaulted %s failed: %v", round, cells[i].name, r.Err)
				}
				if got := cellKey(r.Value); got != baseline[i] {
					t.Fatalf("round %d: unfaulted %s diverged from baseline:\n got %s\nwant %s",
						round, cells[i].name, got, baseline[i])
				}
				continue
			}
			injected++
			sentinel := faultSentinel(f)
			if r.Err == nil {
				t.Fatalf("round %d: %s fault on %s produced no error", round, f, cells[i].name)
			}
			if !errors.Is(r.Err, sentinel) {
				t.Fatalf("round %d: %s fault on %s: error not typed %v: %v",
					round, f, cells[i].name, sentinel, r.Err)
			}
			if f == chaos.Budget {
				// Budget exhaustion is a cooperative stop: the partial
				// report must come back alongside the typed error.
				if r.Value == nil || !r.Value.Partial || r.Value.StopReason != "budget" {
					t.Fatalf("round %d: budget fault on %s: no salvaged partial report (%+v)",
						round, cells[i].name, r.Value)
				}
			}
		}
	}
	if injected < wantInjections {
		t.Fatalf("injected %d faults, want >= %d", injected, wantInjections)
	}
	t.Logf("injected %d faults across %d rounds, all typed, siblings bit-identical", injected, rounds)
}

func baselineJobs(cells []chaosCell) []harness.Job[*harness.Report] {
	jobs := make([]harness.Job[*harness.Report], len(cells))
	for i, c := range cells {
		eng, w := c.eng, c.w
		jobs[i] = harness.Job[*harness.Report]{
			Name: c.name,
			Run: func(ctx context.Context) (*harness.Report, error) {
				return eng.RunWorkload(ctx, w)
			},
		}
	}
	return jobs
}

// TestChaosFingerprint pins the fingerprint contract: a faulted engine
// must never report a fingerprint comparable to its clean inner engine.
func TestChaosFingerprint(t *testing.T) {
	acc, err := nova.New(nova.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	inner := acc.Engine()
	ce := &chaos.Engine{Inner: inner, Fault: chaos.Stall}
	if ce.Fingerprint() == inner.Fingerprint() {
		t.Fatal("chaos engine fingerprint matches inner engine")
	}
	if ce.Name() != inner.Name() {
		t.Fatalf("chaos engine name %q, want %q", ce.Name(), inner.Name())
	}
}

// TestChaosCorruptDetects pins the Corrupt fault in isolation: for many
// seeds, a single flipped bit anywhere in the container must be rejected
// with the typed graph.ErrCorrupt.
func TestChaosCorruptDetects(t *testing.T) {
	g := graph.GenUniform("corrupt", 120, 4, 8, 3)
	for seedOffset := int64(0); seedOffset < 25; seedOffset++ {
		ce := &chaos.Engine{Fault: chaos.Corrupt, Dir: t.TempDir(), Seed: 1000 + seedOffset}
		_, err := ce.RunWorkload(context.Background(), harness.Workload{Name: "bfs", G: g})
		if err == nil {
			t.Fatalf("seed %d: corrupted container accepted", 1000+seedOffset)
		}
		if !errors.Is(err, graph.ErrCorrupt) {
			t.Fatalf("seed %d: error not typed graph.ErrCorrupt: %v", 1000+seedOffset, err)
		}
	}
}

// TestChaosStallTripsWatchdog pins the Stall fault in isolation: the
// wall-clock watchdog must trip with sim.ErrStalled even though the
// stalled handler never advances simulated time.
func TestChaosStallTripsWatchdog(t *testing.T) {
	ce := &chaos.Engine{Fault: chaos.Stall, StallInterval: 10 * time.Millisecond}
	start := time.Now()
	_, err := ce.RunWorkload(context.Background(), harness.Workload{})
	if !errors.Is(err, sim.ErrStalled) {
		t.Fatalf("stall fault returned %v, want sim.ErrStalled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("stall detection took %v", elapsed)
	}
}
