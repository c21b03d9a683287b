// Package golden builds the deterministic statistics dump that the
// golden regression test, cmd/goldendump, and the CI statdiff step all
// share. It runs the same three cells TestKernelDeterminismGolden pins
// (nova/sssp, polygraph/bfs, ligra/bfs on the 2048-vertex golden RMAT
// graph) and merges their dumps under engine prefixes. The metadata
// carries no timestamps, so two dumps from the same build compare equal
// record for record.
package golden

import (
	"context"

	"nova"
	"nova/graph"
	"nova/internal/ligra"
	"nova/internal/stats"
	"nova/program"
)

// BuildDump runs the three determinism cells and returns the merged
// dump. Volatile records (ligra wall-clock) are still present; consumers
// that want reproducibility compare only non-volatile records, which is
// what stats.Diff does by default.
func BuildDump() (*stats.Dump, error) {
	g := graph.GenRMATN("golden", 2048, 8, graph.DefaultRMAT, 64, 7)
	root := g.LargestOutDegreeVertex()

	cfg := nova.DefaultConfig()
	cfg.CacheBytesPerPE = 8 << 10
	cfg.Seed = 3
	acc, err := nova.New(cfg)
	if err != nil {
		return nil, err
	}
	novaRep, err := acc.RunContext(context.Background(), program.NewSSSP(root), g)
	if err != nil {
		return nil, err
	}

	pg := &nova.PolyGraphBaseline{OnChipBytes: 2048}
	pgRep, err := pg.RunContext(context.Background(), program.NewBFS(root), g)
	if err != nil {
		return nil, err
	}

	// Single thread keeps the atomics-based engine's traversal counts
	// schedule-independent (matching the determinism test cell).
	lg := &ligra.Engine{Threads: 1, Threshold: 20}
	_, res := lg.BFS(g, g.Transpose(), root)
	ligraDump := lg.StatsDump(res, map[string]string{
		"engine":   "ligra",
		"workload": "bfs",
		"graph":    g.Name,
	})

	return stats.Merge(map[string]string{
		"graph": g.Name,
		"cells": "nova/sssp polygraph/bfs ligra/bfs",
	},
		novaRep.Dump.Prefixed("nova"),
		pgRep.Dump.Prefixed("polygraph"),
		ligraDump.Prefixed("ligra"),
	), nil
}
