package exp

import (
	"fmt"
	"sync"

	"nova"
	"nova/graph"
)

// Scale shrinks the dataset registry so experiments fit any time budget:
// Full is the DESIGN.md registry (slice counts match the paper's
// Table III exactly), Medium divides vertex counts by 4, Small by 16.
// Large is the spill-stress tier: divisor-2 graphs built through the
// constant-memory streaming generators, paired with a NOVA configuration
// whose active buffers are an order of magnitude under the active-set
// sizes, so the VMU spill/recovery and superblock-tracker paths dominate.
type Scale int

const (
	// Small is the test/bench scale (seconds).
	Small Scale = iota
	// Medium is a minutes-scale sweep.
	Medium
	// Full is the complete scaled registry (tens of minutes).
	Full
	// Large is the spill-stress tier (streaming-built graphs, shrunken
	// active buffers).
	Large
)

// ParseScale maps flag values to scales.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "small":
		return Small, nil
	case "medium":
		return Medium, nil
	case "full":
		return Full, nil
	case "large":
		return Large, nil
	default:
		return Small, fmt.Errorf("exp: unknown scale %q (small|medium|full|large)", s)
	}
}

func (s Scale) String() string {
	switch s {
	case Small:
		return "small"
	case Medium:
		return "medium"
	case Large:
		return "large"
	default:
		return "full"
	}
}

// divisor returns the vertex-count divisor.
func (s Scale) divisor() int {
	switch s {
	case Small:
		return 16
	case Medium:
		return 4
	case Large:
		return 2
	default:
		return 1
	}
}

// PolyGraphOnChip returns the scaled scratchpad capacity calibrated so
// that ceil(4·V/cap) reproduces Table III's slice counts (3/5/8/13/16)
// for the five datasets at every scale.
func (s Scale) PolyGraphOnChip() int64 { return 129200 / int64(s.divisor()) }

// CacheBytesPerPE returns the scaled MPU cache so the cache:vertex-set
// ratio stays far below 1, as in the paper.
func (s Scale) CacheBytesPerPE() int {
	switch s {
	case Small:
		return 512
	case Medium:
		return 1 << 10
	default: // Full and Large share the cache sizing.
		return 2 << 10
	}
}

// ActiveBufferEntries returns the per-PE VMU active-buffer size for the
// tier: the Table II default except on the Large tier, where the buffer
// shrinks far below the active-set sizes so every workload overflows it
// and the spill/recovery machinery carries the run.
func (s Scale) ActiveBufferEntries() int {
	if s == Large {
		return 16
	}
	return 80
}

// Dataset is one Table III stand-in.
type Dataset struct {
	Name  string
	Graph *graph.CSR
	// Root is the traversal source (highest out-degree vertex).
	Root graph.VertexID
	// PaperSlices is the Table III slice count this dataset must
	// reproduce under the scaled PolyGraph capacity.
	PaperSlices int
}

var (
	dsMu    sync.Mutex
	dsCache = map[string][]*Dataset{}
)

// Datasets returns the five Table III stand-ins at the given scale:
// road (high-diameter grid), twitter/friendster/host (RMAT power-law with
// the paper's average degrees) and urand (uniform random).
//
// The Large tier builds its registry through the streaming generators
// (graph.FromStream) — the constant-memory path large graphs are expected
// to take — so the registry doubles as a continuous exercise of that
// machinery. Its slice counts follow the calibration equation rather than
// Table III (road rounds down to 2 at divisor 2).
func Datasets(s Scale) []*Dataset {
	dsMu.Lock()
	defer dsMu.Unlock()
	if ds, ok := dsCache[s.String()]; ok {
		return ds
	}
	d := s.divisor()
	sq := 1
	for sq*sq < d {
		sq *= 2
	}
	var build []*Dataset
	if s == Large {
		build = []*Dataset{
			{Name: "road", PaperSlices: 2,
				Graph: graph.FromStream(graph.NewGridStream("road", 340/sq, 272/sq, 0.39, 64, 11))},
			{Name: "twitter", PaperSlices: 5,
				Graph: graph.FromStream(graph.NewRMATStream("twitter", 160000/d, 35, graph.DefaultRMAT, 64, 12))},
			{Name: "friendster", PaperSlices: 8,
				Graph: graph.FromStream(graph.NewRMATStream("friendster", 252000/d, 27, graph.DefaultRMAT, 64, 13))},
			{Name: "host", PaperSlices: 13,
				Graph: graph.FromStream(graph.NewRMATStream("host", 388000/d, 20, graph.DefaultRMAT, 64, 14))},
			{Name: "urand", PaperSlices: 16,
				Graph: graph.FromStream(graph.NewUniformStream("urand", 516000/d, 31, 64, 15))},
		}
	} else {
		build = []*Dataset{
			{Name: "road", PaperSlices: 3,
				Graph: graph.GenGrid("road", 340/sq, 272/sq, 0.39, 64, 11)},
			{Name: "twitter", PaperSlices: 5,
				Graph: graph.GenRMATN("twitter", 160000/d, 35, graph.DefaultRMAT, 64, 12)},
			{Name: "friendster", PaperSlices: 8,
				Graph: graph.GenRMATN("friendster", 252000/d, 27, graph.DefaultRMAT, 64, 13)},
			{Name: "host", PaperSlices: 13,
				Graph: graph.GenRMATN("host", 388000/d, 20, graph.DefaultRMAT, 64, 14)},
			{Name: "urand", PaperSlices: 16,
				Graph: graph.GenUniform("urand", 516000/d, 31, 64, 15)},
		}
	}
	for _, ds := range build {
		ds.Root = ds.Graph.LargestOutDegreeVertex()
	}
	dsCache[s.String()] = build
	return build
}

// DatasetByName returns one registry entry.
func DatasetByName(s Scale, name string) (*Dataset, error) {
	for _, d := range Datasets(s) {
		if d.Name == name {
			return d, nil
		}
	}
	return nil, fmt.Errorf("exp: unknown dataset %q", name)
}

// WeakScalingGraph returns the RMAT graph for a weak-scaling point: the
// problem size doubles with the GPN count (the paper's RMAT21–24 series).
func WeakScalingGraph(s Scale, gpns int) *graph.CSR {
	base := 14 // RMAT14 at full scale for 1 GPN
	switch s {
	case Small:
		base = 10
	case Medium:
		base = 12
	case Large:
		base = 13
	}
	sc := base
	for g := 1; g < gpns; g *= 2 {
		sc++
	}
	return graph.GenRMAT(fmt.Sprintf("rmat%d", sc), sc, 16, graph.DefaultRMAT, 64, int64(20+sc))
}

// NOVAConfig scales base — the CLIs' NOVA flags, or nova.DefaultConfig —
// to the experiments' tier: gpns GPNs, the MPU cache shrunk in proportion
// to the scaled graphs, and, on the Large tier, the active buffers shrunk
// far below the active-set sizes so spill/recovery dominates. Every other
// knob of base (shards, fabric topology, coalescing, …) reaches the cell
// unchanged, so a whole experiment run can be replayed on another fabric.
func NOVAConfig(s Scale, base nova.Config, gpns int) nova.Config {
	base.GPNs = gpns
	base.CacheBytesPerPE = s.CacheBytesPerPE()
	base.ActiveBufferEntries = s.ActiveBufferEntries()
	return base
}

// PGBaseline returns the scaled PolyGraph baseline (iso-bandwidth:
// 332.8 GB/s, matching one NOVA GPN's aggregate).
func PGBaseline(s Scale) *nova.PolyGraphBaseline {
	return &nova.PolyGraphBaseline{OnChipBytes: s.PolyGraphOnChip()}
}
