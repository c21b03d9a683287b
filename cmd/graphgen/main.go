// Command graphgen generates the synthetic graphs used by the
// reproduction and prints their statistics, optionally dumping the edge
// list as tab-separated "src dst weight" lines or writing the versioned
// binary CSR container.
//
// Usage:
//
//	graphgen -kind rmat -vertices 65536 -degree 16 -seed 7
//	graphgen -kind grid -rows 128 -cols 128 -drop 0.39
//	graphgen -kind uniform -vertices 100000 -degree 31 -dump
//
// With -stream and -o the graph is generated edge-by-edge and scattered
// into the container in bounded chunks of at most -chunk-edges edges, so
// multi-million-edge graphs build in constant memory (never holding the
// edge list or the CSR). It prints only the graph's size: -dump and
// -parts need the graph in memory, so graphgen refuses them with
// -stream -o:
//
//	graphgen -kind rmat -vertices 4194304 -degree 16 -stream -o big.csr
//	graphgen -info big.csr
//	novasim -engine nova -workload prdelta -graph-file big.csr
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"nova/graph"
)

// maxEdges is the most edges a CSR container holds; its readers reject a
// header that claims more.
const maxEdges = 1 << 40

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "graphgen:", err)
		os.Exit(1)
	}
}

// run is the whole command, with its arguments and output streams passed
// in so that tests can drive it; every failure comes back as an error.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("graphgen", flag.ExitOnError)
	fs.SetOutput(stderr)
	kind := fs.String("kind", "rmat", "rmat|uniform|grid")
	vertices := fs.Int("vertices", 65536, "vertex count (rmat, uniform)")
	degree := fs.Float64("degree", 16, "average out-degree")
	rows := fs.Int("rows", 256, "grid rows")
	cols := fs.Int("cols", 256, "grid cols")
	drop := fs.Float64("drop", 0.39, "grid edge drop probability")
	maxWeight := fs.Int("max-weight", 64, "maximum edge weight")
	seed := fs.Int64("seed", 1, "generator seed")
	dump := fs.Bool("dump", false, "write edge list to stdout")
	parts := fs.Int("parts", 0, "if >0, report partitioner statistics for this many parts")
	stream := fs.Bool("stream", false, "generate via the constant-memory streaming generators")
	out := fs.String("o", "", "write the binary CSR container to FILE")
	chunkEdges := fs.Int64("chunk-edges", 0, "scatter-buffer budget in edges for the streamed container build, -stream -o (0 = default)")
	info := fs.String("info", "", "print the header of a binary CSR container and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *info != "" {
		fi, err := graph.StatCSRFile(*info)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s: format v%d, V=%d E=%d, rowptr %d bytes, edges %d bytes\n",
			*info, fi.Version, fi.NumVertices, fi.NumEdges, fi.RowPtrBytes, fi.EdgeBytes)
		return nil
	}
	// The streamed build never holds the graph, so nothing can dump or
	// partition it, and -chunk-edges tunes that build alone.
	streamed := *stream && *out != ""
	switch {
	case *parts < 0:
		return fmt.Errorf("-parts %d: need a positive part count, or 0 for no partitioner statistics", *parts)
	case *chunkEdges < 0:
		return fmt.Errorf("-chunk-edges %d: need a positive edge count, or 0 for the default", *chunkEdges)
	case *chunkEdges != 0 && !streamed:
		return fmt.Errorf("-chunk-edges tunes the streamed container build only; add -stream -o FILE")
	case streamed && *dump:
		return fmt.Errorf("-dump needs the graph in memory, which the streamed build (-stream -o) never holds; drop -stream")
	case streamed && *parts > 0:
		return fmt.Errorf("-parts needs the graph in memory, which the streamed build (-stream -o) never holds; drop -stream")
	}
	// Reject, before anything is generated, the flag values at which a
	// generator would panic or build a graph other than the one asked
	// for: too few vertices, rows or columns; a degree that is negative,
	// not finite, or asks for more edges than a CSR container holds; a
	// drop probability outside [0, 1]; and a maximum weight past uint32.
	switch *kind {
	case "rmat", "uniform":
		minVertices := 1
		if *kind == "rmat" {
			minVertices = 2
		}
		if *vertices < minVertices {
			return fmt.Errorf("-vertices %d: %s needs at least %d", *vertices, *kind, minVertices)
		}
		if math.IsNaN(*degree) || math.IsInf(*degree, 0) || *degree < 0 {
			return fmt.Errorf("-degree %v: need a finite number ≥ 0", *degree)
		}
		if float64(*vertices)**degree > maxEdges {
			return fmt.Errorf("-degree %v: %d vertices × %v edges is past the %d a CSR container holds",
				*degree, *vertices, *degree, int64(maxEdges))
		}
	case "grid":
		if *rows < 1 {
			return fmt.Errorf("-rows %d: need at least 1", *rows)
		}
		if *cols < 1 {
			return fmt.Errorf("-cols %d: need at least 1", *cols)
		}
		if !(*drop >= 0 && *drop <= 1) { // NaN fails too
			return fmt.Errorf("-drop %v: need a probability in [0, 1]", *drop)
		}
	default:
		return fmt.Errorf("unknown kind %q", *kind)
	}
	if *maxWeight < 0 || int64(*maxWeight) > math.MaxUint32 {
		return fmt.Errorf("-max-weight %d: need 0..%d", *maxWeight, uint32(math.MaxUint32))
	}

	var st graph.EdgeStream
	if *stream || *out != "" {
		switch *kind {
		case "rmat":
			st = graph.NewRMATStream("rmat", *vertices, *degree, graph.DefaultRMAT, uint32(*maxWeight), *seed)
		case "uniform":
			st = graph.NewUniformStream("uniform", *vertices, *degree, uint32(*maxWeight), *seed)
		case "grid":
			st = graph.NewGridStream("grid", *rows, *cols, *drop, uint32(*maxWeight), *seed)
		}
	}

	// Streaming container build: the edge stream scatters straight into
	// the file in bounded chunks — the only path that never materializes
	// the graph, so it is what the large tier uses.
	if streamed {
		fi, err := graph.BuildCSRFile(*out, st, graph.BuildOptions{ChunkEdges: *chunkEdges})
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "%s: V=%d E=%d written to %s (constant-memory build)\n",
			st.Name(), fi.NumVertices, fi.NumEdges, *out)
		return nil
	}

	var g *graph.CSR
	switch {
	case st != nil:
		g = graph.FromStream(st)
	case *kind == "rmat":
		g = graph.GenRMATN("rmat", *vertices, *degree, graph.DefaultRMAT, uint32(*maxWeight), *seed)
	case *kind == "uniform":
		g = graph.GenUniform("uniform", *vertices, *degree, uint32(*maxWeight), *seed)
	default:
		g = graph.GenGrid("grid", *rows, *cols, *drop, uint32(*maxWeight), *seed)
	}

	if *out != "" {
		if err := graph.WriteCSRFile(*out, g); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "container written to %s\n", *out)
	}

	fmt.Fprintf(stderr, "%s: V=%d E=%d avg-deg=%.2f max-deg=%d footprint=%d bytes\n",
		g.Name, g.NumVertices(), g.NumEdges(), g.AvgDegree(), g.MaxDegree(), g.FootprintBytes())
	fmt.Fprintf(stderr, "hub vertex: %d (out-degree %d)\n",
		g.LargestOutDegreeVertex(), g.OutDegree(g.LargestOutDegreeVertex()))

	if *parts > 0 {
		for _, p := range []*graph.Partition{
			graph.PartitionInterleave(g.NumVertices(), *parts),
			graph.PartitionRandom(g.NumVertices(), *parts, *seed),
			graph.PartitionLoadBalanced(g, *parts),
			graph.PartitionLocality(g, *parts),
		} {
			fmt.Fprintf(stderr, "partition %-14s cut=%.3f imbalance=%.3f\n",
				p.Method, p.CutFraction(g), p.Imbalance(g))
		}
	}

	if *dump {
		w := bufio.NewWriter(stdout)
		for _, e := range g.Edges() {
			fmt.Fprintf(w, "%d\t%d\t%d\n", e.Src, e.Dst, e.Weight)
		}
		return w.Flush()
	}
	return nil
}
