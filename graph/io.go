package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ReadEdgeList parses a whitespace-separated edge list ("src dst [weight]"
// per line; '#' and '%' lines are comments, matching SNAP and Matrix
// Market conventions). Vertex IDs may be sparse; the graph is sized by the
// largest ID seen. Missing weights default to 1.
func ReadEdgeList(name string, r io.Reader) (*CSR, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var edges []Edge
	maxID := -1
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: need at least src and dst", lineNo)
		}
		src, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad src %q", lineNo, fields[0])
		}
		dst, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad dst %q", lineNo, fields[1])
		}
		w := uint64(1)
		if len(fields) >= 3 {
			w, err = strconv.ParseUint(fields[2], 10, 32)
			if err != nil || w == 0 {
				return nil, fmt.Errorf("graph: line %d: bad weight %q", lineNo, fields[2])
			}
		}
		edges = append(edges, Edge{Src: VertexID(src), Dst: VertexID(dst), Weight: uint32(w)})
		if int(src) > maxID {
			maxID = int(src)
		}
		if int(dst) > maxID {
			maxID = int(dst)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading edge list: %w", err)
	}
	return FromEdges(name, maxID+1, edges), nil
}
