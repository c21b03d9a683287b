package service

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"nova/graph"
)

// errAlreadyRegistered marks a name collision on Register (mapped to
// HTTP 409 by the API layer).
var errAlreadyRegistered = errors.New("already registered")

// GraphEntry is one registered graph: a CSR container opened once (via
// mmap where the platform allows) and shared read-only by every job that
// names it. Derived views the workloads need — the symmetrized graph for
// "cc", the transpose for "bc" and the software engine — are built lazily
// and cached per entry, so N concurrent jobs on the same graph cost one
// copy of each view, not N.
//
// Entries are reference-counted: a job acquires its entry for the
// duration of the run and an eviction only unmaps the container once the
// last in-flight job releases it. That is what makes DELETE /graphs safe
// while requests are in flight — the mapping outlives the registry row,
// never the readers.
type GraphEntry struct {
	name string
	path string
	info graph.CSRFileInfo
	m    *graph.MappedCSR
	// root is the default traversal source (highest out-degree vertex),
	// computed once at registration.
	root graph.VertexID

	reg     *Registry
	refs    int
	evicted bool

	symOnce sync.Once
	sym     *graph.CSR
	trOnce  sync.Once
	tr      *graph.CSR
}

// Name returns the registry name the entry was registered under.
func (e *GraphEntry) Name() string { return e.name }

// Info describes the container, including its ContentHash — the
// graph-content half of the result-cache key.
func (e *GraphEntry) Info() graph.CSRFileInfo { return e.info }

// Root returns the default traversal source.
func (e *GraphEntry) Root() graph.VertexID { return e.root }

// Graph returns the shared read-only CSR. Valid only while the caller
// holds a reference.
func (e *GraphEntry) Graph() *graph.CSR { return e.m.G }

// Sym returns the symmetrized view (built on first use, then shared).
func (e *GraphEntry) Sym() *graph.CSR {
	e.symOnce.Do(func() { e.sym = e.m.G.Symmetrize() })
	return e.sym
}

// Transpose returns the transposed view (built on first use, then shared).
func (e *GraphEntry) Transpose() *graph.CSR {
	e.trOnce.Do(func() { e.tr = e.m.G.Transpose() })
	return e.tr
}

// Release returns the caller's reference. The final release of an evicted
// entry unmaps the container.
func (e *GraphEntry) Release() { e.reg.release(e) }

// GraphInfo is the wire-format description of a registry entry.
type GraphInfo struct {
	Name        string `json:"name"`
	Path        string `json:"path"`
	Vertices    int    `json:"vertices"`
	Edges       int64  `json:"edges"`
	ContentHash string `json:"content_hash"`
	// Mapped reports whether the container is served from a live kernel
	// mapping. False means the file was read onto the heap — the fallback
	// on platforms without mmap — so the entry's full footprint counts
	// against process memory, not the page cache. Capacity planning
	// against /graphs must not assume a false entry is cheap.
	Mapped bool `json:"mapped"`
	// InFlight is the number of jobs currently holding the entry.
	InFlight int `json:"in_flight"`
}

// Registry owns the set of registered graphs. All methods are safe for
// concurrent use.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*GraphEntry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*GraphEntry)}
}

// Register opens the container at path and adds it under name. The open
// validates every checksum, so a corrupt or truncated file is rejected
// here — with an error matching graph.ErrCorrupt — before any job can
// name it. Registering an existing name fails; evict it first.
func (r *Registry) Register(name, path string) (GraphInfo, error) {
	if name == "" {
		return GraphInfo{}, fmt.Errorf("service: graph name must not be empty")
	}
	r.mu.Lock()
	if _, ok := r.entries[name]; ok {
		r.mu.Unlock()
		return GraphInfo{}, fmt.Errorf("service: graph %q: %w", name, errAlreadyRegistered)
	}
	r.mu.Unlock()

	// Open outside the lock: mapping and validating a multi-GB container
	// takes real time and must not stall unrelated lookups.
	m, err := graph.OpenCSRFileMapped(path)
	if err != nil {
		return GraphInfo{}, err
	}
	m.G.Name = name
	e := &GraphEntry{name: name, path: path, info: m.Info, m: m, reg: r,
		root: m.G.LargestOutDegreeVertex()}

	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[name]; ok {
		// Lost a registration race for the same name; drop our mapping.
		m.Close()
		return GraphInfo{}, fmt.Errorf("service: graph %q: %w", name, errAlreadyRegistered)
	}
	r.entries[name] = e
	return e.wireInfo(), nil
}

// Acquire returns the named entry with one reference held. Callers must
// Release exactly once.
func (r *Registry) Acquire(name string) (*GraphEntry, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[name]
	if !ok {
		return nil, fmt.Errorf("service: graph %q not registered", name)
	}
	e.refs++
	return e, nil
}

func (r *Registry) release(e *GraphEntry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e.refs--
	if e.evicted && e.refs == 0 {
		e.m.Close()
	}
}

// Evict removes the named entry from the registry. New jobs can no longer
// name it; jobs already holding a reference keep a valid graph until they
// release it, at which point the container is unmapped.
func (r *Registry) Evict(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[name]
	if !ok {
		return fmt.Errorf("service: graph %q not registered", name)
	}
	delete(r.entries, name)
	e.evicted = true
	if e.refs == 0 {
		return e.m.Close()
	}
	return nil
}

// List returns every entry's description, sorted by name.
func (r *Registry) List() []GraphInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]GraphInfo, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e.wireInfo())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len returns the number of registered graphs.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// ResidentBytes sums the CSR footprints of every registered graph.
func (r *Registry) ResidentBytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var total int64
	for _, e := range r.entries {
		total += e.m.G.FootprintBytes()
	}
	return total
}

// MappedCounts splits the registered graphs into kernel-mapped entries
// and heap-resident ones (the whole-file fallback on platforms without
// mmap). The split is surfaced at /statsz so an operator can see when
// "registered" stops meaning "cheap".
func (r *Registry) MappedCounts() (mapped, unmapped int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.entries {
		if e.m.Mapped() {
			mapped++
		} else {
			unmapped++
		}
	}
	return mapped, unmapped
}

// Close evicts every entry (waiting for nothing: in-flight references
// keep their mappings alive until released).
func (r *Registry) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, e := range r.entries {
		delete(r.entries, name)
		e.evicted = true
		if e.refs == 0 {
			e.m.Close()
		}
	}
}

// wireInfo renders the entry; callers hold r.mu.
func (e *GraphEntry) wireInfo() GraphInfo {
	return GraphInfo{
		Name:        e.name,
		Path:        e.path,
		Vertices:    e.info.NumVertices,
		Edges:       e.info.NumEdges,
		ContentHash: fmt.Sprintf("%08x", e.info.ContentHash),
		Mapped:      e.m.Mapped(),
		InFlight:    e.refs,
	}
}
