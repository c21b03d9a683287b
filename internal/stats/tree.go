package stats

import "fmt"

// Group is a node of the component tree. Stats registered on a group dump
// under its dotted path ("gpn0.pe3.vmu"); the root group contributes no
// path segment, so root-level stats keep bare names — which is how the
// headline metric keys ("cycles", "cache_hit_rate", …) stay stable while
// hierarchical detail grows underneath them.
type Group struct {
	name     string
	children []*Group
	byName   map[string]*Group
	stats    []*Stat
}

// NewRoot returns an empty tree root.
func NewRoot() *Group {
	return &Group{byName: make(map[string]*Group)}
}

// Group returns the named child group, creating it on first use.
// Registration order is dump order, so trees render deterministically.
func (g *Group) Group(name string) *Group {
	if child, ok := g.byName[name]; ok {
		return child
	}
	child := &Group{name: name, byName: make(map[string]*Group)}
	g.byName[name] = child
	g.children = append(g.children, child)
	return child
}

// Stat is one registered statistic: identity and metadata captured at
// construction, plus a dump-time read closure. The closure is the only
// coupling between the tree and the owning component's typed value — the
// component's hot path never sees the Stat.
type Stat struct {
	name     string
	kind     Kind
	unit     Unit
	desc     string
	volatile bool
	emit     func(s *Stat, path string, d *Dump)
}

// Volatile marks a stat as run-to-run nondeterministic (wall-clock
// timings, multi-threaded traversal counts). Dump diffs and the golden
// regression test skip volatile records by default. It returns the stat
// for chaining at registration.
func (s *Stat) Volatile() *Stat {
	s.volatile = true
	return s
}

// add registers a stat, panicking on a duplicate name — always an
// assembly bug, worth failing loudly at construction time.
func (g *Group) add(name string, kind Kind, unit Unit, desc string,
	emit func(s *Stat, path string, d *Dump)) *Stat {
	for _, s := range g.stats {
		if s.name == name {
			panic(fmt.Sprintf("stats: duplicate stat %q in group %q", name, g.name))
		}
	}
	if _, ok := g.byName[name]; ok {
		panic(fmt.Sprintf("stats: stat %q collides with subgroup in group %q", name, g.name))
	}
	s := &Stat{name: name, kind: kind, unit: unit, desc: desc, emit: emit}
	g.stats = append(g.stats, s)
	return s
}

// Uint64 registers an existing plain uint64 counter field, so components
// instrument their established counters without changing hot-path code.
func (g *Group) Uint64(p *uint64, name string, unit Unit, desc string) *Stat {
	return g.add(name, KindCounter, unit, desc, func(s *Stat, path string, d *Dump) {
		d.append(s, path, path, float64(*p))
	})
}

// Int64 registers an existing plain int64 counter field.
func (g *Group) Int64(p *int64, name string, unit Unit, desc string) *Stat {
	return g.add(name, KindCounter, unit, desc, func(s *Stat, path string, d *Dump) {
		d.append(s, path, path, float64(*p))
	})
}

// Int registers an existing plain int counter field.
func (g *Group) Int(p *int, name string, unit Unit, desc string) *Stat {
	return g.add(name, KindCounter, unit, desc, func(s *Stat, path string, d *Dump) {
		d.append(s, path, path, float64(*p))
	})
}

// Float64 registers an existing plain float64 field as a scalar.
func (g *Group) Float64(p *float64, name string, unit Unit, desc string) *Stat {
	return g.add(name, KindScalar, unit, desc, func(s *Stat, path string, d *Dump) {
		d.append(s, path, path, *p)
	})
}

// Formula registers a derived value; f is evaluated at dump time only.
func (g *Group) Formula(f func() float64, name string, unit Unit, desc string) *Stat {
	return g.add(name, KindFormula, unit, desc, func(s *Stat, path string, d *Dump) {
		d.append(s, path, path, f())
	})
}

// Distribution registers a Distribution. It dumps as five sub-records:
// .samples, .mean, .min, .max, .stddev.
func (g *Group) Distribution(dist *Distribution, name string, unit Unit, desc string) *Stat {
	return g.add(name, KindDistribution, unit, desc, func(s *Stat, path string, d *Dump) {
		d.append(s, path+".samples", path, float64(dist.N()))
		d.append(s, path+".mean", path, dist.Mean())
		d.append(s, path+".min", path, dist.Min())
		d.append(s, path+".max", path, dist.Max())
		d.append(s, path+".stddev", path, dist.Stddev())
	})
}

// Histogram registers a Histogram. It dumps .samples and .mean plus one
// .le<hi> record per non-empty bucket (inclusive upper bound; the
// overflow bucket dumps as .overflow).
func (g *Group) Histogram(h *Histogram, name string, unit Unit, desc string) *Stat {
	return g.add(name, KindHistogram, unit, desc, func(s *Stat, path string, d *Dump) {
		d.append(s, path+".samples", path, float64(h.N()))
		d.append(s, path+".mean", path, h.Mean())
		for b := 0; b < h.NumBuckets(); b++ {
			n := h.Bucket(b)
			if n == 0 {
				continue
			}
			hi, overflow := h.bucketHi(b)
			if overflow {
				d.append(s, path+".overflow", path, float64(n))
			} else {
				d.append(s, fmt.Sprintf("%s.le%d", path, hi), path, float64(n))
			}
		}
	})
}

// Dump renders the tree to a flat record list. Order is deterministic:
// depth-first, stats before subgroups, both in registration order.
func (g *Group) Dump(meta map[string]string) *Dump {
	d := &Dump{Meta: meta}
	g.dumpInto("", d)
	return d
}

func (g *Group) dumpInto(prefix string, d *Dump) {
	for _, s := range g.stats {
		s.emit(s, prefix+s.name, d)
	}
	for _, child := range g.children {
		child.dumpInto(prefix+child.name+".", d)
	}
}
