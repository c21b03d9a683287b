package stats

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// Record is one dumped value. Scalar-shaped stats produce a single record
// whose Path equals Stat; distributions and histograms expand into
// sub-records (.mean, .le128, …) that all share the owning stat's path in
// Stat, carrying its kind/unit/description — which is what lets STATS.md
// be generated from a dump instead of from a live tree.
type Record struct {
	// Path is the full dotted location of this value.
	Path string `json:"path"`
	// Stat is the owning stat's path (== Path except for expansion
	// sub-records of distributions and histograms).
	Stat string `json:"stat"`
	// Kind, Unit and Desc are the owning stat's registration metadata.
	Kind Kind   `json:"kind"`
	Unit Unit   `json:"unit,omitempty"`
	Desc string `json:"desc,omitempty"`
	// Volatile marks run-to-run nondeterministic values; diffs skip them
	// by default.
	Volatile bool `json:"volatile,omitempty"`
	// Value is the dumped reading.
	Value float64 `json:"value"`
}

// Dump is a rendered stats tree: ordered records plus free-form metadata
// (engine name, workload, configuration fingerprint).
type Dump struct {
	Meta    map[string]string `json:"meta,omitempty"`
	Records []Record          `json:"records"`
}

func (d *Dump) append(s *Stat, path, statPath string, v float64) {
	d.Records = append(d.Records, Record{
		Path:     path,
		Stat:     statPath,
		Kind:     s.kind,
		Unit:     s.unit,
		Desc:     s.desc,
		Volatile: s.volatile,
		Value:    v,
	})
}

// Bag flattens the dump to a map: every record's full path mapped to its
// value, root-level stats under their bare names. Lookups that need one
// record use Value instead.
func (d *Dump) Bag() map[string]float64 {
	m := make(map[string]float64, len(d.Records))
	for _, r := range d.Records {
		m[r.Path] = r.Value
	}
	return m
}

// Value returns the record at path, or (0, false) when absent.
func (d *Dump) Value(path string) (float64, bool) {
	for _, r := range d.Records {
		if r.Path == path {
			return r.Value, true
		}
	}
	return 0, false
}

// Prefixed returns a copy of the dump with every record path (and stat
// path, and meta key) under prefix — how per-engine dumps merge into one
// namespace ("nova.cycles", "polygraph.slice_count").
func (d *Dump) Prefixed(prefix string) *Dump {
	out := &Dump{Records: make([]Record, len(d.Records))}
	if d.Meta != nil {
		out.Meta = make(map[string]string, len(d.Meta))
		for k, v := range d.Meta {
			out.Meta[prefix+"."+k] = v
		}
	}
	for i, r := range d.Records {
		r.Path = prefix + "." + r.Path
		r.Stat = prefix + "." + r.Stat
		out.Records[i] = r
	}
	return out
}

// Merge concatenates dumps in order under shared metadata. Meta entries of
// the parts are unioned (later parts win on key collisions) and meta wins
// over both.
func Merge(meta map[string]string, parts ...*Dump) *Dump {
	out := &Dump{Meta: make(map[string]string)}
	for _, p := range parts {
		if p == nil {
			continue
		}
		for k, v := range p.Meta {
			out.Meta[k] = v
		}
		out.Records = append(out.Records, p.Records...)
	}
	for k, v := range meta {
		out.Meta[k] = v
	}
	if len(out.Meta) == 0 {
		out.Meta = nil
	}
	return out
}

// WriteJSON writes the dump as indented JSON (the format ReadJSON,
// cmd/statdiff, and the golden regression test consume).
func (d *Dump) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// ReadJSON parses a dump written by WriteJSON.
func ReadJSON(r io.Reader) (*Dump, error) {
	var d Dump
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("stats: parsing dump: %w", err)
	}
	return &d, nil
}

// WriteText writes the dump as aligned "path value unit" lines with meta
// as leading comments — the human-skimmable format.
func (d *Dump) WriteText(w io.Writer) error {
	for _, k := range sortedKeys(d.Meta) {
		if _, err := fmt.Fprintf(w, "# %s = %s\n", k, d.Meta[k]); err != nil {
			return err
		}
	}
	width := 0
	for _, r := range d.Records {
		if len(r.Path) > width {
			width = len(r.Path)
		}
	}
	for _, r := range d.Records {
		vol := ""
		if r.Volatile {
			vol = "  (volatile)"
		}
		if _, err := fmt.Fprintf(w, "%-*s %16s %s%s\n",
			width, r.Path, formatValue(r.Value), r.Unit, vol); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV writes the dump as CSV with a header row (path, value, unit,
// kind, stat, volatile). Metadata is omitted: CSV output targets
// spreadsheet joins on path, not provenance.
func (d *Dump) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"path", "value", "unit", "kind", "stat", "volatile"}); err != nil {
		return err
	}
	for _, r := range d.Records {
		err := cw.Write([]string{
			r.Path, formatValue(r.Value), string(r.Unit), string(r.Kind),
			r.Stat, strconv.FormatBool(r.Volatile),
		})
		if err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// formatValue renders integers without an exponent and everything else
// with full float64 round-trip precision.
func formatValue(v float64) string {
	if v == float64(int64(v)) && v < 1e15 && v > -1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
