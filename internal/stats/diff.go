package stats

import "math"

// Delta is one aligned comparison between two dumps. A record present on
// only one side has the other side's OK flag false, unless its stat is on
// both sides (see Diff).
type Delta struct {
	Path     string
	Old, New float64
	OldOK    bool
	NewOK    bool
}

// Changed reports whether the two sides differ (including one-sided
// records).
func (d Delta) Changed() bool {
	return !d.OldOK || !d.NewOK || d.Old != d.New
}

// Pct returns the percent change new vs old. A zero old value with a
// nonzero new value returns +Inf; two zeros return 0.
func (d Delta) Pct() float64 {
	if d.Old == d.New {
		return 0
	}
	if d.Old == 0 {
		return math.Inf(1)
	}
	return 100 * (d.New - d.Old) / math.Abs(d.Old)
}

// Exceeds reports whether the delta crosses a percent threshold: |Pct| >
// threshold, or the record exists on only one side (a structural change
// always exceeds).
func (d Delta) Exceeds(threshold float64) bool {
	if !d.OldOK || !d.NewOK {
		return true
	}
	return math.Abs(d.Pct()) > threshold
}

// Diff aligns two dumps by record path and returns one Delta per path in
// the union, ordered by the new dump's record order with old-only paths
// appended in the old dump's order. Records marked volatile on either
// side are skipped unless includeVolatile is set.
//
// A record found on one side only counts as a changed value, the missing
// side reading 0, when its owning stat (Record.Stat) has records on both
// sides: a histogram dumps a bucket only while it holds samples, so an
// emptied bucket is a value that fell to 0, not a removed stat. A stat
// found on one side only, and a record without a Stat, stay one-sided.
func Diff(old, new *Dump, includeVolatile bool) []Delta {
	oldVals := make(map[string]Record, len(old.Records))
	oldStats := make(map[string]bool, len(old.Records))
	for _, r := range old.Records {
		oldVals[r.Path] = r
		oldStats[r.Stat] = true
	}
	newStats := make(map[string]bool, len(new.Records))
	for _, r := range new.Records {
		newStats[r.Stat] = true
	}
	seen := make(map[string]bool, len(new.Records))
	var out []Delta
	for _, r := range new.Records {
		seen[r.Path] = true
		o, ok := oldVals[r.Path]
		if !includeVolatile && (r.Volatile || (ok && o.Volatile)) {
			continue
		}
		out = append(out, Delta{Path: r.Path, Old: o.Value, New: r.Value,
			OldOK: ok || r.Stat != "" && oldStats[r.Stat], NewOK: true})
	}
	for _, r := range old.Records {
		if seen[r.Path] {
			continue
		}
		if !includeVolatile && r.Volatile {
			continue
		}
		out = append(out, Delta{Path: r.Path, Old: r.Value, OldOK: true,
			NewOK: r.Stat != "" && newStats[r.Stat]})
	}
	return out
}
