package stats

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestTreePathsAndBag(t *testing.T) {
	root := NewRoot()
	var cycles uint64 = 42
	root.Uint64(&cycles, "cycles", Cycles, "simulated cycles")
	var spills uint64 = 7
	vmu := root.Group("gpn0").Group("pe3").Group("vmu")
	vmu.Uint64(&spills, "spills", Count, "activations spilled off-chip")
	root.Formula(func() float64 { return 0.5 }, "cache_hit_rate", Ratio, "derived")

	d := root.Dump(map[string]string{"engine": "test"})
	bag := d.Bag()
	if bag["cycles"] != 42 {
		t.Errorf("bag[cycles] = %v, want 42", bag["cycles"])
	}
	if bag["gpn0.pe3.vmu.spills"] != 7 {
		t.Errorf("bag[gpn0.pe3.vmu.spills] = %v, want 7", bag["gpn0.pe3.vmu.spills"])
	}
	if bag["cache_hit_rate"] != 0.5 {
		t.Errorf("bag[cache_hit_rate] = %v, want 0.5", bag["cache_hit_rate"])
	}
	// Formulas are live: rereading after an update sees the new value.
	spills = 9
	if v, _ := root.Dump(nil).Value("gpn0.pe3.vmu.spills"); v != 9 {
		t.Errorf("re-dump spills = %v, want 9", v)
	}
}

func TestGroupReuseAndDuplicatePanic(t *testing.T) {
	root := NewRoot()
	a := root.Group("pe0")
	b := root.Group("pe0")
	if a != b {
		t.Error("Group(name) must return the same child on reuse")
	}
	var c uint64
	root.Uint64(&c, "x", Count, "")
	defer func() {
		if recover() == nil {
			t.Error("duplicate stat registration must panic")
		}
	}()
	root.Uint64(&c, "x", Count, "")
}

func TestDistribution(t *testing.T) {
	var d Distribution
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		d.Sample(v)
	}
	if d.N() != 8 || d.Mean() != 5 || d.Min() != 2 || d.Max() != 9 {
		t.Errorf("summary = n%d mean%v min%v max%v", d.N(), d.Mean(), d.Min(), d.Max())
	}
	if got := d.Stddev(); math.Abs(got-2) > 1e-9 {
		t.Errorf("stddev = %v, want 2", got)
	}
}

func TestHistogramLog2(t *testing.T) {
	var h Histogram
	h.Observe(0) // bucket 0
	h.Observe(1) // bucket 1: [1,1]
	h.Observe(5) // bucket 3: [4,7]
	h.Observe(7)
	if h.Bucket(0) != 1 || h.Bucket(1) != 1 || h.Bucket(3) != 2 {
		t.Errorf("buckets = %d %d %d", h.Bucket(0), h.Bucket(1), h.Bucket(3))
	}
	if h.N() != 4 || h.Mean() != 13.0/4 {
		t.Errorf("n=%d mean=%v", h.N(), h.Mean())
	}
	root := NewRoot()
	root.Histogram(&h, "sizes", Bytes, "")
	bag := root.Dump(nil).Bag()
	if bag["sizes.le7"] != 2 || bag["sizes.samples"] != 4 {
		t.Errorf("dump expansion = %v", bag)
	}
}

func TestHistogramLinearAndOverflow(t *testing.T) {
	h := Histogram{Width: 10}
	h.Observe(3)    // bucket 0: [0,9]
	h.Observe(25)   // bucket 2: [20,29]
	h.Observe(1e10) // overflow
	if h.Bucket(0) != 1 || h.Bucket(2) != 1 || h.Bucket(histBuckets-1) != 1 {
		t.Errorf("buckets wrong: %d %d %d", h.Bucket(0), h.Bucket(2), h.Bucket(histBuckets-1))
	}
	root := NewRoot()
	root.Histogram(&h, "d", Entries, "")
	bag := root.Dump(nil).Bag()
	if bag["d.le9"] != 1 || bag["d.le29"] != 1 || bag["d.overflow"] != 1 {
		t.Errorf("dump expansion = %v", bag)
	}
}

// schemaTree registers one stat of each kind, a volatile counter among
// them, with values that fill some of the histogram's buckets.
func schemaTree() *Group {
	root := NewRoot()
	var msgs uint64 = 3
	root.Uint64(&msgs, "msgs", Count, "messages").Volatile()
	level := 0.25
	root.Float64(&level, "level", Ratio, "a level")
	var dist Distribution
	dist.Sample(2)
	dist.Sample(6)
	pe := root.Group("pe0")
	pe.Distribution(&dist, "latency", Cycles, "latency per request")
	var h Histogram
	h.Observe(5)
	h.Observe(1 << 20)
	pe.Histogram(&h, "sizes", Bytes, "sizes per request")
	pe.Formula(func() float64 { return 1.5 }, "rate", Ratio, "derived")
	return root
}

// TestJSONRoundTrip holds a full dump's JSON to keeping every record's
// schema, and Readings to keeping the path, value and volatility of every
// record, in order, and the meta, while its JSON carries none of the
// schema keys.
func TestJSONRoundTrip(t *testing.T) {
	d := schemaTree().Dump(map[string]string{"engine": "x"})
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, d) {
		t.Errorf("round trip lost data:\n got %+v\nwant %+v", back, d)
	}
	for _, r := range back.Records {
		if r.Stat == "" || r.Kind == "" || r.Unit == "" || r.Desc == "" {
			t.Errorf("record %s lost its schema: %+v", r.Path, r)
		}
	}

	rd := d.Readings()
	if len(rd.Records) != len(d.Records) || !reflect.DeepEqual(rd.Meta, d.Meta) {
		t.Fatalf("readings: %d records, meta %v; dump %d, meta %v", len(rd.Records), rd.Meta, len(d.Records), d.Meta)
	}
	for i, r := range rd.Records {
		f := d.Records[i]
		if r != (Record{Path: f.Path, Volatile: f.Volatile, Value: f.Value}) {
			t.Errorf("readings record %d = %+v, dump's %+v", i, r, f)
		}
	}
	if v, _ := rd.Value("msgs"); !rd.Records[0].Volatile || v != 3 {
		t.Errorf("readings lost msgs: %+v", rd.Records[0])
	}
	b, err := json.Marshal(rd)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"stat"`, `"kind"`, `"unit"`, `"desc"`, `"volatile":false`} {
		if bytes.Contains(b, []byte(key)) {
			t.Errorf("readings JSON holds %s: %s", key, b)
		}
	}
	if (*Dump)(nil).Readings() != nil {
		t.Error("nil dump's readings are not nil")
	}
}

func TestTextAndCSVSinks(t *testing.T) {
	root := NewRoot()
	var c uint64 = 11
	root.Uint64(&c, "reads", Count, "")
	d := root.Dump(map[string]string{"k": "v"})
	var txt, csvBuf bytes.Buffer
	if err := d.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "# k = v") || !strings.Contains(txt.String(), "reads") {
		t.Errorf("text output missing content:\n%s", txt.String())
	}
	if err := d.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "path,value,unit") {
		t.Errorf("csv output wrong:\n%s", csvBuf.String())
	}
}

func TestPrefixedMerge(t *testing.T) {
	a := NewRoot()
	var ca uint64 = 1
	a.Uint64(&ca, "cycles", Cycles, "")
	b := NewRoot()
	var cb uint64 = 2
	b.Uint64(&cb, "cycles", Cycles, "")
	merged := Merge(map[string]string{"graph": "g"},
		a.Dump(map[string]string{"engine": "nova"}).Prefixed("nova"),
		b.Dump(nil).Prefixed("polygraph"))
	bag := merged.Bag()
	if bag["nova.cycles"] != 1 || bag["polygraph.cycles"] != 2 {
		t.Errorf("merged bag = %v", bag)
	}
	if merged.Meta["nova.engine"] != "nova" || merged.Meta["graph"] != "g" {
		t.Errorf("merged meta = %v", merged.Meta)
	}
}

func TestDiff(t *testing.T) {
	mk := func(vals map[string]float64, volatilePaths ...string) *Dump {
		d := &Dump{}
		vol := map[string]bool{}
		for _, p := range volatilePaths {
			vol[p] = true
		}
		for _, p := range sortedKeys(stringify(vals)) {
			d.Records = append(d.Records, Record{Path: p, Stat: p, Value: vals[p], Volatile: vol[p]})
		}
		return d
	}
	old := mk(map[string]float64{"a": 10, "b": 5, "wall": 1.0, "gone": 3}, "wall")
	new := mk(map[string]float64{"a": 12, "b": 5, "wall": 2.0, "added": 1}, "wall")

	deltas := Diff(old, new, false)
	byPath := map[string]Delta{}
	for _, d := range deltas {
		byPath[d.Path] = d
	}
	if _, ok := byPath["wall"]; ok {
		t.Error("volatile record must be skipped by default")
	}
	if d := byPath["a"]; math.Abs(d.Pct()-20) > 1e-9 || !d.Changed() {
		t.Errorf("a: pct=%v changed=%v", d.Pct(), d.Changed())
	}
	if d := byPath["b"]; d.Changed() {
		t.Error("b must be unchanged")
	}
	if d := byPath["added"]; d.OldOK || !d.Exceeds(1000) {
		t.Error("added record must be a structural change")
	}
	if d := byPath["gone"]; d.NewOK || !d.Exceeds(1000) {
		t.Error("removed record must be a structural change")
	}
	withVol := Diff(old, new, true)
	found := false
	for _, d := range withVol {
		if d.Path == "wall" {
			found = true
		}
	}
	if !found {
		t.Error("includeVolatile must keep volatile records")
	}
}

// TestDiffHistogramBuckets holds Diff to reading a bucket that one fill
// of a histogram dumps and another does not as a value that changed from
// or to 0, while a stat on one side only, and a record without a stat,
// stay added or removed.
func TestDiffHistogramBuckets(t *testing.T) {
	fill := func(extra bool, vals ...uint64) *Dump {
		root := NewRoot()
		var h Histogram
		for _, v := range vals {
			h.Observe(v)
		}
		root.Histogram(&h, "occupancy", Entries, "")
		if extra {
			var c uint64
			root.Uint64(&c, "extra", Count, "")
		}
		return root.Dump(nil)
	}
	old, new := fill(false, 1, 40, 40), fill(true, 1, 70, 70)
	byPath := map[string]Delta{}
	for _, d := range Diff(old, new, false) {
		byPath[d.Path] = d
		if !d.OldOK && d.Path != "extra" || !d.NewOK {
			t.Errorf("%s: one-sided (old %v, new %v), want a value change", d.Path, d.OldOK, d.NewOK)
		}
	}
	if d := byPath["occupancy.le63"]; !d.Changed() || d.Old != 2 || d.New != 0 {
		t.Errorf("emptied bucket: %+v, want 2 -> 0", d)
	}
	if d := byPath["occupancy.le127"]; !d.Changed() || d.Old != 0 || d.New != 2 {
		t.Errorf("filled bucket: %+v, want 0 -> 2", d)
	}
	if d := byPath["extra"]; d.OldOK || !d.NewOK {
		t.Errorf("a stat on one side only: %+v, want added", d)
	}
	if d := byPath["occupancy.le1"]; d.Changed() {
		t.Errorf("bucket on both sides: %+v, want unchanged", d)
	}
	// Readings name no stat, so their one-sided records stay one-sided.
	for _, d := range Diff(old.Readings(), new.Readings(), false) {
		if d.Path == "occupancy.le63" && d.NewOK || d.Path == "occupancy.le127" && d.OldOK {
			t.Errorf("%s: a record without its stat read as a value change", d.Path)
		}
	}
}

func stringify(m map[string]float64) map[string]string {
	out := make(map[string]string, len(m))
	for k := range m {
		out[k] = ""
	}
	return out
}

// BenchmarkHotPathUpdates guards the zero-overhead rule: updates on the
// fire path must not allocate.
func BenchmarkHotPathUpdates(b *testing.B) {
	var c uint64
	var s float64
	var d Distribution
	var h Histogram
	root := NewRoot()
	root.Uint64(&c, "c", Count, "")
	root.Float64(&s, "s", Ratio, "")
	root.Distribution(&d, "d", Entries, "")
	root.Histogram(&h, "h", Bytes, "")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c++
		s += 0.5
		d.Sample(float64(i & 1023))
		h.Observe(uint64(i & 1023))
	}
	if c == 0 {
		b.Fatal("impossible")
	}
}
