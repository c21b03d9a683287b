package nova_test

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"nova"
	"nova/internal/sim"
)

// knob is a valid non-default value for one config field, with the
// prerequisite (if any) it needs applied to both sides of the comparison.
type knob[T any] struct {
	prep  func(*T)
	value any
}

// checkFingerprint is the one-declaration gate for an engine config
// struct: every field has a json tag (its wire name, or "-"); setting a
// field not in exclude changes the engine fingerprint, which keys novad's
// result cache, and setting one in exclude does not; and the json:"-"
// fields are exactly hidden. A new field fails it until it is given a
// tag, a test value, and, if it cannot affect results, an exclusion.
func checkFingerprint[T any](t *testing.T, base T, fingerprint func(T) (string, error), knobs map[string]knob[T], exclude, hidden []string) {
	t.Helper()
	typ := reflect.TypeOf(base)
	var gotHidden []string
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		tag, ok := f.Tag.Lookup("json")
		if !ok {
			t.Errorf("%s.%s has no json tag: give it a wire name, or json:\"-\" if it cannot affect results", typ.Name(), f.Name)
			continue
		}
		if tag == "-" {
			gotHidden = append(gotHidden, f.Name)
		}
		k, ok := knobs[f.Name]
		if !ok {
			t.Errorf("%s.%s has no test value: add one to show whether it reaches the fingerprint", typ.Name(), f.Name)
			continue
		}
		before := base
		if k.prep != nil {
			k.prep(&before)
		}
		after := before
		reflect.ValueOf(&after).Elem().Field(i).Set(reflect.ValueOf(k.value))
		fpBefore, err := fingerprint(before)
		if err != nil {
			t.Fatalf("%s.%s: base config rejected: %v", typ.Name(), f.Name, err)
		}
		fpAfter, err := fingerprint(after)
		if err != nil {
			t.Errorf("%s.%s = %v rejected: %v", typ.Name(), f.Name, k.value, err)
			continue
		}
		switch excluded := slices.Contains(exclude, f.Name); {
		case excluded && fpAfter != fpBefore:
			t.Errorf("%s.%s = %v changed the fingerprint, but it is excluded as unable to affect results:\n%s\n%s",
				typ.Name(), f.Name, k.value, fpBefore, fpAfter)
		case !excluded && fpAfter == fpBefore:
			t.Errorf("%s.%s = %v left the fingerprint unchanged: %s", typ.Name(), f.Name, k.value, fpBefore)
		}
	}
	if !slices.Equal(gotHidden, hidden) {
		t.Errorf("%s json:\"-\" fields = %v, want %v", typ.Name(), gotHidden, hidden)
	}
}

func novaFingerprint(cfg nova.Config) (string, error) {
	acc, err := nova.New(cfg)
	if err != nil {
		return "", err
	}
	return acc.Engine().Fingerprint(), nil
}

func extmemFingerprint(b nova.ExternalMemory) (string, error) {
	if err := b.Validate(); err != nil {
		return "", err
	}
	return b.Engine().Fingerprint(), nil
}

func TestFingerprintCoversEveryField(t *testing.T) {
	outOfCore := func(c *nova.Config) { c.OutOfCore = true }
	checkFingerprint(t, nova.DefaultConfig(), novaFingerprint, map[string]knob[nova.Config]{
		"GPNs":                {value: 2},
		"PEsPerGPN":           {value: 4},
		"CacheBytesPerPE":     {value: 128 << 10},
		"SuperblockDim":       {value: 64},
		"ActiveBufferEntries": {value: 40},
		"Spill":               {value: "fifo"},
		"Fabric":              {value: "ideal"},
		"Topology":            {value: "ring"},
		"CoalesceWindow":      {value: int64(16)},
		"CoalesceCapacity":    {prep: func(c *nova.Config) { c.CoalesceWindow = 16 }, value: 8},
		"OutOfCore":           {value: true},
		"SSDPreset":           {prep: outOfCore, value: "sata"},
		"SSDResidentPages":    {prep: outOfCore, value: 64},
		"Mapping":             {value: "interleave"},
		"Seed":                {value: int64(0)}, // an explicit 0 is seed 0, not the default
		"MaxEvents":           {value: uint64(1000)},
		"StallTimeout":        {value: time.Second},
		"Shards":              {value: 2},
		"Observer":            {value: sim.NewInterrupt()},
	}, []string{"MaxEvents", "StallTimeout", "Shards", "Observer"}, []string{"MaxEvents", "StallTimeout", "Observer"})

	checkFingerprint(t, nova.PolyGraphBaseline{}, func(b nova.PolyGraphBaseline) (string, error) {
		return b.Engine().Fingerprint(), nil
	}, map[string]knob[nova.PolyGraphBaseline]{
		"OnChipBytes":  {value: int64(1 << 20)},
		"MemBandwidth": {value: 100e9},
		"ForceSlices":  {value: 4},
	}, nil, []string{"MemBandwidth"})

	checkFingerprint(t, nova.Software{}, func(s nova.Software) (string, error) {
		return s.Engine().Fingerprint(), nil
	}, map[string]knob[nova.Software]{
		"Threads": {value: 2},
	}, nil, nil)

	checkFingerprint(t, nova.ExternalMemory{}, extmemFingerprint, map[string]knob[nova.ExternalMemory]{
		"RAMBytes":       {value: int64(1 << 20)},
		"PartitionEdges": {value: int64(1 << 10)},
		"SSDPreset":      {value: "sata"},
		"MaxRounds":      {value: 3},
	}, []string{"MaxRounds"}, []string{"MaxRounds"})
}

// TestFingerprintSpelledOutDefaults: a config that spells out a default
// is the same configuration as one that omits it, so they share a
// fingerprint (and a novad cache entry).
func TestFingerprintSpelledOutDefaults(t *testing.T) {
	spelled := nova.DefaultConfig()
	spelled.Topology = "crossbar"
	spelled.OutOfCore, spelled.SSDPreset, spelled.SSDResidentPages = true, "nvme", 1024
	omitted := nova.Config{GPNs: 1, Seed: 1, OutOfCore: true}
	a, errA := novaFingerprint(spelled)
	b, errB := novaFingerprint(omitted)
	if errA != nil || errB != nil || a != b {
		t.Errorf("nova: spelled-out defaults %q (%v) != omitted %q (%v)", a, errA, b, errB)
	}

	pgSpelled := nova.PolyGraphBaseline{OnChipBytes: 32 << 20, MemBandwidth: 332.8e9}
	if a, b := pgSpelled.Engine().Fingerprint(), (&nova.PolyGraphBaseline{}).Engine().Fingerprint(); a != b {
		t.Errorf("polygraph: spelled-out defaults %q != omitted %q", a, b)
	}

	a, errA = extmemFingerprint(nova.ExternalMemory{RAMBytes: 256 << 20, PartitionEdges: 1 << 20, SSDPreset: "nvme"})
	b, errB = extmemFingerprint(nova.ExternalMemory{})
	if errA != nil || errB != nil || a != b {
		t.Errorf("extmem: spelled-out defaults %q (%v) != omitted %q (%v)", a, errA, b, errB)
	}
}
