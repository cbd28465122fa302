package experiments

import (
	"reflect"
	"slices"
	"testing"

	"oltpsim/internal/core"
	"oltpsim/internal/stats"
)

// resultCacheOptions is a short quick protocol for the result-cache suite.
func resultCacheOptions() Options {
	o := QuickOptions()
	o.WarmupTxns, o.MeasureTxns = 30, 60
	return o
}

// TestResultCacheSweepMatchesCacheFree: a sweep that repeats a point under
// a second name returns, per name, exactly what a cache-free sweep returns,
// while the cache holds one entry per distinct point. Four workers make the
// repeat and its original race for the same entry.
func TestResultCacheSweepMatchesCacheFree(t *testing.T) {
	x := core.BaseConfig(2, 1*core.MB, 1)
	cfgs := []core.Config{x, label(x, "X renamed"), core.FullConfig(2, 1*core.MB, 2)}
	o := resultCacheOptions()
	o.Workers = 4
	got := o.RunMany(cfgs)

	free := o
	free.Results = nil
	want := free.RunMany(cfgs)

	for i := range cfgs {
		if got[i].Name != cfgs[i].Name {
			t.Errorf("result %d is named %q, want %q", i, got[i].Name, cfgs[i].Name)
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s: cached sweep diverges from cache-free sweep:\n%+v\nvs\n%+v", cfgs[i].Name, got[i], want[i])
		}
	}
	if n := o.Results.size(); n != 2 {
		t.Fatalf("cache holds %d entries, want 2 (two distinct points)", n)
	}
}

// TestPaperSweepSharesRepeatedBars: the paper's figures repeat 10 of their
// 57 bars (the Base bar heads every figure, and the 2M8w and 1M4w RAC bars
// recur), so one Options value running every figure simulates 47 points.
// Zero-transaction runs build each machine and nothing more.
func TestPaperSweepSharesRepeatedBars(t *testing.T) {
	o := QuickOptions()
	o.WarmupTxns, o.MeasureTxns = 0, 0
	bars := 0
	for _, run := range []func(Options) Figure{
		Fig05, Fig06, Fig07, Fig08, Fig10Uni, Fig10MP, Fig11, Fig12Small, Fig12Large, Fig13Uni, Fig13MP,
	} {
		bars += len(run(o).Bars)
	}
	if bars != 57 || o.Results.size() != 47 {
		t.Fatalf("the figures ran %d bars as %d distinct points, want 57 bars as 47 points", bars, o.Results.size())
	}
}

// TestResultCacheKeyedOptionsMiss: every option that shapes a result or its
// execution path gives a fresh simulation, and a renamed repeat of the
// original does not.
func TestResultCacheKeyedOptionsMiss(t *testing.T) {
	cfg := core.BaseConfig(2, 1*core.MB, 1)
	o := resultCacheOptions()
	o.Workers = 1
	o.Run(cfg)
	variants := []struct {
		field  string
		mutate func(*Options)
	}{
		{"Seed", func(v *Options) { v.Seed = 7 }},
		{"WarmupTxns", func(v *Options) { v.WarmupTxns++ }},
		{"Quick", func(v *Options) { v.Quick = false }},
		{"NoFastForward", func(v *Options) { v.NoFastForward = true }},
	}
	for _, tc := range variants {
		v := o
		tc.mutate(&v)
		before := o.Results.size()
		v.Run(cfg)
		if o.Results.size() != before+1 {
			t.Errorf("changing %s was answered from the cache", tc.field)
		}
	}
	before := o.Results.size()
	if res := o.Run(label(cfg, "again")); res.Name != "again" {
		t.Errorf("cache hit is named %q, want %q", res.Name, "again")
	}
	if o.Results.size() != before {
		t.Error("an identical point under a new name missed the cache")
	}
}

// TestResultCacheBypassesScenarios: a scenario run always simulates and
// leaves the cache untouched, so phased runs never share a steady entry.
func TestResultCacheBypassesScenarios(t *testing.T) {
	cfg := core.BaseConfig(2, 1*core.MB, 1)
	o := resultCacheOptions()
	o.Scenario = compileProfile(t, burstProfile())
	a := o.Run(cfg)
	b := o.Run(label(cfg, "again"))
	if n := o.Results.size(); n != 0 {
		t.Fatalf("scenario runs left %d cache entries, want 0", n)
	}
	b.Name = a.Name
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two scenario runs of one point diverge")
	}
}

// TestResultCacheProgressPerBar: Progress fires once per bar, cache hits
// included, on the serial and parallel paths.
func TestResultCacheProgressPerBar(t *testing.T) {
	x := core.BaseConfig(1, 1*core.MB, 1)
	cfgs := []core.Config{x, label(x, "x2"), label(x, "x3")}
	for _, workers := range []int{1, 4} {
		o := resultCacheOptions()
		o.Workers = workers
		calls := 0
		o.Progress = func(done, total int) { calls++ }
		o.RunMany(cfgs)
		if calls != len(cfgs) {
			t.Errorf("workers=%d: Progress fired %d times, want %d", workers, calls, len(cfgs))
		}
		if n := o.Results.size(); n != 1 {
			t.Errorf("workers=%d: cache holds %d entries, want 1", workers, n)
		}
	}
}

// optionsFieldRoles classifies every Options field for the result cache.
// A keyed field is part of resultKey; a neutral field never changes a
// result or the path that produces it; a bypass field routes the run
// around the cache. A new field fails TestResultKeyCoversOptions until it
// is classified here.
var optionsFieldRoles = map[string]string{
	"WarmupTxns":    "keyed",
	"MeasureTxns":   "keyed",
	"Seed":          "keyed",
	"Quick":         "keyed",
	"Workers":       "keyed",
	"NoFastForward": "keyed",
	"Scenario":      "bypass", // TestResultCacheBypassesScenarios
	"Progress":      "neutral",
	"Zeta":          "neutral",
	"Results":       "neutral",
}

// TestResultKeyCoversOptions perturbs each Options field in turn: keyed
// fields must change the result key, neutral ones must not.
func TestResultKeyCoversOptions(t *testing.T) {
	cfg := core.BaseConfig(8, 8*core.MB, 1)
	want := Options{}.resultKey(cfg)
	typ := reflect.TypeOf(Options{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		role, ok := optionsFieldRoles[name]
		if !ok {
			t.Errorf("Options.%s is unclassified: key it in resultKey or mark it neutral or bypass in optionsFieldRoles", name)
			continue
		}
		var o Options
		perturb(t, reflect.ValueOf(&o).Elem().Field(i))
		changed := o.resultKey(cfg) != want
		switch {
		case role == "keyed" && !changed:
			t.Errorf("Options.%s is keyed but does not change the result key", name)
		case role == "neutral" && changed:
			t.Errorf("Options.%s is neutral but changes the result key", name)
		}
	}
}

// TestConfigFingerprintCoversEveryField perturbs every exported field of
// core.Config, the RAC and LatencyOverride pointees and the nested OOO
// struct included, and requires Fingerprint to change: the result key
// rests on it. Only the display name is left out.
func TestConfigFingerprintCoversEveryField(t *testing.T) {
	fresh := func() core.Config {
		cfg := core.FullConfig(8, 2*core.MB, 8)
		cfg.RAC = &core.RACConfig{SizeBytes: 8 * core.MB, Assoc: 8}
		lat := cfg.Latencies()
		cfg.LatencyOverride = &lat
		cfg.OutOfOrder = true
		cfg.OOO = core.DefaultOOO()
		return cfg
	}
	want := fresh().Fingerprint()

	type field struct {
		name string
		idx  []int
	}
	var fields []field
	var walk func(typ reflect.Type, prefix []int, name string)
	walk = func(typ reflect.Type, prefix []int, name string) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() {
				continue
			}
			idx := append(slices.Clone(prefix), i)
			ft := f.Type
			if ft.Kind() != reflect.Struct {
				fields = append(fields, field{name + f.Name, idx})
			}
			if ft.Kind() == reflect.Pointer {
				ft = ft.Elem()
			}
			if ft.Kind() == reflect.Struct {
				walk(ft, idx, name+f.Name+".")
			}
		}
	}
	walk(reflect.TypeOf(core.Config{}), nil, "")

	for _, f := range fields {
		cfg := fresh()
		v := reflect.ValueOf(&cfg).Elem()
		for _, i := range f.idx {
			if v.Kind() == reflect.Pointer {
				v = v.Elem()
			}
			v = v.Field(i)
		}
		perturb(t, v)
		changed := cfg.Fingerprint() != want
		if f.name == "Name" {
			if changed {
				t.Error("Config.Name changes the fingerprint; renamed repeats would miss the cache")
			}
			continue
		}
		if !changed {
			t.Errorf("Config.%s does not change the fingerprint", f.name)
		}
	}
}

// TestRunResultIsPlainValue: the cache hands out copies of one RunResult,
// which is only safe while the type holds no references.
func TestRunResultIsPlainValue(t *testing.T) {
	var check func(typ reflect.Type, path string)
	check = func(typ reflect.Type, path string) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Chan, reflect.Func, reflect.Interface, reflect.UnsafePointer:
			t.Errorf("%s is a %s: copies of a cached result would share it", path, typ.Kind())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				check(typ.Field(i).Type, path+"."+typ.Field(i).Name)
			}
		case reflect.Array:
			check(typ.Elem(), path+"[]")
		}
	}
	check(reflect.TypeOf(stats.RunResult{}), "RunResult")
}

// perturb sets v to a different value of its type.
func perturb(t *testing.T, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 1)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Pointer:
		if v.IsNil() {
			v.Set(reflect.New(v.Type().Elem()))
		} else {
			v.SetZero()
		}
	case reflect.Func:
		v.Set(reflect.MakeFunc(v.Type(), func([]reflect.Value) []reflect.Value { return nil }))
	default:
		t.Fatalf("perturb: unhandled kind %s", v.Kind())
	}
}
