package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"testing"

	"oltpsim/internal/stats"
)

func TestTailHasTenSamplesBeyond(t *testing.T) {
	if _, _, ok := tail(make([]float64, 10)); ok {
		t.Fatal("10 samples gave a tail percentile; none has 10 samples beyond it")
	}
	for _, n := range []int{11, 12, 20, 34, 46} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so tail must sort
		}
		v, pct, ok := tail(xs)
		if !ok {
			t.Fatalf("n=%d: no tail", n)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond != 10 {
			t.Errorf("n=%d: %d samples beyond the tail value %g, want exactly 10", n, beyond, v)
		}
		if want := 100 * float64(n-10) / float64(n); pct != want {
			t.Errorf("n=%d: percentile %g, want %g", n, pct, want)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{4, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
}

// fakeServer answers the job API: the first submission with 429, later
// ones with a job whose stream ends done and whose results are results.
func fakeServer(t *testing.T, results []stats.RunResult) *httptest.Server {
	posts := 0
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		posts++
		if posts == 1 {
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"job queue is full"}`)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id":"job-%d","state":"queued"}`, posts)
	})
	mux.HandleFunc("GET /jobs/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "id: 0\nevent: started\ndata: {}\n\nid: 1\nevent: checkpoint\ndata: {}\n\nid: 2\nevent: done\ndata: {}\n\n")
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		if err := json.NewEncoder(w).Encode(map[string]any{"id": r.PathValue("id"), "state": "done",
			"checkpoints": 1, "results": results}); err != nil {
			t.Error(err)
		}
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

func TestFailRatioCountsRefusalsAndMismatches(t *testing.T) {
	results := []stats.RunResult{{Name: "served", Txns: 400}}
	want, err := json.Marshal(results)
	if err != nil {
		t.Fatal(err)
	}
	wrong, err := json.Marshal([]stats.RunResult{{Name: "served", Txns: 401}})
	if err != nil {
		t.Fatal(err)
	}
	ts := fakeServer(t, results)
	svc := &service{base: ts.URL, client: ts.Client()}
	var runs []jobRun
	for _, expect := range [][]byte{want, wrong, want} { // 429, mismatch, match
		jr, err := svc.job(0, []byte(`{}`), expect, nil)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, jr)
	}
	var tl tally
	tallyJobs(&tl, runs)
	if tl.attempted != 3 || tl.failed != 2 {
		t.Fatalf("attempted %d, failed %d; want 3 and 2 (%q)", tl.attempted, tl.failed, tl.why)
	}
	if got := tl.failRatio(); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("fail ratio %g, want 2/3", got)
	}
	if runs[2].checkpoint != 1 || runs[2].started.IsZero() || len(runs[2].ckpts) != 1 {
		t.Errorf("matching job not followed through its stream: %+v", runs[2])
	}
	o := newOutcome()
	o.tally = tl
	if rep := o.report(); rep.Correct || rep.Failed != 2 {
		t.Errorf("report %+v, want correct=false with 2 failed", rep)
	}
}

func TestClosureArithmetic(t *testing.T) {
	residual, share := closure(100, 30, 20, 10, 15)
	if residual != 25 || share != 0.75 {
		t.Fatalf("closure(100; 30+20+10+15) = %g, %g; want 25, 0.75", residual, share)
	}
	// Per reference: oltp 30, memory 50 of which directory 10 (so cache
	// 40), cpu 5, normal run 100; the layers sum to 85.
	l := ledger{refs: 1000, txns: 10, oltpNS: 30e3, memNS: 50e3, dirNS: 10e3, cpuNS: 5e3, stepNS: 100e3,
		recordNS: 150e3, cacheAccesses: 2000, dirOps: 100}
	o := newOutcome()
	l.report(o)
	for name, want := range map[string]float64{
		"core.step_ns_per_ref":     100,
		"core.residual_ns_per_ref": 15,
		"trace.closure":            0.85,
		"trace.overhead":           0.5,
		"cache.ns_per_access":      20,
		"coherence.ns_per_op":      100,
		"oltp.refs_per_txn":        100,
	} {
		if got := o.metrics[name].Value; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
}

// benchmarkFile is the subset of BENCHMARK.json the tests read.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func TestMetricNamesMatchBenchmarkFile(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	declared := func(kind string, names, us []string) map[string]string {
		out := map[string]string{}
		for i, n := range names {
			if !nameRE.MatchString(n) {
				t.Errorf("%s name %q outside the allowed character set", kind, n)
			}
			if us != nil && !unitRE.MatchString(us[i]) {
				t.Errorf("%s %q: unit %q outside the allowed character set", kind, n, us[i])
			}
			if seen[n] {
				t.Errorf("name %q used twice", n)
			}
			seen[n] = true
			if us != nil {
				out[n] = us[i]
			}
		}
		return out
	}
	var wl []string
	for _, w := range bf.Workloads {
		wl = append(wl, w.Name)
	}
	declared("workload", wl, nil)
	var names, us []string
	for _, m := range bf.EndToEnd {
		names, us = append(names, m.Name), append(us, m.Unit)
	}
	e2e := declared("end_to_end", names, us)
	names, us = nil, nil
	for _, m := range bf.PerLayer {
		names, us = append(names, m.Name), append(us, m.Unit)
	}
	layers := declared("per_layer", names, us)

	if got, want := keys(workloads), sorted(wl); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("workloads %v, BENCHMARK.json lists %v", got, want)
	}
	o := newOutcome()
	if err := endToEnd(o, []roundStat{{1, 1}}, []float64{1}, make([]float64, 11)); err != nil {
		t.Fatal(err)
	}
	if err := o.complete(false); err != nil {
		t.Error(err)
	}
	for _, c := range []struct {
		kind     string
		reported map[string]string
		declared map[string]string
	}{{"end_to_end", endToEndUnits, e2e}, {"per_layer", perLayerUnits, layers}} {
		if fmt.Sprint(c.reported) != fmt.Sprint(c.declared) {
			t.Errorf("%s metrics reported %v, BENCHMARK.json declares %v", c.kind, c.reported, c.declared)
		}
	}
}

func keys[V any](m map[string]V) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sorted(xs []string) []string {
	out := append([]string(nil), xs...)
	sort.Strings(out)
	return out
}
