// Command perfbench is the oltpsim benchmark. It drives the simulator only
// through its public entry points (the figure runners, the harness and
// machine constructors, the layer types, the checkpoint runner and the job
// server over HTTP), checks every output, and prints one JSON result as the
// last line of standard output. Run it through run.sh, from the root of a
// checkout:
//
//	bash perfbench/run.sh --workload figs-uni --seed 0 --seconds 20 --trace 0
//
// Workloads:
//
//	figs-uni   the uniprocessor figure bars (Figures 5, 7, 10 uni, 13 uni)
//	figs-8p    the 8-processor figure bars (Figures 6, 8, 10 8p, 11, 12, 13 8p)
//	jobs-ckpt  a closed loop of 2 clients against an in-process job server
//
// --trace 0 repeats timed rounds of the workload for --seconds and reports
// the end-to-end metrics. --trace 1 runs one traced round plus the
// per-layer replays (trace.go) and reports the per-layer metrics; its spans
// are written to .bench_build/trace/ when the run ends. The command exits 1
// when any output check fails, after printing the result.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// workloads maps each workload name to its untraced and traced runs.
var workloads = map[string]struct {
	timed  func(seed uint64, seconds int) (*outcome, error)
	traced func(seed uint64, tr *tracer) (*outcome, error)
}{
	"figs-uni":  {timed: timedFigs(uniFigs), traced: tracedFigs(uniFigs)},
	"figs-8p":   {timed: timedFigs(mpFigs), traced: tracedFigs(mpFigs)},
	"jobs-ckpt": {timed: timedJobs, traced: tracedJobs},
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: figs-uni, figs-8p or jobs-ckpt")
	seed := fs.Uint64("seed", 0, "workload seed (0 is the seed figures_output.txt was generated with)")
	seconds := fs.Int("seconds", 20, "how long the timed rounds run")
	trace := fs.Int("trace", 0, "0: timed rounds, end-to-end metrics; 1: traced run, per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	switch {
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "perfbench: unexpected arguments %v\n", fs.Args())
		return 2
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	case *seconds < 1:
		fmt.Fprintf(stderr, "perfbench: --seconds must be >= 1 (got %d)\n", *seconds)
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1 (got %d)\n", *trace)
		return 2
	}

	var out *outcome
	var err error
	if *trace == 0 {
		out, err = w.timed(*seed, *seconds)
	} else {
		tr := newTracer()
		out, err = w.traced(*seed, tr)
		if err == nil {
			err = tr.write(fmt.Sprintf(".bench_build/trace/%s-seed%d.json", *name, *seed))
		}
	}
	if err == nil {
		err = out.complete(*trace == 1)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, why := range out.tally.why {
		fmt.Fprintf(stderr, "perfbench: %s: check failed: %s\n", *name, why)
	}
	fmt.Fprintf(stdout, "workload %s, seed %d, %s\n", *name, *seed, out.note)
	fmt.Fprint(stdout, out.summary())
	line, err := json.Marshal(out.report())
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if out.tally.failed > 0 {
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a run measured: its metrics, its checks, and the lines
// printed above the JSON result for a human reader.
type outcome struct {
	metrics map[string]metric
	tally   tally
	note    string
	extra   []string
}

func newOutcome() *outcome { return &outcome{metrics: map[string]metric{}} }

func (o *outcome) set(name string, v float64, unit string) { o.metrics[name] = metric{v, unit} }

// names returns the metric names in sorted order.
func (o *outcome) names() []string {
	names := make([]string, 0, len(o.metrics))
	for n := range o.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// summary renders every metric, one per line, followed by the extra lines.
func (o *outcome) summary() string {
	var b strings.Builder
	for _, n := range o.names() {
		fmt.Fprintf(&b, "  %-28s %14.6g %s\n", n, o.metrics[n].Value, o.metrics[n].Unit)
	}
	fmt.Fprintf(&b, "  %-28s %14.6g (%d of %d operations failed)\n", "fail_ratio", o.tally.failRatio(), o.tally.failed, o.tally.attempted)
	for _, l := range o.extra {
		fmt.Fprintf(&b, "  %s\n", l)
	}
	return b.String()
}

// endToEndUnits lists every end-to-end metric with its unit.
var endToEndUnits = map[string]string{
	"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
	"ok_ratio": "ratio", "op_p50_s": "s", "op_tail_s": "s",
}

// complete reports an error unless the outcome holds exactly the metrics,
// with their units, that the run kind promises.
func (o *outcome) complete(traced bool) error {
	want := endToEndUnits
	if traced {
		want = perLayerUnits
	}
	for _, n := range o.names() {
		if u, ok := want[n]; !ok || u != o.metrics[n].Unit {
			return fmt.Errorf("metric %s (%s) is not declared with that unit", n, o.metrics[n].Unit)
		}
	}
	if len(o.metrics) != len(want) {
		return fmt.Errorf("reported %d metrics, want %d", len(o.metrics), len(want))
	}
	return nil
}

// result is the JSON result line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (o *outcome) report() result {
	return result{o.tally.failed == 0, o.tally.attempted, o.tally.failed, o.metrics}
}

// tally counts checked operations: a figure bar or a submitted job. An
// operation fails when it is refused (429), ends failed, or its output does
// not match the reference.
type tally struct {
	attempted, failed int
	why               []string
}

// check records one operation, failed unless ok.
func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if !ok {
		t.failed++
		t.why = append(t.why, fmt.Sprintf(format, args...))
	}
}

// failRatio is failed over attempted operations.
func (t *tally) failRatio() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// workers is the simulation parallelism of every workload: the host's
// cores, as the figures command uses them.
func workers() int { return runtime.GOMAXPROCS(0) }

var errTooFewSamples = errors.New("fewer than 11 latency samples: no percentile has 10 beyond it")

// endToEnd fills the end-to-end metrics shared by every workload.
func endToEnd(o *outcome, rounds []roundStat, setups, ops []float64) error {
	walls := make([]float64, len(rounds))
	cpus := make([]float64, len(rounds))
	for i, r := range rounds {
		walls[i], cpus[i] = r.wall, r.cpu
	}
	p, pct, ok := tail(ops)
	if !ok {
		return errTooFewSamples
	}
	set := func(name string, v float64) { o.set(name, v, endToEndUnits[name]) }
	set("wall_s", median(walls))
	set("cpu_s", median(cpus))
	set("setup_s", median(setups))
	set("peak_rss_mb", peakRSSMB())
	set("ok_ratio", 1-o.tally.failRatio())
	set("op_p50_s", median(ops))
	set("op_tail_s", p)
	o.extra = append(o.extra, fmt.Sprintf("op_tail_s is p%.1f of %d samples; %d set-ups; round walls %.3g s",
		pct, len(ops), len(setups), walls))
	return nil
}
