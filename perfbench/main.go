// Command perfbench is the repository's benchmark. It runs one seeded
// workload — sim, serve or analysis — against the program's packages in
// this process and prints, as its last line, one JSON object with the
// workload's metrics and its output checks:
//
//	perfbench --workload sim --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it times the workload untraced and reports the
// end-to-end metrics; with --trace 1 it profiles every layer with
// wall-clock spans and reports the per-layer metrics. README.md maps the
// metrics to the layers.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics and the outcome of its output checks.
type report struct {
	attempted int
	failed    int
	metrics   map[string]metric
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{v, unit} }

// check counts one checked operation, failing it when err is non-nil.
func (r *report) check(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %v\n", err)
	}
}

// opts carries the command line.
type opts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// spanDir is where the traced run writes its spans.
var spanDir = filepath.Join(".bench_build", "spans")

var workloads = map[string]func(opts, *report) error{
	"sim":      runSim,
	"serve":    runServe,
	"analysis": runAnalysis,
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var o opts
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: sim, serve or analysis")
	flag.Int64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 profiles the layers with spans instead of timing end to end")
	flag.Parse()
	o.trace = trace == 1
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, not %d", trace)
	}
	if o.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	w, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown --workload %q (sim, serve, analysis)", o.workload)
	}
	want, err := declaredMetrics(o.trace)
	if err != nil {
		return err
	}

	r := newReport()
	stolen := stealMeter()
	if o.trace {
		err = runProfile(o, r)
	} else {
		err = w(o, r)
	}
	if err != nil {
		return err
	}
	fmt.Printf("host: %.1f%% of CPU time stolen by the hypervisor during the run; peak RSS %.0f MB\n",
		100*stolen(), peakRSSMB())
	if err := r.matches(want); err != nil {
		return err
	}
	return r.print()
}

// declaredMetrics reads the metric names BENCHMARK.json promises for
// this kind of run, so the output cannot drift from the declaration.
func declaredMetrics(trace bool) (map[string]string, error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	list := decl.EndToEnd
	if trace {
		list = decl.PerLayer
	}
	want := map[string]string{}
	for _, m := range list {
		want[m.Name] = m.Unit
	}
	return want, nil
}

// matches checks the report carries exactly the declared metrics.
func (r *report) matches(want map[string]string) error {
	var problems []string
	for name, unit := range want {
		m, ok := r.metrics[name]
		switch {
		case !ok:
			problems = append(problems, "missing "+name)
		case m.Unit != unit:
			problems = append(problems, fmt.Sprintf("%s in %s, declared %s", name, m.Unit, unit))
		}
	}
	for name := range r.metrics {
		if _, ok := want[name]; !ok {
			problems = append(problems, "undeclared "+name)
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("metrics differ from BENCHMARK.json: %s", strings.Join(problems, "; "))
	}
	return nil
}

// print writes every metric as a readable line, then the result object
// as the last line of standard output.
func (r *report) print() error {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %16.6g %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	out, err := json.Marshal(map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   r.metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// retainedMB is the memory the process holds once the timed phase is
// over: the live heap after a garbage collection. Resident memory would
// add what the runtime has not yet returned to the system, which moved
// with heap fragmentation between runs of the same code. Peak resident
// memory is printed alongside but not gated: under bursts of 32 MB
// detector tables, where the collector happens to run decides the peak,
// which moved by a fifth between runs of the same code.
func retainedMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// peakRSSMB is the process's peak resident set.
func peakRSSMB() float64 { return procStatusMB("VmHWM:") }

// procStatusMB reads one kB-valued field of /proc/self/status in MB.
func procStatusMB(field string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// cpuTicks reads the host's aggregate CPU ticks from /proc/stat: all of
// them, and those stolen by the hypervisor.
func cpuTicks() (total, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// stealMeter reports the share of CPU time the hypervisor stole since
// it was made: a timed run on a busy host reads slow, and this says so.
func stealMeter() func() float64 {
	t0, s0 := cpuTicks()
	return func() float64 {
		t1, s1 := cpuTicks()
		if t1 <= t0 {
			return 0
		}
		return (s1 - s0) / (t1 - t0)
	}
}

// procs is the client and worker count the workloads scale to.
func procs() int { return runtime.GOMAXPROCS(0) }

// repeatSetup runs setup n times and returns the last result with the
// median duration in seconds. Each earlier result is released by
// discard, when non-nil, before the next set-up starts.
func repeatSetup[T any](n int, setup func() (T, error), discard func(T)) (T, float64, error) {
	var (
		last  T
		times []float64
	)
	for i := 0; i < n; i++ {
		if i > 0 && discard != nil {
			discard(last)
		}
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return v, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		last = v
	}
	return last, median(times), nil
}

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 3
