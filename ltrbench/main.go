// Command ltrbench is the repository's benchmark. It runs one workload
// in-process against the real longtail.System, checks the outputs against
// computations made apart from the code under test, and prints one JSON
// object as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics; with -trace 1 the
// run records spans around its calls into each layer and the metrics are
// the per-layer numbers derived from them. See README.md for the
// workloads, the metric map and how to re-record the reference figures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	longtail "longtailrec"
)

// worldSeed fixes the synthetic corpora, as a real deployment serves one
// fixed catalog: --seed draws the traffic (held-out sample, query order,
// write streams), not the world, so seeds differ in what is asked, not in
// how large the graph is.
const worldSeed = 1

// phase names the stages every run reports operation counts for.
type phase int

const (
	phaseSetup phase = iota
	phaseWarmup
	phaseMeasured
	phaseCheck
	numPhases
)

var phaseNames = [numPhases]string{"setup", "warm-up", "measured", "check"}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run carries what every workload shares: its inputs, the tracer, the
// per-phase operation counts, the metrics and the failed checks.
type run struct {
	root     string
	workload string
	seed     int64
	seconds  time.Duration
	procs    int // GOMAXPROCS of the measured phase
	tr       *Tracer

	attempted [numPhases]atomic.Int64
	failed    [numPhases]atomic.Int64
	reqs      atomic.Int64 // request ids for spans

	mu       sync.Mutex
	e2e      map[string]metric
	layer    map[string]metric
	failures []string
}

// op records one operation of phase p; a non-nil err counts it failed and
// keeps the first few messages for the report.
func (r *run) op(p phase, err error) {
	r.attempted[p].Add(1)
	if err != nil {
		r.failed[p].Add(1)
		r.fail("%s: %v", phaseNames[p], err)
	}
}

// fail records a failed output check.
func (r *run) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	} else if len(r.failures) == 20 {
		r.failures = append(r.failures, "... further failures omitted")
	}
}

func (r *run) setE2E(name, unit string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.e2e[name] = metric{Value: v, Unit: unit}
}

func (r *run) setLayer(name, unit string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.layer[name] = metric{Value: v, Unit: unit}
}

// checkFailed reports whether any output check or operation has failed.
func (r *run) checkFailed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.failures) > 0
}

// scratchDir returns a fresh directory under the checkout's build area.
func (r *run) scratchDir(name string) (string, error) {
	dir := filepath.Join(r.root, ".bench_build", "runs", fmt.Sprintf("%s-%d-%s", r.workload, os.Getpid(), name))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}

// workloads maps each workload to its run function and the GOMAXPROCS of its
// measured phase; set-up runs on one P. Every run is bound to one CPU: on
// the two-vCPU shared host this benchmark was tuned on, a process that kept
// both vCPUs busy lost a varying share of its time to hypervisor steal. In
// runs alternated on the same host, durable_ingest free to move between the
// vCPUs lost 0.15-0.58 of its busy time to steal and read 18-25 reads/s,
// bound to one CPU 0.09-0.24 and 24-27 reads/s; hot_mix unbound lost
// 0.15-0.48 and read 1430-2080 reads/s, bound 0.04-0.10 and 1250-1420.
// hot_mix keeps two Ps on its one CPU: with one P a cache hit waits behind
// the other client's miss for Go's scheduling slice, and the read median
// went from 0.19 to 0.35 ms. The walks of cold_walk and durable_ingest
// run on one P.
var workloads = map[string]struct {
	run   func(*run) error
	procs int
}{
	"cold_walk":      {runColdWalk, 1},
	"hot_mix":        {runHotMix, 2},
	"durable_ingest": {runDurableIngest, 1},
}

func main() {
	var (
		root     = flag.String("root", ".", "checkout root; scratch files go under <root>/.bench_build")
		workload = flag.String("workload", "", "cold_walk, hot_mix or durable_ingest")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 10, "length of the measured phase")
		trace    = flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	)
	flag.Parse()
	w, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "ltrbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	r := &run{
		root:     *root,
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		tr:       newTracer(*trace == 1),
		e2e:      map[string]metric{},
		layer:    map[string]metric{},
	}
	r.procs = w.procs
	runtime.GOMAXPROCS(1)
	fmt.Printf("%s: seed %d, GOMAXPROCS 1 (set-up) and %d (measured), NumCPU %d, %s\n", *workload, *seed, w.procs, runtime.NumCPU(), runtime.Version())
	// The whole run is bound to one CPU, see workloads. A run that cannot
	// bind still measures, with more of the host's noise.
	cpus, err := affinity()
	if err == nil {
		err = setAffinity(cpus.lastCPU())
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ltrbench: not bound to one CPU: %v\n", err)
	}
	if err := w.run(r); err != nil {
		fmt.Fprintf(os.Stderr, "ltrbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	os.Exit(r.report())
}

// report prints the per-phase counts, the failed checks and the result
// line, and returns the exit code.
func (r *run) report() int {
	if r.tr != nil {
		dir := filepath.Join(r.root, ".bench_build", "traces")
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", r.workload, r.seed))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			r.fail("trace: %v", err)
		} else if err := r.tr.WriteFile(path); err != nil {
			r.fail("%v", err)
		} else {
			fmt.Printf("spans written to %s\n", path)
		}
	}
	for p := phase(0); p < numPhases; p++ {
		fmt.Printf("phase %-8s attempted=%d failed=%d\n", phaseNames[p], r.attempted[p].Load(), r.failed[p].Load())
	}
	for _, f := range r.failures {
		fmt.Printf("CHECK FAILED: %s\n", f)
	}
	metrics := r.e2e
	if r.tr != nil {
		// The traced run's end-to-end figures include the tracing cost;
		// they are printed for the overhead comparison only.
		fmt.Printf("traced end-to-end (not comparable to untraced runs): %s\n", formatMetrics(r.e2e))
		metrics = r.layer
	}
	correct := !r.checkFailed()
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, r.attempted[phaseMeasured].Load(), r.failed[phaseMeasured].Load(), metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "ltrbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	if !correct {
		return 1
	}
	return 0
}

func formatMetrics(m map[string]metric) string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = n + "=" + strconv.FormatFloat(m[n].Value, 'g', 6, 64)
	}
	return strings.Join(parts, " ")
}

// memSnapshot brackets a phase to report its allocation and GC pause cost.
type memSnapshot struct{ totalAlloc, pauseNs uint64 }

func readMem() memSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnapshot{totalAlloc: ms.TotalAlloc, pauseNs: ms.PauseTotalNs}
}

// peakRSSMB returns the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// since returns the allocation and pause totals accrued after b.
func (a memSnapshot) since(b memSnapshot) memSnapshot {
	return memSnapshot{totalAlloc: a.totalAlloc - b.totalAlloc, pauseNs: a.pauseNs - b.pauseNs}
}

// timed runs fn inside a root span named name and returns its duration.
func (r *run) timed(name string, fn func() error) (time.Duration, error) {
	id := r.tr.Begin(name, -1, 0)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	r.tr.End(id, "")
	return d, err
}

// measure ends set-up: it reports the median of the run's set-up times as
// setup_s, prints each of them, switches to the measured phase's
// GOMAXPROCS and settles.
func (r *run) measure(setups []float64) {
	fmt.Printf("%s: set-ups %.4g s\n", r.workload, setups)
	r.setE2E("setup_s", "s", median(setups))
	runtime.GOMAXPROCS(r.procs)
	settle()
}

// setPeakRSS reports the resident-set high-water mark as an end-to-end
// metric.
func (r *run) setPeakRSS() error {
	mb, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.setE2E("peak_rss_mb", "MB", mb)
	return nil
}

// settle collects garbage, returns freed memory to the OS and flushes
// dirty file data, so that one set-up's leftovers (garbage, checkpoint
// files written and removed) do not land in the next one's timing, the
// measured fsyncs or the peak RSS. It runs between set-ups and before the
// measured phase, outside any timing.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
	syscall.Sync()
}

// newReq returns a fresh request id for the spans of one operation.
func (r *run) newReq() int64 { return r.reqs.Add(1) }

// runClients runs client(c) for c in [0, n) concurrently and waits for all.
func runClients(n int, client func(c int)) {
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client(c)
		}()
	}
	wg.Wait()
}

// compactAfter calls CompactGraph, inside a span, after every compactEvery
// writes; writes is the workload's running write count.
func (r *run) compactAfter(sys *longtail.System, writes int64) {
	if writes%compactEvery == 0 {
		r.timed(spanCompact, func() error { sys.CompactGraph(); return nil })
	}
}
