// Command benchmark is the repository's end-to-end benchmark. It runs
// one of three workloads — scale-1m, figures, daemon-mix — in this
// process, checks every output against its reference digest, and prints
// the metrics as one JSON object on the last line of standard output.
// With --trace 1 it makes a traced run instead: spans recorded around
// each call into a layer give the per-layer metrics. See README.md.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash benchmark/run.sh --workload scale-1m --seed 1 --seconds 30 --trace 0
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the seed the reference digests were recorded with.
const defaultSeed = 1

// outDir holds run records, spans and scratch data, inside the checkout.
const outDir = ".bench_build/benchmark"

// nproc is the machine size the load is set for: at most this many
// goroutines of load and this many client connections.
const nproc = 2

// size fixes how much work one operation of each workload does.
type size struct {
	name string
	// scale-1m: hosts in the two-level AS internet and the horizon.
	scaleHosts, scaleTicks int
	// figures: replicas per curve, synthetic trace length in minutes,
	// the figure IDs (nil = every ID) and the net built for setup_s.
	figRuns, figTraceMinutes int
	figIDs                   []string
	figNetNodes, figSetups   int
	// daemon-mix: jobs per daemon lifetime, and the grid job's shape.
	mixJobs                        int
	gridNodes, gridRuns, gridTicks int
	replayTicks, daemonSetups      int
}

var (
	fullSize = size{name: "full",
		scaleHosts: 1_000_000, scaleTicks: 30,
		figRuns: 5, figTraceMinutes: 45, figNetNodes: 1000, figSetups: 9,
		mixJobs: 2000, gridNodes: 1000, gridRuns: 2, gridTicks: 220, replayTicks: 60, daemonSetups: 100,
	}
	// tinySize keeps every code path of fullSize at a size the smoke
	// test runs in seconds.
	tinySize = size{name: "tiny",
		scaleHosts: 16384, scaleTicks: 12,
		figRuns: 1, figTraceMinutes: 2, figIDs: []string{"fig1a", "fig4", "fig9a", "tbl-rates", "collateral"},
		figNetNodes: 200, figSetups: 3,
		mixJobs: 10, gridNodes: 200, gridRuns: 1, gridTicks: 210, replayTicks: 20, daemonSetups: 2,
	}
)

// runEnv is what every operation of one benchmark run shares.
type runEnv struct {
	seed  int64
	size  size
	out   string // scratch and record directory inside the checkout
	check *checker
}

// opResult is one operation's reading.
type opResult struct {
	sample    opSample
	ops       int       // user-visible operations completed (runs, figures or jobs)
	ticksPerS float64   // simulated ticks per second
	latencies []float64 // per-operation latency, ms
	setups    []float64 // set-up times, s
	counts    map[string]int
}

// workload is one of the benchmark's workloads; README.md and
// BENCHMARK.json say why each was chosen.
type workload struct {
	name string
	// opSeconds is the nominal wall time of one full-size operation on
	// 2 CPUs; an untraced run makes --seconds / opSeconds operations.
	opSeconds float64
	// op runs untraced operation i of a run.
	op func(env *runEnv, i int) opResult
	// traced runs one traced operation, filling per-layer metrics.
	traced func(env *runEnv, tr *tracer, layer map[string]float64) opResult
}

var workloads = []workload{
	{name: "scale-1m", opSeconds: 3, op: scaleOp, traced: scaleTraced},
	{name: "figures", opSeconds: 30, op: figuresOp, traced: figuresTraced},
	{name: "daemon-mix", opSeconds: 40, op: daemonOp, traced: daemonTraced},
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the user-visible metrics of an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"alloc_mb", "MiB"},
	{"sim_ticks_per_s", "ticks/s"},
	{"jobs_per_s", "jobs/s"},
	{"job_p50_ms", "ms"},
	{"job_p99_ms", "ms"},
}

// perLayer are the metrics of a traced run. A workload reports 0 for a
// layer it does not exercise (see the layer-contrast table in README.md).
func perLayer() []metricDef {
	defs := []metricDef{
		{"topology.build_s", "s"}, {"topology.nodes", "count"}, {"topology.edges", "count"},
		{"sim.net_build_s", "s"}, {"sim.net_bytes_per_host", "B"},
		{"sim.engine_new_s", "s"}, {"sim.engine_bytes_per_host", "B"},
		{"sim.tick_ms_p50", "ms"}, {"sim.tick_ms_max", "ms"}, {"sim.ns_per_scan", "ns"},
		{"sim.scan_attempts", "count"}, {"sim.packets_generated", "count"},
		{"sim.packets_delivered", "count"}, {"sim.packets_dropped", "count"},
		{"sim.new_infections", "count"}, {"sim.delivered_share", "ratio"},
		{"sim.allocs_per_tick", "count"}, {"sim.alloc_bytes_per_tick", "B"},
		{"go.gc_cycles", "count"}, {"go.gc_pause_ms", "ms"},
	}
	for _, id := range allFigureIDs() {
		defs = append(defs, metricDef{"experiment." + id + "_s", "s"})
	}
	return append(defs,
		metricDef{"experiment.longest_figure_s", "s"},
		metricDef{"runner.core_utilization", "ratio"}, metricDef{"runner.failed", "count"},
		metricDef{"runner.retries", "count"},
		metricDef{"trace.records", "count"}, metricDef{"trace.generate_s", "s"},
		metricDef{"trace.generate_alloc_mb", "MiB"}, metricDef{"trace.analyze_aggregate_s", "s"},
		metricDef{"trace.analyze_per_host_s", "s"},
		metricDef{"spec.parse_expand_us", "us"}, metricDef{"spec.netcache_hit_share", "ratio"},
		metricDef{"spec.netcache_builds", "count"},
		metricDef{"daemon.submit_ms_p50", "ms"}, metricDef{"daemon.queue_wait_ms_p50", "ms"},
		metricDef{"daemon.queue_wait_ms_p99", "ms"}, metricDef{"daemon.run_ms_p50.golden", "ms"},
		metricDef{"daemon.run_ms_p50.grid", "ms"}, metricDef{"daemon.run_ms_p50.replay", "ms"},
		metricDef{"daemon.result_ms_p50", "ms"}, metricDef{"daemon.stream_records_per_job", "count"},
		metricDef{"daemon.rejected", "count"}, metricDef{"daemon.queue_high_water", "count"},
		metricDef{"safeio.commits_per_job", "count"}, metricDef{"safeio.fsyncs_per_job", "count"},
		metricDef{"safeio.bytes_per_job", "B"}, metricDef{"safeio.fsync_ms_p50", "ms"},
		metricDef{"safeio.fsync_ms_p99", "ms"}, metricDef{"safeio.busy_share", "ratio"},
		metricDef{"safeio.checkpoint_writes", "count"}, metricDef{"safeio.checkpoint_bytes_max", "B"},
		metricDef{"obs.tracing_overhead_share", "ratio"},
	)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is everything one benchmark run produced, written beside its
// report so that runs on mismatched environments are never compared.
type run struct {
	Env      map[string]any    `json:"env"`
	Report   report            `json:"report"`
	Samples  map[string]int    `json:"samples"`
	Problems []string          `json:"problems,omitempty"`
	Digests  map[string]string `json:"digests"`
	OpWallS  []float64         `json:"op_wall_s"`
}

//go:embed reference.json
var referenceJSON []byte

// reference holds the output digests recorded at defaultSeed, full size.
type reference struct {
	Seed    int64             `json:"seed"`
	Digests map[string]string `json:"digests"`
}

func loadReference() (reference, error) {
	var ref reference
	err := json.Unmarshal(referenceJSON, &ref)
	return ref, err
}

func main() {
	var (
		name     = flag.String("workload", "", "scale-1m, figures, daemon-mix, or all")
		seed     = flag.Int64("seed", defaultSeed, "workload seed; every program input derives from it")
		seconds  = flag.Float64("seconds", 30, "run length: an untraced run makes seconds / (nominal operation time) operations")
		traced   = flag.Int("trace", 0, "1 makes a traced run and reports per-layer metrics")
		writeRef = flag.Bool("write-reference", false, "record this run's digests as the reference (with --workload all --seed 1)")
	)
	flag.Parse()
	if *traced != 0 && *traced != 1 {
		fatalf("--trace must be 0 or 1")
	}
	var chosen []workload
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			chosen = append(chosen, w)
		}
	}
	if len(chosen) == 0 {
		fatalf("unknown --workload %q (want scale-1m, figures, daemon-mix or all)", *name)
	}
	if *writeRef && (*name != "all" || *seed != defaultSeed) {
		fatalf("--write-reference needs --workload all --seed %d", defaultSeed)
	}
	ref, err := loadReference()
	if err != nil {
		fatalf("reference.json: %v", err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatalf("%v", err)
	}
	recorded := make(map[string]string)
	allOK := true
	var last report
	for _, w := range chosen {
		refDigests := map[string]string(nil)
		if *seed == ref.Seed && !*writeRef {
			refDigests = ref.Digests
		}
		r, err := runWorkload(w, fullSize, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, outDir, refDigests)
		if err != nil {
			fatalf("%s: %v", w.name, err)
		}
		printRun(os.Stdout, w.name, r)
		for k, v := range r.Digests {
			recorded[k] = v
		}
		allOK = allOK && r.Report.Correct
		last = r.Report
	}
	if *writeRef {
		data, _ := json.MarshalIndent(reference{Seed: defaultSeed, Digests: recorded}, "", "  ")
		path := filepath.Join("benchmark", "reference.json")
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "benchmark: wrote %s\n", path)
	}
	line, err := json.Marshal(last)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
	if !allOK {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// runWorkload makes one benchmark run of w: untraced operations filling
// about dur (end-to-end metrics), or one untraced and one traced
// operation (per-layer metrics).
func runWorkload(w workload, sz size, seed int64, dur time.Duration, traced bool, out string, ref map[string]string) (*run, error) {
	dir, err := os.MkdirTemp(out, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	env := &runEnv{seed: seed, size: sz, out: dir, check: newChecker(ref)}
	r := &run{Env: environment(w.name, seed, sz, traced), Samples: make(map[string]int)}
	var metrics map[string]metric
	if traced {
		metrics, err = tracedRun(w, env, out, r)
	} else {
		metrics = untracedRun(w, env, dur, r)
	}
	if err != nil {
		return nil, err
	}
	c := env.check
	r.Report = report{Correct: c.failed == 0 && c.attempted > 0, Attempted: c.attempted, Failed: c.failed, Metrics: metrics}
	r.Problems = c.problems
	r.Digests = c.digests()
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	mode := "e2e"
	if traced {
		mode = "traced"
	}
	path := filepath.Join(out, fmt.Sprintf("%s-seed%d-%s.json", w.name, seed, mode))
	return r, os.WriteFile(path, append(data, '\n'), 0o644)
}

func untracedRun(w workload, env *runEnv, dur time.Duration, r *run) map[string]metric {
	// The operation count follows from dur alone, not from how fast
	// operations ran, so every run with one seed does the same work.
	n := max(1, int(math.Round(dur.Seconds()/w.opSeconds)))
	ops := make([]opResult, n)
	for i := range ops {
		ops[i] = w.op(env, i)
	}
	col := func(f func(o opResult) float64) []float64 {
		xs := make([]float64, len(ops))
		for i, o := range ops {
			xs[i] = f(o)
		}
		return xs
	}
	var lat, setups []float64
	for _, o := range ops {
		lat = append(lat, o.latencies...)
		setups = append(setups, o.setups...)
	}
	vals := map[string]float64{
		"setup_s":         median(setups),
		"wall_s":          median(col(func(o opResult) float64 { return o.sample.wall })),
		"cpu_s":           median(col(func(o opResult) float64 { return o.sample.cpu })),
		"peak_rss_mb":     median(col(func(o opResult) float64 { return o.sample.rssMB })),
		"alloc_mb":        median(col(func(o opResult) float64 { return o.sample.allocMB })),
		"sim_ticks_per_s": median(col(func(o opResult) float64 { return o.ticksPerS })),
		"jobs_per_s":      median(col(func(o opResult) float64 { return float64(o.ops) / o.sample.wall })),
		"job_p50_ms":      median(lat),
		"job_p99_ms":      quantile(lat, 0.99),
	}
	r.Samples["operations"] = len(ops)
	r.Samples["setup_s"] = len(setups)
	r.Samples["job_latencies"] = len(lat)
	r.Samples["job_p99_ms_beyond"] = beyond(lat, 0.99)
	addCounts(r.Samples, ops...)
	r.OpWallS = col(func(o opResult) float64 { return o.sample.wall })
	out := make(map[string]metric, len(endToEnd))
	for _, d := range endToEnd {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // a failed operation; the run is already not correct
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out
}

func tracedRun(w workload, env *runEnv, out string, r *run) (map[string]metric, error) {
	base := w.op(env, 0)
	tr := newTracer(w.name)
	layer := make(map[string]float64)
	traced := w.traced(env, tr, layer)
	s := traced.sample
	layer["go.gc_cycles"] = s.gcCycles
	layer["go.gc_pause_ms"] = s.gcPauseMs
	layer["runner.core_utilization"] = s.cpu / (s.wall * float64(runtime.GOMAXPROCS(0)))
	layer["obs.tracing_overhead_share"] = s.wall/base.sample.wall - 1
	r.OpWallS = []float64{base.sample.wall, s.wall}
	addCounts(r.Samples, traced)
	if err := tr.write(filepath.Join(out, fmt.Sprintf("%s-seed%d-spans.jsonl", w.name, env.seed))); err != nil {
		return nil, err
	}
	m := make(map[string]metric)
	for _, d := range perLayer() {
		v := layer[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		m[d.name] = metric{Value: v, Unit: d.unit}
	}
	return m, nil
}

// addCounts sums the operations' own counts into samples.
func addCounts(samples map[string]int, ops ...opResult) {
	for _, o := range ops {
		for k, v := range o.counts {
			samples[k] += v
		}
	}
}

// environment records what a run's numbers depend on.
func environment(name string, seed int64, sz size, traced bool) map[string]any {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "unknown"
	if data, err := os.ReadFile(filepath.Join(".git", "HEAD")); err == nil {
		commit = gitCommit(strings.TrimSpace(string(data)))
	}
	return map[string]any{
		"workload": name, "seed": seed, "size": sz.name, "traced": traced,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "load_nproc": nproc,
		"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
		"cpu": cpu, "commit": commit, "time": time.Now().UTC().Format(time.RFC3339),
	}
}

// gitCommit resolves a .git/HEAD line to a commit id without running git
// (a benchmark checkout is usually not a repository; then "unknown").
func gitCommit(head string) string {
	ref, ok := strings.CutPrefix(head, "ref: ")
	if !ok {
		return head
	}
	data, err := os.ReadFile(filepath.Join(".git", ref))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(data))
}

// printRun writes the run's environment, sample counts and metrics as
// human-readable lines.
func printRun(w io.Writer, name string, r *run) {
	env, _ := json.Marshal(r.Env)
	fmt.Fprintf(w, "# %s env %s\n", name, env)
	samples, _ := json.Marshal(r.Samples)
	fmt.Fprintf(w, "# %s samples %s\n", name, samples)
	names := make([]string, 0, len(r.Report.Metrics))
	for k := range r.Report.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := r.Report.Metrics[k]
		fmt.Fprintf(w, "%-12s %-34s %14.6g %s\n", name, k, m.Value, m.Unit)
	}
	share := 0.0
	if r.Report.Attempted > 0 {
		share = float64(r.Report.Failed) / float64(r.Report.Attempted)
	}
	fmt.Fprintf(w, "%-12s %-34s %14.6g %s (%d of %d operations)\n", name, "failed_share", share, "ratio",
		r.Report.Failed, r.Report.Attempted)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "# %s FAILED %s\n", name, p)
	}
}
