package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/worm"
)

func allFigureIDs() []string { return experiment.IDs() }

func figureIDs(sz size) []string {
	if sz.figIDs != nil {
		return sz.figIDs
	}
	return experiment.IDs()
}

// figureOptions is cmd/figures' wiring at bench_test.go's fidelity
// (benchOpts: 5 replicas, a 45-minute trace): each figure's replica loop
// is serial and the figure-level pool owns the parallelism.
func figureOptions(env *runEnv) experiment.Options {
	return experiment.Options{
		RunOptions:    core.RunOptions{Jobs: 1},
		Runs:          env.size.figRuns,
		Seed:          deriveSeed(env.seed, "figures"),
		TraceDuration: int64(env.size.figTraceMinutes) * trace.Minute,
	}
}

// figureDigest covers a figure's series and metrics.
func figureDigest(res *experiment.Result) (string, error) {
	if len(res.Figure.Series) == 0 {
		return "", fmt.Errorf("no series")
	}
	var d digest
	for _, s := range res.Figure.Series {
		if len(s.X) != len(s.Y) || len(s.Y) == 0 {
			return "", fmt.Errorf("series %q: %d x values, %d y values", s.Label, len(s.X), len(s.Y))
		}
		d.str(s.Label)
		d.floats(s.X)
		d.floats(s.Y)
	}
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		d.str(k)
		d.floats([]float64{res.Metrics[k]})
	}
	return d.sum(), nil
}

func checkFigures(env *runEnv, ids []string, results []*experiment.Result, err error) {
	for i, id := range ids {
		ferr := err
		var res *experiment.Result
		if ferr == nil {
			res = results[i]
			if res == nil {
				ferr = errors.New("no result")
			}
		}
		sum := ""
		if ferr == nil {
			sum, ferr = figureDigest(res)
		}
		env.check.op("figures/"+id, sum, ferr)
	}
}

// figuresSetup times the construction every figure batch over the
// paper's power-law graph repeats: the 1000-node net (topology plus
// routing) built through core.Scenario.BuildNet. Median of several.
func figuresSetup(env *runEnv) []float64 {
	sc := core.Scenario{Topology: core.PowerLaw(env.size.figNetNodes), TopologySeed: deriveSeed(env.seed, "figures")}
	out := make([]float64, 0, env.size.figSetups)
	for i := 0; i < env.size.figSetups; i++ {
		t0 := time.Now()
		net, err := sc.BuildNet()
		out = append(out, time.Since(t0).Seconds())
		if err != nil {
			env.check.op("figures/setup", "", err)
		}
		runtime.KeepAlive(net)
	}
	return out
}

// figuresOp regenerates every figure through experiment.RunAllStats on
// an nproc-wide figure pool, as cmd/figures does.
func figuresOp(env *runEnv, _ int) opResult {
	ids := figureIDs(env.size)
	setups := figuresSetup(env)
	m := startMeter()
	results, stats, err := experiment.RunAllStats(context.Background(), ids, figureOptions(env), runner.WithJobs(nproc))
	s := m.stop()
	checkFigures(env, ids, results, err)
	return opResult{sample: s, ops: len(ids), ticksPerS: float64(stats.Ticks) / s.wall,
		latencies: []float64{s.wall * 1e3}, setups: setups}
}

// figuresTraced times each experiment.RunContext call on the same
// nproc-wide runner pool, then the trace layer on the figures' trace
// configuration, then one 1000-node power-law replica (fig4's backbone
// case) for the sim tick layer at the figures' scale.
func figuresTraced(env *runEnv, tr *tracer, layer map[string]float64) opResult {
	ids := figureIDs(env.size)
	opt := figureOptions(env)
	results := make([]*experiment.Result, len(ids))
	m := startMeter()
	root := tr.start("figures.run_all", 0, "batch")
	stats, err := runner.New(runner.WithJobs(nproc)).Run(context.Background(), len(ids),
		func(ctx context.Context, i int) (runner.Report, error) {
			id := tr.start("experiment."+ids[i], root, ids[i])
			res, err := experiment.RunContext(ctx, ids[i], opt)
			tr.end(id)
			if err != nil {
				return runner.Report{}, err
			}
			results[i] = res
			return runner.Report{}, nil
		})
	tr.end(root)
	s := m.stop()
	checkFigures(env, ids, results, err)

	longest := 0.0
	for _, id := range ids {
		d := tr.durations("experiment." + id)
		if len(d) > 0 {
			layer["experiment."+id+"_s"] = d[0]
			longest = math.Max(longest, d[0])
		}
	}
	layer["experiment.longest_figure_s"] = longest
	layer["runner.failed"] = float64(stats.Failed)
	layer["runner.retries"] = float64(stats.Retries)

	traceLayer(env, tr, layer)
	ticks := figuresTick(env, tr, layer)
	return opResult{sample: s, ops: len(ids), counts: map[string]int{"figures": len(ids), "probe_ticks": ticks}}
}

// traceLayer generates and analyses the synthetic trace the four trace
// figures share, at the figures' configuration.
func traceLayer(env *runEnv, tr *tracer, layer map[string]float64) {
	cfg := trace.DefaultGenConfig(int64(env.size.figTraceMinutes)*trace.Minute, deriveSeed(env.seed, "figures"))
	b0, _ := heapAllocs()
	id := tr.start("trace.generate", 0, "trace")
	t, err := trace.Generate(cfg)
	layer["trace.generate_s"] = tr.end(id)
	b1, _ := heapAllocs()
	if err != nil {
		env.check.op("figures/trace", "", err)
		return
	}
	layer["trace.generate_alloc_mb"] = float64(b1-b0) / (1 << 20)
	layer["trace.records"] = float64(len(t.Records))
	hosts := cfg.HostsOfClass(trace.ClassNormal)
	id = tr.start("trace.analyze_aggregate", 0, "trace")
	_, err = trace.AnalyzeAggregate(t, hosts, 5*trace.Second)
	layer["trace.analyze_aggregate_s"] = tr.end(id)
	if err == nil {
		id = tr.start("trace.analyze_per_host", 0, "trace")
		_, err = trace.AnalyzePerHost(t, hosts, 5*trace.Second)
		layer["trace.analyze_per_host_s"] = tr.end(id)
	}
	if err != nil {
		env.check.op("figures/trace", "", err)
	}
}

// figuresTick runs one replica of fig4's backbone case under the tick
// collector: the sim tick and allocation layers at 1000 nodes.
func figuresTick(env *runEnv, tr *tracer, layer map[string]float64) int {
	seed := deriveSeed(env.seed, "figures")
	g, err := topology.BarabasiAlbert(env.size.figNetNodes, 1, rand.New(rand.NewSource(seed)))
	if err != nil {
		env.check.op("figures/tick", "", err)
		return 0
	}
	roles, err := topology.AssignRoles(g, topology.PaperRoles)
	if err != nil {
		env.check.op("figures/tick", "", err)
		return 0
	}
	root := tr.start("figures.tick_probe", 0, "probe")
	col := newTickCollector(tr, root, "probe")
	eng, err := sim.New(sim.Config{
		Graph: g, Roles: roles, Beta: 0.8, Strategy: worm.NewRandomFactory(),
		InitialInfected: 5, Ticks: 150, Seed: seed, ScansPerTick: 10, MaxQueue: 50,
		BaseRate: 0.4, LimitedNodes: sim.DeployBackbone(roles), Collector: col,
	})
	if err != nil {
		tr.end(root)
		env.check.op("figures/tick", "", err)
		return 0
	}
	col.arm()
	eng.Run()
	tr.end(root)
	col.tickMetrics(layer)
	return len(col.ticks)
}
