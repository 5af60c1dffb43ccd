package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/worm"
)

// The scale-1m scenario is BenchmarkEngineTickScale's shape (two-level
// AS internet, 256-host stubs, 5% transit ASes, backbone rate limiting
// at 0.4, random worm with β 0.8 and 10 scans/tick, 1% initially
// infected) run over a fixed horizon.
const (
	scaleHostsPerStub = 256
	scaleTransit      = 0.05
	scaleRate         = 0.4
	scaleBeta         = 0.8
	scaleScans        = 10
)

func scaleTopology(hosts int) topology.TwoLevelConfig {
	stubs := max(hosts/scaleHostsPerStub, 4)
	return topology.TwoLevelConfig{
		ASes: stubs * 20 / 19, AttachM: 2, TransitFraction: scaleTransit, HostsPerStub: scaleHostsPerStub,
	}
}

// scaleScenario is operation i's scenario. Each operation of a run gets
// its own topology: the backbone capacity of a random AS core moves the
// epidemic's growth rate (and so the work of a run) by about ±15%
// between topologies, while the simulation seed moves it by about 1%;
// a run's medians then cover several topologies.
func scaleScenario(sz size, seed int64, i int) core.Scenario {
	w := core.RandomWorm(scaleBeta)
	w.ScansPerTick = scaleScans
	return core.Scenario{
		Topology:        core.ASInternet(scaleTopology(sz.scaleHosts)),
		Worm:            w,
		Defense:         core.BackboneRateLimit(scaleRate),
		Ticks:           sz.scaleTicks,
		Seed:            deriveSeed(seed, fmt.Sprintf("scale-1m/sim/%d", i)),
		TopologySeed:    deriveSeed(seed, fmt.Sprintf("scale-1m/topology/%d", i)),
		InitialInfected: max(sz.scaleHosts/100, 1),
	}
}

// scaleDigest covers the infected and ever-infected series.
func scaleDigest(res *sim.Result) string {
	var d digest
	d.floats(res.Infected)
	d.floats(res.EverInfected)
	return d.sum()
}

// scaleSane checks what must hold for any seed: a full-length series of
// fractions in [0,1], ever-infected never decreasing and never below
// infected, and an epidemic that actually ran.
func scaleSane(res *sim.Result, ticks int) error {
	if len(res.Infected) != ticks || len(res.EverInfected) != ticks {
		return fmt.Errorf("series length %d/%d, want %d", len(res.Infected), len(res.EverInfected), ticks)
	}
	prev := 0.0
	for i, e := range res.EverInfected {
		in := res.Infected[i]
		if in < 0 || e > 1 || in > e || e < prev {
			return fmt.Errorf("tick %d: infected %v, ever-infected %v after %v", i, in, e, prev)
		}
		prev = e
	}
	if res.EverInfected[ticks-1] <= res.EverInfected[0] {
		return fmt.Errorf("epidemic did not spread (ever-infected %v)", res.EverInfected[ticks-1])
	}
	return nil
}

// scaleOp is one `wormsim`-style run through the core.Scenario facade:
// BuildNet is the set-up, then SimulateOptions runs one replica over
// that net with the program's default run options.
func scaleOp(env *runEnv, i int) opResult {
	sc := scaleScenario(env.size, env.seed, i)
	m := startMeter()
	t0 := time.Now()
	net, err := sc.BuildNet()
	setup := time.Since(t0).Seconds()
	var res *sim.Result
	var simWall float64
	if err == nil {
		t1 := time.Now()
		res, _, err = sc.SimulateOptions(context.Background(), 1, core.RunOptions{Net: net})
		simWall = time.Since(t1).Seconds()
	}
	s := m.stop()
	scaleCheck(env, i, res, err)
	return opResult{sample: s, ops: 1, ticksPerS: float64(env.size.scaleTicks) / simWall,
		latencies: []float64{s.wall * 1e3}, setups: []float64{setup}}
}

func scaleCheck(env *runEnv, i int, res *sim.Result, err error) {
	if err == nil {
		err = scaleSane(res, env.size.scaleTicks)
	}
	sum := ""
	if err == nil {
		sum = scaleDigest(res)
	}
	env.check.op(fmt.Sprintf("scale-1m/run-%d", i), sum, err)
}

// scaleTraced runs the same scenario with each layer called on its own —
// topology.TwoLevel, sim.BuildNet, sim.New, Engine.Run — and a
// benchmark-owned collector giving one child span per tick. Its digest
// must equal the facade run's of operation 0.
func scaleTraced(env *runEnv, tr *tracer, layer map[string]float64) opResult {
	sc := scaleScenario(env.size, env.seed, 0)
	const op = "run-0"
	m := startMeter()
	root := tr.start("scale-1m.run", 0, op)

	id := tr.start("topology.two_level", root, op)
	g, roles, subnet, err := topology.TwoLevel(scaleTopology(env.size.scaleHosts), rand.New(rand.NewSource(sc.TopologySeed)))
	layer["topology.build_s"] = tr.end(id)
	if err != nil {
		tr.end(root)
		s := m.stop()
		scaleCheck(env, 0, nil, err)
		return opResult{sample: s, ops: 1}
	}
	layer["topology.nodes"] = float64(g.N())
	layer["topology.edges"] = float64(g.M())

	heap1 := liveHeap()
	id = tr.start("sim.build_net", root, op)
	net := sim.BuildNet(g)
	layer["sim.net_build_s"] = tr.end(id)
	heap2 := liveHeap()
	layer["sim.net_bytes_per_host"] = float64(int64(heap2)-int64(heap1)) / float64(g.N())

	col := newTickCollector(tr, root, op)
	cfg := sim.Config{
		Graph: g, Roles: roles, Subnet: subnet, Net: net,
		Beta: scaleBeta, ScansPerTick: scaleScans, Strategy: worm.NewRandomFactory(),
		InitialInfected: sc.InitialInfected, Ticks: sc.Ticks, Seed: sc.Seed,
		MaxQueue: 50, LimitedNodes: sim.DeployBackbone(roles), BaseRate: scaleRate,
		Collector: col,
	}
	id = tr.start("sim.new", root, op)
	eng, err := sim.New(cfg)
	layer["sim.engine_new_s"] = tr.end(id)
	var res *sim.Result
	if err == nil {
		heap3 := liveHeap()
		layer["sim.engine_bytes_per_host"] = float64(int64(heap3)-int64(heap2)) / float64(g.N())
		id = tr.start("sim.run", root, op)
		col.arm()
		res = eng.Run()
		tr.end(id)
		col.tickMetrics(layer)
	}
	tr.end(root)
	s := m.stop()
	runtime.KeepAlive(net)
	scaleCheck(env, 0, res, err)
	return opResult{sample: s, ops: 1, counts: map[string]int{"ticks": len(col.ticks)}}
}
