// Package experiment is the figure-regeneration harness: one entry per
// figure of the paper's evaluation, each producing the figure's labelled
// series plus the headline metrics recorded in EXPERIMENTS.md. The
// parameter choices per figure (and the reasoning behind the ones the
// paper leaves unspecified) are documented on each builder.
package experiment

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/plot"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Options tunes cost vs fidelity of a figure run. The run-execution
// knobs (Jobs, Check, retries, checkpointing, ...) are the
// embedded core.RunOptions — the same declarative struct the core
// facade and the spec compiler use; experiment adds only the
// figure-harness parameters on top.
//
// Figure checkpoints are laid out as
// <Checkpoint>/<figure>/batch-NN/replica-NNN.ckpt — batches are
// numbered in the order the figure runs them, which is deterministic
// (builders run their batches sequentially). Resume names the root of
// a layout left by a previous interrupted run with identical options
// (usually the same directory as Checkpoint); replicas without a
// checkpoint start fresh. The single-file Resume form core supports
// does not apply here. KeepGoing degrades per figure: each figure's
// batch averages over the replicas that completed, and the per-figure
// "replica_failed"/"replica_retries" counters (in Metrics) record what
// was lost. When figures themselves run in parallel (RunAll), keep
// Jobs small to avoid oversubscription.
type Options struct {
	core.RunOptions

	// Runs is the number of simulation replicas to average (paper: 10).
	// 0 means 10.
	Runs int
	// Seed is the base random seed (0 means the default, 4).
	Seed int64
	// TraceDuration is the synthetic trace length for the Section 7
	// figures (0 means 2 hours; the full calibration bench uses 6).
	TraceDuration int64
	// Quick shrinks populations/horizons for fast tests.
	Quick bool
	// Metrics, when non-nil, collects per-figure observability counters
	// (summed over every simulation replica a figure runs) into the
	// sink. Safe for concurrent figures. Takes precedence over the
	// embedded Collectors hook, which the figure harness does not use.
	Metrics *BatchMetrics

	// figID is the figure currently being built; RunContext stamps it on
	// the copy of Options it hands the builder so multiRun can attribute
	// counters.
	figID string
	// ckptSeq numbers the figure's simulation batches for the
	// checkpoint layout; RunContext initializes one per figure
	// invocation (the pointer survives the by-value Options copies the
	// builders make).
	ckptSeq *atomic.Int32
	// traces shares the Section 7 trace among the figures of one
	// RunAllStats batch (nil outside a batch: each figure generates
	// its own).
	traces *traceMemo
}

// traceMemo generates each synthetic trace configuration at most once
// per RunAllStats batch. The figures sharing a trace only read it, so
// concurrent figures may analyze one *trace.Trace at the same time.
// The memo lives as long as its batch: a second batch regenerates.
type traceMemo struct {
	mu     sync.Mutex
	traces map[trace.GenConfig]func() (*trace.Trace, error)
}

// generate returns the trace for cfg, generating it on first use. A nil
// memo generates directly.
func (m *traceMemo) generate(cfg trace.GenConfig) (*trace.Trace, error) {
	if m == nil {
		return trace.Generate(cfg)
	}
	m.mu.Lock()
	gen := m.traces[cfg]
	if gen == nil {
		gen = sync.OnceValues(func() (*trace.Trace, error) { return trace.Generate(cfg) })
		if m.traces == nil {
			m.traces = make(map[trace.GenConfig]func() (*trace.Trace, error))
		}
		m.traces[cfg] = gen
	}
	m.mu.Unlock()
	return gen()
}

// BatchMetrics accumulates the observability counters of every
// simulation batch run while regenerating figures, keyed by figure ID.
// One sink serves a whole RunAll batch; methods are safe for concurrent
// use.
type BatchMetrics struct {
	mu       sync.Mutex
	byFigure map[string]map[string]int64
}

// add key-wise sums c into the figure's counter map.
func (b *BatchMetrics) add(id string, c map[string]int64) {
	if len(c) == 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.byFigure == nil {
		b.byFigure = make(map[string]map[string]int64)
	}
	m := b.byFigure[id]
	if m == nil {
		m = make(map[string]int64, len(c))
		b.byFigure[id] = m
	}
	for k, v := range c {
		m[k] += v
	}
}

// Figure returns a copy of the counters recorded for one figure (nil
// when none were).
func (b *BatchMetrics) Figure(id string) map[string]int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	src := b.byFigure[id]
	if src == nil {
		return nil
	}
	out := make(map[string]int64, len(src))
	for k, v := range src {
		out[k] = v
	}
	return out
}

// IDs returns the figure IDs with recorded counters, sorted.
func (b *BatchMetrics) IDs() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]string, 0, len(b.byFigure))
	for id := range b.byFigure {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// multiRun is the one funnel every figure builder runs its simulation
// batches through: it applies the audit, metrics, and checkpoint
// options, lowers the fault-tolerance and parallelism knobs through
// core.RunOptions.RunnerOptions (the module's single lowering point),
// and attributes the batch's counters to the figure being built.
func (o Options) multiRun(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
	cfg.Check = o.Check
	if o.Metrics != nil {
		cfg.CollectorFactory = func(int) obs.Collector { return obs.NewTally() }
	}
	if (o.Checkpoint != "" || o.Resume != "") && o.ckptSeq != nil {
		batch := fmt.Sprintf("batch-%02d", o.ckptSeq.Add(1))
		if o.Checkpoint != "" {
			dir := filepath.Join(o.Checkpoint, o.figID, batch)
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, fmt.Errorf("experiment: checkpoint dir: %w", err)
			}
			cfg.CheckpointEvery = o.CheckpointEvery
			if cfg.CheckpointEvery <= 0 {
				cfg.CheckpointEvery = 10
			}
			cfg.CheckpointFactory = func(run int) func(*sim.Snapshot) error {
				path := core.ReplicaCheckpoint(dir, run)
				return func(s *sim.Snapshot) error { return sim.WriteSnapshot(path, s) }
			}
		}
		if o.Resume != "" {
			rdir := filepath.Join(o.Resume, o.figID, batch)
			cfg.ResumeFactory = func(run int) (*sim.Snapshot, error) {
				snap, err := sim.ReadSnapshot(core.ReplicaCheckpoint(rdir, run))
				if errors.Is(err, fs.ErrNotExist) {
					return nil, nil // no checkpoint for this replica: start fresh
				}
				return snap, err
			}
		}
	}
	res, stats, err := sim.MultiRunStats(ctx, cfg, o.runs(), o.RunnerOptions()...)
	if err != nil {
		return nil, err
	}
	if o.Metrics != nil {
		o.Metrics.add(o.figID, res.Counters)
		if stats.Retries > 0 || stats.Failed > 0 {
			o.Metrics.add(o.figID, map[string]int64{
				"replica_retries": int64(stats.Retries),
				"replica_failed":  int64(stats.Failed),
			})
		}
	}
	return res, nil
}

func (o Options) runs() int {
	if o.Runs <= 0 {
		return 10
	}
	return o.Runs
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 4
	}
	return o.Seed
}

func (o Options) traceDuration() int64 {
	if o.TraceDuration > 0 {
		return o.TraceDuration
	}
	if o.Quick {
		return 20 * trace.Minute
	}
	return 2 * trace.Hour
}

// Result is one regenerated figure.
type Result struct {
	// ID is the figure identifier (fig1a ... fig10, tbl-rates,
	// tbl-claims).
	ID string
	// Paper describes what the paper's version of the figure shows.
	Paper string
	// Figure holds the regenerated series.
	Figure plot.Figure
	// Metrics are the headline numbers for the EXPERIMENTS.md
	// paper-vs-measured table, keyed by a short name.
	Metrics map[string]float64
}

// builder regenerates one figure. Builders observe ctx between
// simulation ticks, so a cancelled context aborts a figure mid-run.
type builder func(context.Context, Options) (*Result, error)

// registry maps figure IDs to builders in presentation order. cost is
// the figure's run time in seconds, regenerated alone on one core at 5
// replicas and a 45-minute trace; only its ranking matters, as the
// dispatch order of RunAllStats.
func registry() []struct {
	id   string
	fn   builder
	cost float64
} {
	return []struct {
		id   string
		fn   builder
		cost float64
	}{
		{"fig1a", Fig1a, 0},
		{"fig1b", Fig1b, 0.1},
		{"fig2", Fig2, 0},
		{"fig3a", Fig3a, 0},
		{"fig3b", Fig3b, 0},
		{"fig4", Fig4, 3.2},
		{"fig5", Fig5, 3.6},
		{"fig6", Fig6, 4.2},
		{"fig7a", Fig7a, 0},
		{"fig7b", Fig7b, 0},
		{"fig8a", Fig8a, 0.4},
		{"fig8b", Fig8b, 1},
		{"fig9a", Fig9a, 1.4},
		{"fig9b", Fig9b, 1.5},
		{"fig10", Fig10, 0},
		{"tbl-rates", TableRates, 3},
		{"tbl-claims", TableClaims, 1.6},
		{"collateral", Collateral, 2},
		{"abl-targeting", AblTargeting, 6.3},
		{"abl-queue", AblQueueVsDrop, 1.7},
		{"abl-weights", AblLinkWeights, 1.8},
		{"abl-patch", AblPatchInfected, 0.3},
		{"abl-probe", AblProbeFirst, 4.3},
		{"abl-topology", AblTopology, 6.1},
		{"abl-hybrid", AblHybridWindow, 0},
		{"fault-detector", FaultDetector, 2.6},
	}
}

// newRand builds a seeded source for topology generation.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// IDs returns all known experiment IDs in order.
func IDs() []string {
	reg := registry()
	out := make([]string, len(reg))
	for i, r := range reg {
		out[i] = r.id
	}
	return out
}

// Run regenerates one figure by ID with a background context.
func Run(id string, opt Options) (*Result, error) {
	return RunContext(context.Background(), id, opt)
}

// RunContext regenerates one figure by ID. Cancelling ctx aborts the
// figure's simulations between ticks and returns ctx's error.
func RunContext(ctx context.Context, id string, opt Options) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, r := range registry() {
		if r.id == id {
			opt.figID = id
			if opt.Checkpoint != "" || opt.Resume != "" {
				// Fresh batch numbering per figure invocation, so a
				// figure-level retry rebuilds the same checkpoint layout.
				opt.ckptSeq = new(atomic.Int32)
			}
			return r.fn(ctx, opt)
		}
	}
	known := IDs()
	sort.Strings(known)
	return nil, fmt.Errorf("experiment: unknown id %q (known: %v)", id, known)
}

// RunAll regenerates the given figures (all of IDs() when ids is nil)
// concurrently on a bounded runner.Pool, configured with ropts
// (runner.WithJobs bounds the figure-level parallelism;
// runner.WithProgress observes per-figure completion). Results are
// returned in the order of ids regardless of completion order. The
// first failing figure aborts the batch; a cancelled ctx aborts
// in-flight figures between simulation ticks and returns ctx's error.
//
// Figure-level workers multiply with Options.Jobs (the per-figure
// replica pool): with F figure workers each averaging over J replica
// workers, up to F×J simulations run at once. The default Options.Jobs
// of GOMAXPROCS is fine when figures are regenerated one at a time;
// callers fanning out across figures should set Options.Jobs low
// (cmd/figures uses 1) and let the figure-level pool own the
// parallelism — whole figures are coarser, more evenly sized units.
//
// The figures of one batch that read the same synthetic trace (fig9a,
// fig9b, tbl-rates, tbl-claims) share a single generation of it; the
// results are identical to regenerating each figure on its own.
//
// Figures start costliest first (see dispatchOrder), so completion
// order is not ids order.
func RunAll(ctx context.Context, ids []string, opt Options, ropts ...runner.Option) ([]*Result, error) {
	res, _, err := RunAllStats(ctx, ids, opt, ropts...)
	return res, err
}

// RunAllStats is RunAll returning the figure-level runner.Stats
// alongside the results, for callers that report batch health. With
// runner.WithKeepGoing the batch degrades gracefully: a figure that
// fails (after any runner.WithRetry attempts) leaves a nil slot in the
// results and an entry in Stats.Failures instead of aborting the
// batch; only a batch where every figure failed returns an error.
// The returned Stats.Failures index ids; the snapshots handed to a
// runner.WithProgress callback index the dispatch order instead.
func RunAllStats(ctx context.Context, ids []string, opt Options, ropts ...runner.Option) ([]*Result, runner.Stats, error) {
	if ids == nil {
		ids = IDs()
	}
	opt.traces = new(traceMemo)
	results := make([]*Result, len(ids))
	order := dispatchOrder(ids)
	pool := runner.New(ropts...)
	stats, err := pool.Run(ctx, len(ids), func(ctx context.Context, k int) (runner.Report, error) {
		i := order[k]
		res, err := RunContext(ctx, ids[i], opt)
		if err != nil {
			return runner.Report{}, fmt.Errorf("experiment: %s: %w", ids[i], err)
		}
		results[i] = res
		rep := runner.Report{Ticks: figureTicks(res)}
		if opt.Metrics != nil {
			rep.Counters = opt.Metrics.Figure(ids[i])
		}
		return rep, nil
	})
	for j := range stats.Failures {
		stats.Failures[j].Index = order[stats.Failures[j].Index]
	}
	if err != nil {
		return nil, stats, err
	}
	if stats.Failed > 0 {
		ok := 0
		for _, r := range results {
			if r != nil {
				ok++
			}
		}
		if ok == 0 {
			f := stats.Failures[0]
			return nil, stats, fmt.Errorf("experiment: all %d figures failed; first: %w", len(ids), f.Err)
		}
	}
	return results, stats, nil
}

// dispatchOrder returns the indices of ids costliest first by registry
// cost, ties (and unknown IDs, cost 0) in ids order. Started in that
// order, the long figures run side by side early and the short ones
// fill in at the end, so the last figure to finish is a short one: a
// batch's wall time stays near its total work over the workers instead
// of depending on which worker a late long figure happens to land on.
func dispatchOrder(ids []string) []int {
	cost := make(map[string]float64)
	for _, r := range registry() {
		cost[r.id] = r.cost
	}
	order := make([]int, len(ids))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(cost[ids[b]], cost[ids[a]]) })
	return order
}

// figureTicks estimates the simulated ticks behind one figure result
// (series points × averaged runs) so RunAll's runner.Stats report a
// meaningful throughput. Analytic figures report their sample count.
func figureTicks(res *Result) int64 {
	var pts int64
	for _, s := range res.Figure.Series {
		pts += int64(len(s.Y))
	}
	return pts
}

// powerLawTopology builds the shared 1000-node AS-like graph of the
// Section 5.4 experiments, with the degree-ranked role split and the
// induced subnet partition. The paper used a BRITE-generated 1000-node
// power-law graph; we use preferential attachment with m=1, which gives
// the sparse, core-concentrated routing of an AS topology (nearly all
// inter-subnet shortest paths transit the top-degree core — the
// property the backbone-deployment result depends on).
func powerLawTopology(opt Options) (*topology.Graph, []topology.Role, []int, error) {
	n := 1000
	if opt.Quick {
		n = 300
	}
	g, err := topology.BarabasiAlbert(n, 1, rand.New(rand.NewSource(opt.seed())))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("experiment: topology: %w", err)
	}
	roles, err := topology.AssignRoles(g, topology.PaperRoles)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("experiment: roles: %w", err)
	}
	subnet := topology.Subnets(g, roles)
	return g, roles, subnet, nil
}

// overrideFor builds the host-level rate-limit map: filtered hosts scan
// at the model's β2 = 0.01 instead of β.
func overrideFor(hosts []int) map[int]float64 {
	o := make(map[int]float64, len(hosts))
	for _, h := range hosts {
		o[h] = hostFilteredRate
	}
	return o
}

// backboneCaps gives every backbone node a node-level forwarding cap.
func backboneCaps(roles []topology.Role, cap int) map[int]int {
	m := make(map[int]int)
	for _, b := range sim.DeployBackbone(roles) {
		m[b] = cap
	}
	return m
}

// Shared simulation parameters (see DESIGN.md §5 and the calibration
// notes in EXPERIMENTS.md).
const (
	simBeta          = 0.8  // the paper's β
	hostFilteredRate = 0.01 // the paper's β2
	congestedScans   = 10   // scan attempts/tick for the congestion figures
	dropTailQueue    = 50   // ns-2 default DropTail buffer
	limitedLinkRate  = 0.4  // packets/tick through a rate-limited link
	immunizeMu       = 0.05 // per-tick patch probability in the sims
)
