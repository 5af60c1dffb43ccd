package experiment

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/runner"
	"repro/internal/trace"
)

func TestRunAllOrderAndIDs(t *testing.T) {
	// Analytic figures only: fast and deterministic.
	ids := []string{"fig1a", "fig2", "fig10"}
	var last runner.Stats
	results, err := RunAll(context.Background(), ids, quickOpts(),
		runner.WithJobs(2),
		runner.WithProgress(func(s runner.Stats) { last = s }))
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if len(results) != len(ids) {
		t.Fatalf("got %d results, want %d", len(results), len(ids))
	}
	for i, res := range results {
		if res == nil || res.ID != ids[i] {
			t.Errorf("result %d = %v, want id %q in order", i, res, ids[i])
		}
	}
	if last.Completed != len(ids) || last.Failed != 0 {
		t.Errorf("final stats = %+v, want %d completed", last, len(ids))
	}
	if last.Ticks == 0 {
		t.Error("figure ticks should be reported to the pool")
	}
}

// TestDispatchOrder checks RunAllStats' dispatch order is a permutation
// of ids with costs non-increasing and ties (unknown IDs included) kept
// in ids order.
func TestDispatchOrder(t *testing.T) {
	cost := make(map[string]float64)
	for _, r := range registry() {
		cost[r.id] = r.cost
	}
	ids := append([]string{"figZZ"}, IDs()...)
	order := dispatchOrder(ids)
	seen := make([]bool, len(ids))
	for k, i := range order {
		if i < 0 || i >= len(ids) || seen[i] {
			t.Fatalf("order %v is not a permutation of %d ids", order, len(ids))
		}
		seen[i] = true
		if k == 0 {
			continue
		}
		p := order[k-1]
		if cost[ids[p]] < cost[ids[i]] || (cost[ids[p]] == cost[ids[i]] && p > i) {
			t.Errorf("position %d: %s (cost %v) before %s (cost %v)", k, ids[p], cost[ids[p]], ids[i], cost[ids[i]])
		}
	}
	if ids[order[0]] == "fig1a" || ids[order[len(order)-1]] == "abl-topology" {
		t.Errorf("simulation figures should lead the analytic ones: %v", order)
	}
}

// TestRunAllFailureIndexesIDs checks Stats.Failures name the failed
// figure by its position in ids, not by its dispatch position.
func TestRunAllFailureIndexesIDs(t *testing.T) {
	ids := []string{"fig1a", "figZZ", "fig1b"} // fig1b dispatches first
	_, stats, err := RunAllStats(context.Background(), ids, quickOpts(), runner.WithJobs(1), runner.WithKeepGoing())
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Failures) != 1 || stats.Failures[0].Index != 1 {
		t.Fatalf("failures = %+v, want one at index 1 (figZZ)", stats.Failures)
	}
}

func TestRunAllUnknownIDFails(t *testing.T) {
	_, err := RunAll(context.Background(), []string{"fig1a", "figZZ"}, quickOpts(), runner.WithJobs(1))
	if err == nil {
		t.Fatal("unknown figure should fail the batch")
	}
	if !strings.Contains(err.Error(), "figZZ") {
		t.Errorf("error should name the figure: %v", err)
	}
}

func TestRunAllCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunAll(ctx, []string{"fig4"}, quickOpts()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunContextCancelMidFigure aborts a simulation-backed figure while
// it is running and expects the ctx error to surface promptly.
func TestRunContextCancelMidFigure(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, "fig4", quickOpts()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunAllMatchesRun guards RunAll against diverging from one-at-a-
// time regeneration: the batched result must be identical. The four
// trace figures share one trace inside the batch, read concurrently
// under -race, while Run generates a fresh one per figure.
func TestRunAllMatchesRun(t *testing.T) {
	ids := []string{"fig1a", "fig7a", "fig9a", "fig9b", "tbl-rates", "tbl-claims"}
	batched, err := RunAll(context.Background(), ids, quickOpts(), runner.WithJobs(2))
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		single, err := Run(id, quickOpts())
		if err != nil {
			t.Fatal(err)
		}
		if len(single.Figure.Series) != len(batched[i].Figure.Series) {
			t.Fatalf("%s: series count differs", id)
		}
		for s := range single.Figure.Series {
			a, b := single.Figure.Series[s], batched[i].Figure.Series[s]
			if a.Label != b.Label || len(a.X) != len(b.X) || len(a.Y) != len(b.Y) {
				t.Fatalf("%s series %d: shape differs", id, s)
			}
			for k := range a.Y {
				if a.X[k] != b.X[k] || a.Y[k] != b.Y[k] {
					t.Fatalf("%s series %d point %d: (%v, %v) != (%v, %v)",
						id, s, k, a.X[k], a.Y[k], b.X[k], b.Y[k])
				}
			}
		}
		if len(single.Metrics) != len(batched[i].Metrics) {
			t.Fatalf("%s: %d metrics single, %d batched", id, len(single.Metrics), len(batched[i].Metrics))
		}
		for k, v := range single.Metrics {
			if w, ok := batched[i].Metrics[k]; !ok || (w != v && !(math.IsNaN(v) && math.IsNaN(w))) {
				t.Errorf("%s metric %s: %v single, %v batched", id, k, v, w)
			}
		}
	}
}

// TestTraceFigureCancelled calls a trace figure's builder directly (past
// RunContext's own check) with a cancelled context: it must stop once
// the trace is in hand instead of returning a result.
func TestTraceFigureCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for id, fn := range map[string]builder{"fig9a": Fig9a, "tbl-rates": TableRates, "tbl-claims": TableClaims} {
		if res, err := fn(ctx, quickOpts()); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: result %v, err = %v, want context.Canceled", id, res != nil, err)
		}
	}
}

// TestTraceMemoSharesWithinBatch checks the batch memo hands every
// caller one generation per configuration, while a nil memo (a figure
// run outside RunAllStats) generates afresh.
func TestTraceMemoSharesWithinBatch(t *testing.T) {
	cfg := trace.DefaultGenConfig(trace.Minute, 3)
	cfg.NormalClients, cfg.Servers, cfg.P2PClients, cfg.Infected = 10, 1, 1, 2
	m := new(traceMemo)
	a, err := m.generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := m.generate(cfg); b != a {
		t.Error("same configuration generated twice within one memo")
	}
	other := cfg
	other.Seed++
	if c, _ := m.generate(other); c == a {
		t.Error("different configurations share a trace")
	}
	var none *traceMemo
	d, err := none.generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d == a || len(d.Records) != len(a.Records) {
		t.Errorf("nil memo: got the memo's trace or a different one (%d vs %d records)", len(d.Records), len(a.Records))
	}
}
