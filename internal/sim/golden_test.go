package sim

import (
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/ratelimit"
	"repro/internal/routing"
	"repro/internal/safeio"
	"repro/internal/topology"
	"repro/internal/worm"
)

// The golden-series fixtures pin the exact per-tick output of the
// engine for fixed seeds across all three topology families and every
// queueing/defense feature the hot path touches. Determinism is a hard
// invariant (PR 1): any refactor of the engine must reproduce these
// series byte-for-byte. Regenerate intentionally with
//
//	go test ./internal/sim -run TestGoldenSeries -update-golden
//
// and inspect the diff: a changed fixture means changed simulation
// behaviour, which needs an explicit justification in the PR.
var updateGolden = flag.Bool("update-golden", false, "rewrite the golden series fixtures")

const goldenPath = "testdata/golden_series.json"

// goldenSeries is the serialized subset of Result that the fixtures
// pin, plus the infection count (the full genealogy would bloat the
// fixture; its length and the series together pin the infection flow).
type goldenSeries struct {
	Infected       []float64 `json:"infected"`
	EverInfected   []float64 `json:"ever_infected"`
	Immunized      []float64 `json:"immunized"`
	Backlog        []int     `json:"backlog"`
	WithinSubnet   []float64 `json:"within_subnet,omitempty"`
	MeanLatency    []float64 `json:"mean_latency,omitempty"`
	QuarantineTick int       `json:"quarantine_tick"`
	Infections     int       `json:"infections"`
}

func toGolden(r *Result) goldenSeries {
	return goldenSeries{
		Infected:       r.Infected,
		EverInfected:   r.EverInfected,
		Immunized:      r.Immunized,
		Backlog:        r.Backlog,
		WithinSubnet:   r.WithinSubnet,
		MeanLatency:    r.MeanLatency,
		QuarantineTick: r.QuarantineTick,
		Infections:     len(r.Infections),
	}
}

// goldenScenarios builds one config per engine feature cluster. Every
// scenario must stay deterministic for its fixed seed.
func goldenScenarios(t testing.TB) map[string]Config {
	star, err := topology.Star(60)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := topology.BarabasiAlbert(200, 1, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	plRoles, err := topology.AssignRoles(pl, topology.PaperRoles)
	if err != nil {
		t.Fatal(err)
	}
	plSubnet := topology.Subnets(pl, plRoles)
	hg, hRoles, hSubnet, err := topology.Hierarchical(topology.HierarchicalConfig{
		Backbones: 2, EdgesPer: 4, HostsPerSubnet: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	plTab := routing.Build(pl)
	localPref, err := worm.NewLocalPreferentialFactory(0.7)
	if err != nil {
		t.Fatal(err)
	}

	scenarios := map[string]Config{
		// Star, no defense: the pure propagation path (generate /
		// route / deliver) with a hub forwarding every packet.
		"star-open": {
			Graph: star, Beta: 0.8, ScansPerTick: 2,
			Strategy:        worm.NewRandomFactory(),
			InitialInfected: 1, Ticks: 80, Seed: 7,
			RecordInfections: true, TrackLatency: true,
		},
		// Star with a zero-delay quarantine capping the hub: exercises
		// NodeCaps round-robin, dynamic activation, and DropTail.
		"star-hub-capped": {
			Graph: star, Beta: 0.8, ScansPerTick: 4,
			Strategy:        worm.NewRandomFactory(),
			InitialInfected: 2, Ticks: 120, Seed: 11,
			NodeCaps: map[int]int{0: 3}, MaxQueue: 40,
			Quarantine: &Quarantine{TriggerLevel: 0.05, Delay: 2},
		},
		// Power law with backbone rate limiting under congestion:
		// limited links, fractional credits, link weights, subnets.
		"powerlaw-backbone-limited": {
			Graph: pl, Roles: plRoles, Subnet: plSubnet,
			Beta: 0.8, ScansPerTick: 6,
			Strategy:        worm.NewRandomFactory(),
			InitialInfected: 3, Ticks: 120, Seed: 17,
			LimitedNodes: DeployBackbone(plRoles),
			BaseRate:     0.4, MaxQueue: 50,
			LinkWeights:  plTab.LinkWeights(pl),
			TrackSubnets: true,
		},
		// Power law with drop policy and immunization removing
		// infected hosts mid-run (the active set shrinks).
		"powerlaw-drop-immunize": {
			Graph: pl, Roles: plRoles, Subnet: plSubnet,
			Beta: 0.6, ScansPerTick: 4,
			Strategy:        worm.NewRandomFactory(),
			InitialInfected: 2, Ticks: 100, Seed: 23,
			LimitedNodes: DeployBackbone(plRoles),
			BaseRate:     1.5, Policy: PolicyDrop,
			Immunize: &Immunization{StartTick: -1, StartLevel: 0.1, Mu: 0.05},
		},
		// Two-level hierarchy with edge-uplink limiting and a
		// probe-first worm: three one-way trips per infection.
		"twolevel-edge-probe": {
			Graph: hg, Roles: hRoles, Subnet: hSubnet,
			Beta: 0.8, ScansPerTick: 3,
			Strategy:        localPref,
			InitialInfected: 2, Ticks: 150, Seed: 31,
			LimitedLinks: DeployEdgeUplinks(hg, hRoles, hSubnet),
			BaseRate:     2, MaxQueue: 50, ProbeFirst: true,
			HostsOnly:    true,
			TrackSubnets: true, TrackLatency: true,
			Quarantine: &Quarantine{TriggerScansPerTick: 40, Delay: 5},
		},
		// Host-level defenses: per-node scan-rate overrides plus
		// concrete Williamson throttles gated by dynamic quarantine.
		"twolevel-host-throttle": {
			Graph: hg, Roles: hRoles, Subnet: hSubnet,
			Beta: 0.9, ScansPerTick: 5,
			Strategy:        worm.NewRandomFactory(),
			InitialInfected: 2, Ticks: 120, Seed: 41,
			ScanRateOverride: map[int]float64{10: 0.2, 20: 0.1, 30: 0.05},
			HostLimiterNodes: topology.NodesWithRole(hRoles, topology.RoleHost)[:40],
			HostLimiterFactory: func() ratelimit.ContactLimiter {
				l, err := ratelimit.NewWilliamsonThrottle(3, 1)
				if err != nil {
					panic(err)
				}
				return l
			},
			Quarantine: &Quarantine{TriggerLevel: 0.02, Delay: 0},
		},
	}
	return scenarios
}

func TestGoldenSeries(t *testing.T) {
	scenarios := goldenScenarios(t)
	got := make(map[string]goldenSeries, len(scenarios))
	for name, cfg := range scenarios {
		eng, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: New: %v", name, err)
		}
		got[name] = toGolden(eng.Run())
	}

	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := safeio.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d scenarios", goldenPath, len(got))
		return
	}

	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read fixture (regenerate with -update-golden): %v", err)
	}
	var want map[string]goldenSeries
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("fixture scenario %s no longer produced", name)
		}
	}
	for name, g := range got {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: missing from fixture (regenerate with -update-golden)", name)
			continue
		}
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s: series diverged from golden fixture; the engine is no longer byte-identical", name)
		}
	}
}

// TestGoldenSeriesRerun guards within-process determinism: two engines
// built from the same config must agree exactly, independent of any
// global state a previous run left behind.
func TestGoldenSeriesRerun(t *testing.T) {
	for name, cfg := range goldenScenarios(t) {
		e1, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e2, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(toGolden(e1.Run()), toGolden(e2.Run())) {
			t.Errorf("%s: rerun diverged", name)
		}
	}
}
