package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/worm"
)

// TestStructuralRoutingEquivalence: above the structural threshold the
// engine routes without the dense hop table. The structural router
// returns the dense table's next-hop link for every pair
// (routing.TestStructuralMatchesDense), so the series must match a
// forced dense-table engine exactly.
func TestStructuralRoutingEquivalence(t *testing.T) {
	g, _, _, err := topology.TwoLevel(topology.TwoLevelConfig{
		ASes: 40, AttachM: 2, TransitFraction: 0.2, HostsPerStub: 128,
	}, rand.New(rand.NewSource(12)))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() < DefaultStructuralThreshold {
		t.Fatalf("test graph has %d nodes, below the structural threshold %d", g.N(), DefaultStructuralThreshold)
	}
	cfg := Config{
		Graph: g, Beta: 0.5, ScansPerTick: 2,
		Strategy:        worm.NewRandomFactory(),
		InitialInfected: 4, Ticks: 40, Seed: 19,
		TrackLatency: true, Check: true,
	}

	auto, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if auto.hopLink != nil || auto.structural == nil {
		t.Fatal("engine above the threshold did not select structural routing")
	}

	links := routing.EnumerateLinks(g)
	dense := &netState{links: links, hopLink: links.HopTable(routing.Build(g))}
	forced, err := newEngine(cfg, dense)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(toGolden(auto.Run()), toGolden(forced.Run())) {
		t.Error("structural-routing series diverged from dense-table series")
	}
}
