package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/runner"
)

func smallScenario() Scenario {
	w := RandomWorm(0.8)
	w.ScansPerTick = 5
	return Scenario{
		Topology: PowerLaw(150),
		Worm:     w,
		Defense:  BackboneRateLimit(0.4),
		Ticks:    40,
		Seed:     9,
	}
}

// The TestSimulateContext* tests cover SimulateOptions' context handling:
// job-count identity, progress, timeout, and cancellation.

func TestSimulateContextMatchesSimulate(t *testing.T) {
	sc := smallScenario()
	plain, err := sc.Simulate(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, jobs := range []int{1, 4} {
		ctxRes, _, err := sc.SimulateOptions(context.Background(), 3, RunOptions{Jobs: jobs})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if !reflect.DeepEqual(plain, ctxRes) {
			t.Fatalf("jobs=%d: SimulateOptions differs from Simulate", jobs)
		}
	}
}

func TestSimulateContextProgress(t *testing.T) {
	sc := smallScenario()
	var final runner.Stats
	if _, _, err := sc.SimulateOptions(context.Background(), 4, RunOptions{
		Jobs:     2,
		Progress: func(s runner.Stats) { final = s },
	}); err != nil {
		t.Fatal(err)
	}
	if final.Completed != 4 || final.Runs != 4 {
		t.Errorf("final stats = %+v, want 4/4 completed", final)
	}
	if final.Ticks != int64(4*sc.Ticks) {
		t.Errorf("ticks = %d, want %d", final.Ticks, 4*sc.Ticks)
	}
}

func TestSimulateContextTimeout(t *testing.T) {
	sc := smallScenario()
	sc.Ticks = 100000 // far beyond anything a nanosecond budget allows
	_, _, err := sc.SimulateOptions(context.Background(), 4, RunOptions{Timeout: time.Nanosecond})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestSimulateContextCancelled(t *testing.T) {
	sc := smallScenario()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := sc.SimulateOptions(ctx, 2, RunOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestValidate(t *testing.T) {
	sc := smallScenario()
	if err := sc.Validate(); err != nil {
		t.Errorf("valid scenario: %v", err)
	}
	if err := (&Scenario{Worm: RandomWorm(0.8)}).Validate(); err == nil {
		t.Error("missing topology should fail validation")
	}
	if err := (&Scenario{Topology: Star(10)}).Validate(); err == nil {
		t.Error("missing worm should fail validation")
	}
	bad := smallScenario()
	bad.Worm = LocalPreferentialWorm(0.8, 2)
	if err := bad.Validate(); err == nil {
		t.Error("invalid worm spec should fail validation")
	}
	hubOnPL := smallScenario()
	hubOnPL.Defense = HubCap(2)
	if err := hubOnPL.Validate(); !errors.Is(err, ErrUnsupported) {
		t.Errorf("hub cap on power-law should be unsupported, got %v", err)
	}
	neg := smallScenario()
	neg.InitialInfected = -1
	if err := neg.Validate(); err == nil {
		t.Error("negative initial infections should fail validation")
	}
}

func TestScenarioWarnings(t *testing.T) {
	pl := smallScenario()
	if w := pl.Warnings(); len(w) != 0 {
		t.Errorf("power-law scenario should not warn, got %v", w)
	}
	star := smallScenario()
	star.Topology = Star(40)
	star.Defense = NoDefense()
	star.TrackSubnets = true
	if w := star.Warnings(); len(w) != 1 || !strings.Contains(w[0], "star") {
		t.Errorf("subnet tracking on a star should warn once, got %v", w)
	}
}

func TestScenarioStructuralThreshold(t *testing.T) {
	bad := RunOptions{StructuralThreshold: -2}
	if err := bad.Validate(); err == nil {
		t.Error("StructuralThreshold=-2 should fail options validation")
	}

	// The threshold is a representation knob only: forcing the dense
	// table (-1) and forcing the structural router (1, below any real
	// topology size) must produce byte-identical series.
	sc := smallScenario()
	want, _, err := sc.SimulateOptions(context.Background(), 2, RunOptions{StructuralThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := sc.SimulateOptions(context.Background(), 2, RunOptions{StructuralThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Infected, want.Infected) || !reflect.DeepEqual(got.Backlog, want.Backlog) {
		t.Error("structural routing series diverged from the dense table")
	}

	// A prebuilt Net carries its threshold: running it under options
	// that resolve to a different threshold must be rejected, not
	// silently routed with the wrong representation.
	net, err := sc.BuildNetThreshold(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sc.SimulateOptions(context.Background(), 1, RunOptions{Net: net, StructuralThreshold: -1}); err == nil {
		t.Error("prebuilt net with mismatched threshold should fail validation")
	}
	if _, _, err := sc.SimulateOptions(context.Background(), 1, RunOptions{Net: net, StructuralThreshold: 1}); err != nil {
		t.Errorf("prebuilt net with matching threshold rejected: %v", err)
	}
}
