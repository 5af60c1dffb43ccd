// Quickstart: simulate a random-propagation worm on a 1000-node
// power-law (AS-like) topology, with and without backbone rate
// limiting, and compare against the paper's analytical prediction.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/plot"
	"repro/internal/runner"
)

func main() {
	// A Code-Red-style worm: every tick each infected host makes 10
	// scan attempts, each hitting a uniformly random address with
	// probability β = 0.8.
	wormSpec := core.RandomWorm(0.8)
	wormSpec.ScansPerTick = 10

	open := core.Scenario{
		Topology:        core.PowerLaw(1000),
		Worm:            wormSpec,
		Ticks:           150,
		InitialInfected: 5,
	}
	defended := open
	defended.Defense = core.BackboneRateLimit(0.4)

	// Replicas run concurrently on a bounded worker pool; the averaged
	// series is identical for any job count. Timeout caps the whole
	// batch, and Progress reports throughput as replicas finish.
	ctx := context.Background()
	openRes, _, err := open.SimulateOptions(ctx, 10, core.RunOptions{
		Timeout: 2 * time.Minute,
		Progress: func(s runner.Stats) {
			fmt.Fprintf(os.Stderr, "open: %d/%d runs (%.0f ticks/sec)\n",
				s.Completed, s.Runs, s.TicksPerSec())
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defRes, _, err := defended.SimulateOptions(ctx, 10, core.RunOptions{Jobs: 4})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Dynamic Quarantine of Internet Worms — quickstart")
	fmt.Printf("no rate limiting:      50%% infected at tick %.0f\n", openRes.TimeToLevel(0.5))
	fmt.Printf("backbone rate limiting: 50%% infected at tick %.0f (%.1fx slower)\n",
		defRes.TimeToLevel(0.5), defRes.TimeToLevel(0.5)/openRes.TimeToLevel(0.5))

	// The matching analytical model (Equation 6). Its α is the path
	// coverage measured on this scenario's actual topology; the worm
	// still spreads through the rate-limited core at δ = min(Iβα,
	// rN/2³²), so compare predicted time-to-half, not the naive
	// all-or-nothing 1/(1-α).
	m, err := defended.Model()
	if err != nil {
		log.Fatal(err)
	}
	bb := m.(model.BackboneRL)
	fmt.Printf("analytical t50 for measured α=%.2f coverage: tick %.0f\n",
		bb.Alpha, bb.TimeToLevel(0.5))
	fmt.Println("(the model near-blocks covered paths; the simulator only throttles them,")
	fmt.Println(" so the simulated slowdown is the conservative number)")

	fig := plot.Figure{
		Title:  "Worm propagation with and without backbone rate limiting",
		XLabel: "time (ticks)",
		YLabel: "fraction infected",
		Series: []plot.Series{
			series("no rate limiting", openRes.Infected),
			series("backbone rate limiting", defRes.Infected),
		},
	}
	out, err := fig.RenderASCII(72, 16)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(out)
}

func series(label string, ys []float64) plot.Series {
	xs := make([]float64, len(ys))
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return plot.Series{Label: label, X: xs, Y: ys}
}
