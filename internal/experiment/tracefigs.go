package experiment

import (
	"context"
	"fmt"

	"repro/internal/plot"
	"repro/internal/trace"
)

// traceConfig builds the Section 7 synthetic-trace configuration.
func traceConfig(opt Options) trace.GenConfig {
	cfg := trace.DefaultGenConfig(opt.traceDuration(), opt.seed())
	if opt.Quick {
		cfg.NormalClients = 120
		cfg.Servers = 4
		cfg.P2PClients = 8
		cfg.Infected = 12
	}
	return cfg
}

// sectionTrace returns the Section 7 trace for opt and its
// configuration: the batch's shared copy inside RunAllStats, a fresh
// generation otherwise. Callers must not modify the trace. It returns
// ctx's error once the trace is in hand.
func sectionTrace(ctx context.Context, opt Options) (*trace.Trace, trace.GenConfig, error) {
	cfg := traceConfig(opt)
	tr, err := opt.traces.generate(cfg)
	if err != nil {
		return nil, cfg, err
	}
	return tr, cfg, ctx.Err()
}

// cdfSeries converts a histogram to a CDF plot series, skipping the
// zero bucket so the log-x rendering matches the paper's 1..1000 axis.
func cdfSeries(label string, h *trace.Histogram) plot.Series {
	xs, ps := h.Points()
	s := plot.Series{Label: label}
	for i, x := range xs {
		if x < 1 {
			continue
		}
		s.X = append(s.X, float64(x))
		s.Y = append(s.Y, ps[i])
	}
	if len(s.X) == 0 {
		s.X = []float64{1}
		s.Y = []float64{1}
	}
	return s
}

// fig9 builds one panel of Figure 9: the CDF of aggregate contact rates
// in 5-second windows for one host class, under the three refinements.
func fig9(ctx context.Context, opt Options, id string, class trace.Class, paper string) (*Result, error) {
	tr, cfg, err := sectionTrace(ctx, opt)
	if err != nil {
		return nil, fmt.Errorf("experiment: %s: %w", id, err)
	}
	stats, err := trace.AnalyzeAggregate(tr, cfg.HostsOfClass(class), 5*trace.Second)
	if err != nil {
		return nil, fmt.Errorf("experiment: %s: %w", id, err)
	}
	all, noPrior, nonDNS := stats.RecommendedLimits(0.999)
	return &Result{
		ID:    id,
		Paper: paper,
		Figure: plot.Figure{
			Title: fmt.Sprintf("Fig 9 (%s): CDF of aggregate contacts per 5 s, %d %s hosts",
				class, len(cfg.HostsOfClass(class)), class),
			XLabel: "attempted contacts to foreign hosts",
			YLabel: "fraction of windows",
			LogX:   true,
			Series: []plot.Series{
				cdfSeries("distinct IPs", &stats.All),
				cdfSeries("distinct IPs (no prior contact)", &stats.NoPrior),
				cdfSeries("distinct IPs (no prior contact, no DNS)", &stats.NonDNS),
			},
		},
		Metrics: map[string]float64{
			"p999_all":     float64(all),
			"p999_noPrior": float64(noPrior),
			"p999_nonDNS":  float64(nonDNS),
			"mean_all":     stats.All.Mean(),
		},
	}, nil
}

// Fig9a regenerates Figure 9(a): normal desktop clients.
func Fig9a(ctx context.Context, opt Options) (*Result, error) {
	return fig9(ctx, opt, "fig9a", trace.ClassNormal,
		"Normal clients: 99.9% of 5s windows within 16/14/9 contacts (all/no-prior/non-DNS)")
}

// Fig9b regenerates Figure 9(b): worm-infected hosts, whose scanning
// spikes all three refinements together.
func Fig9b(ctx context.Context, opt Options) (*Result, error) {
	return fig9(ctx, opt, "fig9b", trace.ClassInfected,
		"Infected hosts: contact rates orders of magnitude higher; refinements indistinguishable")
}

// TableRates regenerates the in-text rate-limit table of Section 7:
// the 99.9th-percentile contact limits per class and refinement, the
// per-host limits, and the window-size scaling of the aggregate non-DNS
// rate.
func TableRates(ctx context.Context, opt Options) (*Result, error) {
	tr, cfg, err := sectionTrace(ctx, opt)
	if err != nil {
		return nil, fmt.Errorf("experiment: tbl-rates: %w", err)
	}
	metrics := make(map[string]float64)
	fig := plot.Figure{
		Title:  "Section 7 rate-limit table (99.9th percentiles)",
		XLabel: "refinement (1=all, 2=no-prior, 3=non-DNS)",
		YLabel: "contacts per window",
	}
	aggregate := func(name string, class trace.Class) error {
		stats, err := trace.AnalyzeAggregate(tr, cfg.HostsOfClass(class), 5*trace.Second)
		if err != nil {
			return err
		}
		all, noPrior, nonDNS := stats.RecommendedLimits(0.999)
		metrics[name+"_all"] = float64(all)
		metrics[name+"_noPrior"] = float64(noPrior)
		metrics[name+"_nonDNS"] = float64(nonDNS)
		fig.Series = append(fig.Series, plot.Series{
			Label: name + " aggregate per 5s",
			X:     []float64{1, 2, 3},
			Y:     []float64{float64(all), float64(noPrior), float64(nonDNS)},
		})
		return ctx.Err()
	}
	if err := aggregate("normal", trace.ClassNormal); err != nil {
		return nil, fmt.Errorf("experiment: tbl-rates: %w", err)
	}
	if err := aggregate("p2p", trace.ClassP2P); err != nil {
		return nil, fmt.Errorf("experiment: tbl-rates: %w", err)
	}
	// Per-host limits for normal clients.
	ph, err := trace.AnalyzePerHost(tr, cfg.HostsOfClass(trace.ClassNormal), 5*trace.Second)
	if err != nil {
		return nil, fmt.Errorf("experiment: tbl-rates: %w", err)
	}
	hAll, _, hNonDNS := ph.RecommendedLimits(0.999)
	metrics["perhost_all"] = float64(hAll)
	metrics["perhost_nonDNS"] = float64(hNonDNS)
	// Window scaling of the aggregate non-DNS rate (1 s / 5 s / 60 s).
	for _, w := range []int64{trace.Second, 5 * trace.Second, 60 * trace.Second} {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("experiment: tbl-rates: %w", err)
		}
		stats, err := trace.AnalyzeAggregate(tr, cfg.HostsOfClass(trace.ClassNormal), w)
		if err != nil {
			return nil, fmt.Errorf("experiment: tbl-rates: %w", err)
		}
		metrics[fmt.Sprintf("window%ds_nonDNS", w/trace.Second)] =
			float64(stats.NonDNS.Quantile(0.999))
	}
	return &Result{
		ID:      "tbl-rates",
		Paper:   "Paper: normal 16/14/9 per 5s aggregate; host 4/1; P2P 89/61/26; windows 5/12/50",
		Figure:  fig,
		Metrics: metrics,
	}, nil
}

// TableClaims regenerates the paper's headline quantitative claims that
// are not tied to a single figure: the worm peak scan rates and the
// classification of the monitored population.
func TableClaims(ctx context.Context, opt Options) (*Result, error) {
	tr, cfg, err := sectionTrace(ctx, opt)
	if err != nil {
		return nil, fmt.Errorf("experiment: tbl-claims: %w", err)
	}
	reports := trace.Classify(tr)
	metrics := make(map[string]float64)
	classCounts := make(map[trace.Class]int)
	peakBlaster, peakWelchia := 0, 0
	for _, r := range reports {
		classCounts[r.Class]++
		switch r.Worm {
		case trace.WormBlaster:
			if r.PeakScanPerMinute > peakBlaster {
				peakBlaster = r.PeakScanPerMinute
			}
		case trace.WormWelchia:
			if r.PeakScanPerMinute > peakWelchia {
				peakWelchia = r.PeakScanPerMinute
			}
		}
	}
	metrics["peak_blaster_per_min"] = float64(peakBlaster)
	metrics["peak_welchia_per_min"] = float64(peakWelchia)
	metrics["classified_normal"] = float64(classCounts[trace.ClassNormal])
	metrics["classified_server"] = float64(classCounts[trace.ClassServer])
	metrics["classified_p2p"] = float64(classCounts[trace.ClassP2P])
	metrics["classified_infected"] = float64(classCounts[trace.ClassInfected])
	metrics["truth_normal"] = float64(cfg.NormalClients)
	metrics["truth_server"] = float64(cfg.Servers)
	metrics["truth_p2p"] = float64(cfg.P2PClients)
	metrics["truth_infected"] = float64(cfg.Infected)
	fig := plot.Figure{
		Title:  "Headline claims: detected worm peak scan rates",
		XLabel: "worm (1=blaster, 2=welchia)",
		YLabel: "peak distinct contacts per minute",
		Series: []plot.Series{{
			Label: "peak scan rate",
			X:     []float64{1, 2},
			Y:     []float64{float64(peakBlaster), float64(peakWelchia)},
		}},
	}
	return &Result{
		ID:      "tbl-claims",
		Paper:   "Paper: Welchia peak 7068/min vs Blaster 671/min; 999/17/33/79 host classes",
		Figure:  fig,
		Metrics: metrics,
	}, nil
}
