package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/worm"
)

// smallConfig is a scaled-down population for fast tests (full-size
// calibration runs live in the benchmarks).
func smallConfig(duration int64) GenConfig {
	return GenConfig{
		Duration:        duration,
		Seed:            7,
		NormalClients:   60,
		Servers:         3,
		P2PClients:      5,
		Infected:        6,
		BlasterFraction: 0.5,
	}
}

func TestGenConfigValidate(t *testing.T) {
	ok := smallConfig(10 * Minute)
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	tests := []struct {
		name string
		mod  func(*GenConfig)
	}{
		{"zero duration", func(c *GenConfig) { c.Duration = 0 }},
		{"negative class", func(c *GenConfig) { c.Servers = -1 }},
		{"no hosts", func(c *GenConfig) {
			c.NormalClients, c.Servers, c.P2PClients, c.Infected = 0, 0, 0, 0
		}},
		{"too many hosts", func(c *GenConfig) { c.NormalClients = 70000 }},
		{"bad blaster fraction", func(c *GenConfig) { c.BlasterFraction = 2 }},
		{"negative onset", func(c *GenConfig) { c.WormOnset = -1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := smallConfig(10 * Minute)
			tt.mod(&c)
			if err := c.Validate(); err == nil {
				t.Error("want validation error")
			}
		})
	}
}

func TestHostClassLayout(t *testing.T) {
	cfg := smallConfig(Minute)
	if cfg.NumHosts() != 74 {
		t.Fatalf("NumHosts = %d", cfg.NumHosts())
	}
	if cfg.HostClass(0) != ClassNormal || cfg.HostClass(59) != ClassNormal {
		t.Error("normal block wrong")
	}
	if cfg.HostClass(60) != ClassServer || cfg.HostClass(62) != ClassServer {
		t.Error("server block wrong")
	}
	if cfg.HostClass(63) != ClassP2P || cfg.HostClass(67) != ClassP2P {
		t.Error("p2p block wrong")
	}
	if cfg.HostClass(68) != ClassInfected || cfg.HostClass(73) != ClassInfected {
		t.Error("infected block wrong")
	}
	if got := len(cfg.HostsOfClass(ClassInfected)); got != 6 {
		t.Errorf("infected hosts = %d, want 6", got)
	}
}

func TestGenerateBasics(t *testing.T) {
	cfg := smallConfig(10 * Minute)
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(tr.Records) == 0 {
		t.Fatal("empty trace")
	}
	var dns, outbound, inbound, icmp, tcp135 int
	for i := range tr.Records {
		r := &tr.Records[i]
		if i > 0 && r.Time < tr.Records[i-1].Time {
			t.Fatal("trace not time-sorted")
		}
		if r.Time < 0 || r.Time >= cfg.Duration+Minute {
			t.Fatalf("record time %d out of range", r.Time)
		}
		// Every record must cross the edge router.
		if !r.Inbound() && !r.Outbound() {
			t.Fatalf("internal-only record in edge trace: %+v", *r)
		}
		if r.IsDNSResponse() {
			dns++
		}
		if r.Outbound() {
			outbound++
			if r.DstPort == 135 {
				tcp135++
			}
			if r.Proto == worm.ProtoICMP {
				icmp++
			}
		} else {
			inbound++
		}
	}
	if dns == 0 {
		t.Error("no DNS responses generated")
	}
	if outbound == 0 || inbound == 0 {
		t.Error("traffic should flow both ways")
	}
	if tcp135 == 0 {
		t.Error("no Blaster scanning generated")
	}
	if icmp == 0 {
		t.Error("no Welchia scanning generated")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := smallConfig(5 * Minute)
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The serialized trace is pinned, so the generator's order contract
	// (time, then host, then generation order) cannot drift between
	// builds. A deliberate change to the generator must update the hash.
	h := sha256.New()
	if _, err := a.WriteTo(h); err != nil {
		t.Fatal(err)
	}
	const wantSHA = "95089c9186891b10bcd9e9519f8075a43a6590bcfa924c0a1587105331d3a5e5"
	if got := hex.EncodeToString(h.Sum(nil)); got != wantSHA {
		t.Errorf("trace SHA-256 = %s, want %s", got, wantSHA)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Records) != len(b.Records) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs", i)
		}
	}
	cfg.Seed = 8
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Records) == len(a.Records) {
		same := true
		for i := range a.Records {
			if a.Records[i] != c.Records[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical traces")
		}
	}
}

func TestGenerateBadConfig(t *testing.T) {
	cfg := smallConfig(Minute)
	cfg.Duration = -1
	if _, err := Generate(cfg); err == nil {
		t.Error("invalid config should fail")
	}
	// Valid for the streaming replayer, too long for Generate's sort key.
	cfg.Duration = maxDuration + 1
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if _, err := Generate(cfg); err == nil {
		t.Error("duration beyond the generator's limit should fail")
	}
}

func TestWormOnsetDelaysScanning(t *testing.T) {
	cfg := smallConfig(10 * Minute)
	cfg.NormalClients, cfg.Servers, cfg.P2PClients = 0, 0, 0
	cfg.WormOnset = 5 * Minute
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Infected hosts still emit normal background traffic before onset,
	// but no scan-signature records (TCP/135 SYN or outbound ICMP).
	for i := range tr.Records {
		r := &tr.Records[i]
		if r.Time >= cfg.WormOnset || !r.Outbound() {
			continue
		}
		if (r.DstPort == 135 && r.Flags&FlagSYN != 0) || r.Proto == worm.ProtoICMP {
			t.Fatalf("scan record at %d before onset %d: %+v", r.Time, cfg.WormOnset, *r)
		}
	}
}

// The classes must be separable by the analyzer: infected >> p2p >>
// normal in aggregate contact rate, and the refinements must cut normal
// clients' counts.
func TestClassSeparation(t *testing.T) {
	cfg := smallConfig(15 * Minute)
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rate := func(cl Class) float64 {
		t.Helper()
		stats, err := AnalyzeAggregate(tr, cfg.HostsOfClass(cl), 5*Second)
		if err != nil {
			t.Fatalf("analyze %v: %v", cl, err)
		}
		// Normalize by population for a per-host comparison.
		return stats.All.Mean() / float64(len(cfg.HostsOfClass(cl)))
	}
	normal, p2p, infected := rate(ClassNormal), rate(ClassP2P), rate(ClassInfected)
	if !(normal < p2p && p2p < infected) {
		t.Errorf("per-host rates not ordered: normal=%v p2p=%v infected=%v", normal, p2p, infected)
	}
	if infected < 20*normal {
		t.Errorf("infected rate %v should dwarf normal %v", infected, normal)
	}
	// Refinements help normal clients.
	stats, err := AnalyzeAggregate(tr, cfg.HostsOfClass(ClassNormal), 5*Second)
	if err != nil {
		t.Fatal(err)
	}
	if !(stats.NonDNS.Mean() < stats.NoPrior.Mean() && stats.NoPrior.Mean() <= stats.All.Mean()) {
		t.Errorf("refinements should reduce counts: %v / %v / %v",
			stats.All.Mean(), stats.NoPrior.Mean(), stats.NonDNS.Mean())
	}
	// ...but barely matter for worm traffic (Figure 9(b)'s tight lines).
	wstats, err := AnalyzeAggregate(tr, cfg.HostsOfClass(ClassInfected), 5*Second)
	if err != nil {
		t.Fatal(err)
	}
	if wstats.NonDNS.Mean() < 0.9*wstats.All.Mean() {
		t.Errorf("worm traffic should spike all three metrics: %v vs %v",
			wstats.NonDNS.Mean(), wstats.All.Mean())
	}
}

func TestClassifyGeneratedTrace(t *testing.T) {
	cfg := smallConfig(15 * Minute)
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reports := Classify(tr)
	byHost := make(map[int]HostReport, len(reports))
	for _, r := range reports {
		byHost[r.Host] = r
	}
	correct, total := 0, 0
	var blaster, welchia int
	for h := 0; h < cfg.NumHosts(); h++ {
		want := cfg.HostClass(h)
		rep, seen := byHost[h]
		if !seen {
			continue // host generated no traffic in the short window
		}
		total++
		if rep.Class == want {
			correct++
		}
		switch rep.Worm {
		case WormBlaster:
			blaster++
		case WormWelchia:
			welchia++
		}
	}
	if total == 0 {
		t.Fatal("no hosts classified")
	}
	acc := float64(correct) / float64(total)
	if acc < 0.9 {
		t.Errorf("classification accuracy %.2f, want >= 0.9", acc)
	}
	if blaster == 0 || welchia == 0 {
		t.Errorf("worm detection found blaster=%d welchia=%d, want both > 0", blaster, welchia)
	}
	// The Welchia peak should be roughly an order of magnitude above
	// Blaster's (paper footnote 1).
	maxB, maxW := 0, 0
	for _, r := range reports {
		switch r.Worm {
		case WormBlaster:
			if r.PeakScanPerMinute > maxB {
				maxB = r.PeakScanPerMinute
			}
		case WormWelchia:
			if r.PeakScanPerMinute > maxW {
				maxW = r.PeakScanPerMinute
			}
		}
	}
	if maxW < 4*maxB {
		t.Errorf("welchia peak %d should dwarf blaster peak %d", maxW, maxB)
	}
}
