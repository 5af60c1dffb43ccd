package trace

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/ratelimit"
	"repro/internal/worm"
)

// Paper host-class sizes (Section 7, CMU ECE subnet, 1128 hosts).
const (
	PaperNormalClients = 999
	PaperServers       = 17
	PaperP2PClients    = 33
	PaperInfected      = 79
)

// Class is a host's behavioural class.
type Class uint8

// Host classes observed in the paper's traces.
const (
	ClassNormal Class = iota
	ClassServer
	ClassP2P
	ClassInfected
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassNormal:
		return "normal"
	case ClassServer:
		return "server"
	case ClassP2P:
		return "p2p"
	case ClassInfected:
		return "infected"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// GenConfig configures the synthetic trace generator. The zero value is
// not usable; start from DefaultGenConfig.
type GenConfig struct {
	// Duration is the trace length in milliseconds. Generate takes at
	// most 2^32 ms (about 49.7 days); the streaming replayer has no cap.
	Duration int64
	// Seed drives all randomness.
	Seed int64
	// Class populations (defaults: the paper's 999/17/33/79).
	NormalClients, Servers, P2PClients, Infected int
	// BlasterFraction of the infected hosts run Blaster; the rest run
	// Welchia. The paper saw both (some hosts had both).
	BlasterFraction float64
	// WormOnset is when infected hosts begin scanning.
	WormOnset int64
}

// maxDuration bounds GenConfig.Duration so every intent time fits the
// upper half of Generate's 64-bit sort key.
const maxDuration = 1 << 32

// DefaultGenConfig returns the paper-shaped configuration for the given
// duration and seed.
func DefaultGenConfig(duration int64, seed int64) GenConfig {
	return GenConfig{
		Duration:        duration,
		Seed:            seed,
		NormalClients:   PaperNormalClients,
		Servers:         PaperServers,
		P2PClients:      PaperP2PClients,
		Infected:        PaperInfected,
		BlasterFraction: 0.6,
	}
}

// Validate checks the configuration.
func (c *GenConfig) Validate() error {
	if c.Duration <= 0 {
		return fmt.Errorf("trace: duration %d must be positive", c.Duration)
	}
	if c.NormalClients < 0 || c.Servers < 0 || c.P2PClients < 0 || c.Infected < 0 {
		return fmt.Errorf("trace: negative class population")
	}
	total := c.NormalClients + c.Servers + c.P2PClients + c.Infected
	if total == 0 {
		return fmt.Errorf("trace: no hosts configured")
	}
	if total > 0xFFFF {
		return fmt.Errorf("trace: %d hosts exceed the internal address block", total)
	}
	if c.BlasterFraction < 0 || c.BlasterFraction > 1 {
		return fmt.Errorf("trace: blaster fraction %v out of [0,1]", c.BlasterFraction)
	}
	if c.WormOnset < 0 {
		return fmt.Errorf("trace: worm onset %d must be >= 0", c.WormOnset)
	}
	return nil
}

// NumHosts returns the total internal host count.
func (c *GenConfig) NumHosts() int {
	return c.NormalClients + c.Servers + c.P2PClients + c.Infected
}

// HostClass returns the class of internal host index i (layout: normal,
// then servers, then P2P, then infected).
func (c *GenConfig) HostClass(i int) Class {
	switch {
	case i < c.NormalClients:
		return ClassNormal
	case i < c.NormalClients+c.Servers:
		return ClassServer
	case i < c.NormalClients+c.Servers+c.P2PClients:
		return ClassP2P
	default:
		return ClassInfected
	}
}

// HostsOfClass returns the indices of all hosts in class cl.
func (c *GenConfig) HostsOfClass(cl Class) []int {
	var out []int
	for i := 0; i < c.NumHosts(); i++ {
		if c.HostClass(i) == cl {
			out = append(out, i)
		}
	}
	return out
}

// DNSServerHost is the index offset (within the server block) of the
// departmental DNS server whose upstream resolutions the edge router
// sees.
const DNSServerHost = 0

// Behavioural constants, tuned so the analyzer reproduces the paper's
// published percentiles (see calibration tests and EXPERIMENTS.md).
const (
	// Normal clients: browsing sessions. A session front-loads a "page
	// load" burst of destinations, then trickles the rest.
	normalSessionsPerHour = 0.8
	normalSessionMeanMS   = 30 * Second
	normalSessionContacts = 4    // mean distinct destinations per session
	normalBurstMax        = 4    // destinations in the initial page-load burst
	normalDNSProb         = 0.66 // contacts preceded by a DNS translation
	normalPriorProb       = 0.18 // contacts to hosts that contacted us first
	normalRepeatPackets   = 2    // packets per contact

	// P2P clients: continuous peer churn.
	p2pContactsPerMinute = 7.0
	p2pDNSProb           = 0.58
	p2pPriorProb         = 0.33
	p2pBurstProb         = 0.03 // occasional search bursts
	p2pBurstContacts     = 18

	// Servers: almost all traffic is inbound-initiated.
	serverInboundPerMinute = 20.0
	serverOutboundPerHour  = 6.0 // fresh outbound (SMTP relay etc.)
	serverOutboundDNSProb  = 0.8

	// Worm behaviour (per §7 footnote: Welchia peak 7068/min, Blaster
	// peak 671/min; Blaster more persistent). Raw scan rates are scaled
	// up by 1/(1-wormLocalPref) so the *edge-visible* peak matches the
	// paper's numbers, since local scans never cross the edge router.
	blasterMeanPerMinute = 180.0
	blasterPeakPerMinute = 960.0 // ≈ 671 visible
	welchiaMeanPerMinute = 800.0
	welchiaPeakPerMinute = 10100.0 // ≈ 7068 visible
	welchiaBurstProb     = 0.02    // fraction of minutes at peak rate
	blasterPeakProb      = 0.05
	wormLocalPref        = 0.30 // scans at internal targets (invisible at edge)
	welchiaReplyProb     = 0.05 // probed targets that answer the ping

	dnsUpstreamTTL = 2 * Hour
)

// P2P application ports (Kazaa, Gnutella, Bittorrent, edonkey) used to
// label P2P traffic so the classifier can recognize it.
var p2pPorts = []uint16{1214, 6346, 6881, 4662}

// intent is a planned outbound contact before DNS/prior-contact
// bookkeeping expands it into records.
type intent struct {
	time    int64
	host    int
	target  ratelimit.IP
	proto   worm.Proto
	dstPort uint16
	flags   TCPFlag
	needDNS bool
	prior   bool // target should have initiated contact beforehand
	packets int
	reply   bool // target answers (Welchia ping probe)
}

// Generate synthesizes a trace per cfg. The result is time-sorted.
//
// Order contract: intents are generated host by host in index order
// (an infected host's background browsing before its scans) and then
// ordered by time, ties kept in generation order — host order first,
// then the order the host's generator emitted them. Records are
// expanded in that order and stably sorted by time, so a trace is a
// pure function of cfg.
func Generate(cfg GenConfig) (*Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Duration > maxDuration {
		return nil, fmt.Errorf("trace: duration %d ms exceeds the generator's limit of %d ms", cfg.Duration, int64(maxDuration))
	}
	var intents []intent
	for h := 0; h < cfg.NumHosts(); h++ {
		rng := rand.New(rand.NewSource(cfg.Seed ^ (0x5E3779B97F4A7C15 * int64(h+1))))
		switch cfg.HostClass(h) {
		case ClassNormal:
			intents = genNormal(intents, cfg, h, rng)
		case ClassServer:
			intents = genServer(intents, cfg, h, rng)
		case ClassP2P:
			intents = genP2P(intents, cfg, h, rng)
		case ClassInfected:
			intents = genNormal(intents, cfg, h, rng) // background
			intents = genWorm(intents, cfg, h, rng)
		}
	}
	if uint64(len(intents)) > math.MaxUint32 {
		return nil, fmt.Errorf("trace: %d planned contacts exceed the generator's limit", len(intents))
	}
	// Each key packs (time, generation index) into one uint64; times are
	// below Duration <= maxDuration. The pair is a total order, so
	// sorting the keys gives exactly the stable time order.
	order := make([]uint64, len(intents))
	for i := range intents {
		order[i] = uint64(intents[i].time)<<32 | uint64(i)
	}
	slices.Sort(order)
	return expand(cfg, intents, order), nil
}

// externalIP draws a random address outside the monitored network.
func externalIP(rng *rand.Rand) ratelimit.IP {
	for {
		addr := ratelimit.IP(rng.Uint32())
		if !Internal(addr) && addr != 0 {
			return addr
		}
	}
}

// expDelay draws an exponential inter-arrival time in ms with the given
// mean.
func expDelay(rng *rand.Rand, meanMS float64) int64 {
	d := int64(rng.ExpFloat64() * meanMS)
	if d < 1 {
		d = 1
	}
	return d
}

// genNormal appends a desktop client's browsing sessions to out.
func genNormal(out []intent, cfg GenConfig, h int, rng *rand.Rand) []intent {
	sessionGap := float64(Hour) / normalSessionsPerHour
	for t := expDelay(rng, sessionGap); t < cfg.Duration; t += expDelay(rng, sessionGap) {
		// One browsing session: a page-load burst of destinations within
		// ~1 s, then stragglers over ~30 s.
		n := 1 + rng.Intn(2*normalSessionContacts-1) // mean ≈ normalSessionContacts
		burst := 2 + rng.Intn(normalBurstMax-1)
		if burst > n {
			burst = n
		}
		st := t
		for k := 0; k < n && st < cfg.Duration; k++ {
			out = append(out, intent{
				time:    st,
				host:    h,
				target:  externalIP(rng),
				proto:   worm.ProtoTCP,
				dstPort: 80,
				flags:   FlagSYN,
				needDNS: rng.Float64() < normalDNSProb,
				prior:   rng.Float64() < normalPriorProb,
				packets: 1 + rng.Intn(normalRepeatPackets),
			})
			if k < burst-1 {
				st += int64(1 + rng.Intn(300)) // within the page load
			} else {
				st += expDelay(rng, float64(normalSessionMeanMS)/float64(n))
			}
		}
	}
	return out
}

// genServer appends a server's traffic to out: heavy inbound, rare
// fresh outbound.
func genServer(out []intent, cfg GenConfig, h int, rng *rand.Rand) []intent {
	// Inbound requests (planned as prior-contact replies: the expansion
	// pass emits the inbound packet first, then our response).
	gap := float64(Minute) / serverInboundPerMinute
	for t := expDelay(rng, gap); t < cfg.Duration; t += expDelay(rng, gap) {
		out = append(out, intent{
			time:    t,
			host:    h,
			target:  externalIP(rng),
			proto:   worm.ProtoTCP,
			dstPort: 25,
			flags:   FlagACK,
			prior:   true, // response to an inbound request
			packets: 2,
		})
	}
	// Fresh outbound (mail relay, upstream fetches).
	gap = float64(Hour) / serverOutboundPerHour
	for t := expDelay(rng, gap); t < cfg.Duration; t += expDelay(rng, gap) {
		out = append(out, intent{
			time:    t,
			host:    h,
			target:  externalIP(rng),
			proto:   worm.ProtoTCP,
			dstPort: 25,
			flags:   FlagSYN,
			needDNS: rng.Float64() < serverOutboundDNSProb,
			packets: 2,
		})
	}
	return out
}

// genP2P appends a peer-to-peer client's churn to out.
func genP2P(out []intent, cfg GenConfig, h int, rng *rand.Rand) []intent {
	port := p2pPorts[rng.Intn(len(p2pPorts))]
	gap := float64(Minute) / p2pContactsPerMinute
	for t := expDelay(rng, gap); t < cfg.Duration; t += expDelay(rng, gap) {
		n := 1
		if rng.Float64() < p2pBurstProb {
			n = 1 + rng.Intn(2*p2pBurstContacts)
		}
		st := t
		for k := 0; k < n && st < cfg.Duration; k++ {
			out = append(out, intent{
				time:    st,
				host:    h,
				target:  externalIP(rng),
				proto:   worm.ProtoTCP,
				dstPort: port,
				flags:   FlagSYN,
				needDNS: rng.Float64() < p2pDNSProb,
				prior:   rng.Float64() < p2pPriorProb,
				packets: 1,
			})
			st += int64(1 + rng.Intn(400))
		}
	}
	return out
}

// genWorm appends an infected host's scans to out, minute by minute
// (not time-sorted: Generate's sort orders them).
func genWorm(out []intent, cfg GenConfig, h int, rng *rand.Rand) []intent {
	blaster := rng.Float64() < cfg.BlasterFraction
	// Scan minute by minute with a per-minute rate draw, so peak bursts
	// and lulls both appear, as in the paper's footnote.
	for minute := cfg.WormOnset / Minute; minute*Minute < cfg.Duration; minute++ {
		var rate float64
		if blaster {
			rate = blasterMeanPerMinute * (0.5 + rng.Float64())
			if rng.Float64() < blasterPeakProb {
				rate = blasterPeakPerMinute
			}
		} else {
			rate = welchiaMeanPerMinute * (0.3 + 1.4*rng.Float64())
			if rng.Float64() < welchiaBurstProb {
				rate = welchiaPeakPerMinute
			}
		}
		base := minute * Minute
		n := int(rate)
		// Sequential scanning from a random base (Blaster's real walk);
		// Welchia sweeps ranges too.
		cursor := rng.Uint32()
		for k := 0; k < n; k++ {
			t := base + int64(rng.Intn(int(Minute)))
			if t >= cfg.Duration {
				continue
			}
			cursor++
			tgt := ratelimit.IP(cursor)
			if rng.Float64() < wormLocalPref || Internal(tgt) || tgt == 0 {
				continue // internal scans never cross the edge router
			}
			if blaster {
				out = append(out, intent{
					time: t, host: h, target: tgt,
					proto: worm.ProtoTCP, dstPort: 135, flags: FlagSYN, packets: 1,
				})
			} else {
				out = append(out, intent{
					time: t, host: h, target: tgt,
					proto: worm.ProtoICMP, packets: 1,
					reply: rng.Float64() < welchiaReplyProb,
				})
			}
		}
	}
	return out
}

// expand turns intents, visited in the order of Generate's sorted keys
// (the low 32 bits index intents), into records, inserting upstream DNS
// resolutions (shared network cache), inbound precursors for
// prior-contact targets, and Welchia ping replies + exploit follow-ups.
func expand(cfg GenConfig, intents []intent, order []uint64) *Trace {
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5DEECE66D))
	dnsServer := HostIP(cfg.NormalClients + DNSServerHost)
	hasDNSServer := cfg.Servers > 0
	dnsCache := make(map[ratelimit.IP]int64) // external -> expiry
	initiated := make(map[ratelimit.IP]struct{})
	upstream := externalIP(rng) // the upstream resolver

	t := &Trace{Records: make([]Record, 0, len(intents)*2)}
	for _, key := range order {
		in := &intents[uint32(key)]
		src := HostIP(in.host)
		if in.needDNS && hasDNSServer {
			if exp, ok := dnsCache[in.target]; !ok || in.time > exp {
				// Upstream query + response, visible at the edge.
				q := in.time - int64(20+rng.Intn(60))
				if q < 0 {
					q = 0
				}
				t.Records = append(t.Records,
					Record{Time: q, Src: dnsServer, Dst: upstream,
						Proto: worm.ProtoUDP, SrcPort: 32768, DstPort: 53},
					Record{Time: q + int64(5+rng.Intn(40)), Src: upstream, Dst: dnsServer,
						Proto: worm.ProtoUDP, SrcPort: 53, DstPort: 32768,
						DNSAnswer: in.target, DNSTTL: dnsUpstreamTTL},
				)
				dnsCache[in.target] = in.time + dnsUpstreamTTL
			}
		}
		if in.prior {
			if _, ok := initiated[in.target]; !ok {
				p := in.time - int64(100+rng.Intn(5000))
				if p < 0 {
					p = 0
				}
				t.Records = append(t.Records, Record{
					Time: p, Src: in.target, Dst: src,
					Proto: in.proto, SrcPort: in.dstPort, DstPort: 30000, Flags: FlagSYN,
				})
				initiated[in.target] = struct{}{}
			}
		}
		for k := 0; k < in.packets; k++ {
			t.Records = append(t.Records, Record{
				Time: in.time + int64(k*15), Src: src, Dst: in.target,
				Proto: in.proto, SrcPort: 30000, DstPort: in.dstPort, Flags: in.flags,
			})
		}
		if in.reply {
			// Welchia: ping reply comes back, exploit follows on TCP/135.
			rt := in.time + int64(30+rng.Intn(200))
			t.Records = append(t.Records,
				Record{Time: rt, Src: in.target, Dst: src, Proto: worm.ProtoICMP},
				Record{Time: rt + int64(10+rng.Intn(50)), Src: src, Dst: in.target,
					Proto: worm.ProtoTCP, SrcPort: 30000, DstPort: 135, Flags: FlagSYN},
			)
		}
	}
	t.Sort()
	return t
}
