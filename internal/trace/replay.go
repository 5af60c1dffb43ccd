package trace

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"

	"repro/internal/ratelimit"
	"repro/internal/worm"
)

// Contact is one connection attempt initiated by a monitored internal
// host — the unit the simulation engine's trace-replay driver consumes.
// A contact competes for the host's rate-limiter credits whether or not
// its destination lies inside the simulated network; only internal
// destinations become in-network packets.
type Contact struct {
	// Host is the internal host index (HostIndex of the source address).
	Host int32
	// Dst is the destination address, internal or external.
	Dst ratelimit.IP
	// Worm marks the contact as worm scan traffic (see WormFlow); all
	// other contacts are benign background load.
	Worm bool
}

// WormFlow classifies a record as worm scan traffic: a TCP SYN at the
// DCOM RPC port 135 (Blaster's exploit vector, also Welchia's follow-up
// exploit) or any ICMP packet (Welchia's ping sweep). Everything else —
// web, mail, DNS, P2P — is benign background load. The heuristic
// mirrors how the paper's Section 7 analysis separates the two worms
// from normal traffic in the campus traces.
func WormFlow(r *Record) bool {
	if r.Proto == worm.ProtoTCP && r.DstPort == 135 && r.Flags&FlagSYN != 0 {
		return true
	}
	return r.Proto == worm.ProtoICMP
}

// Replayer buckets a millisecond-timestamped contact stream into engine
// ticks: tick t covers trace times [t·msPerTick, (t+1)·msPerTick). It
// is the streaming adapter between trace time and the simulator's
// discrete clock — the whole trace is never materialized; the look-ahead
// held between calls is bounded by the source (one record for file
// streams, one generator event horizon for synthetic streams),
// independent of trace length.
//
// Contacts must be called with successive ticks (0, 1, 2, ... — or
// starting at n after Skip(n)); the returned slice is reused by the
// next call and must not be retained. A Replayer serves one replay run;
// build a fresh one per run.
type Replayer struct {
	msPerTick int64
	nextTick  int
	buf       []Contact
	fill      func(lo, hi int64, emit func(Contact)) error
}

// Contacts returns the tick's contact batch, grouped by host ascending
// with each host's stream order preserved — the canonical order the
// engine's determinism contract fixes.
func (r *Replayer) Contacts(tick int) ([]Contact, error) {
	if tick != r.nextTick {
		return nil, fmt.Errorf("trace: replay tick %d out of order (stream is at tick %d)", tick, r.nextTick)
	}
	r.buf = r.buf[:0]
	lo := int64(tick) * r.msPerTick
	hi := lo + r.msPerTick
	if err := r.fill(lo, hi, func(c Contact) { r.buf = append(r.buf, c) }); err != nil {
		return nil, err
	}
	slices.SortStableFunc(r.buf, func(a, b Contact) int { return cmp.Compare(a.Host, b.Host) })
	r.nextTick++
	return r.buf, nil
}

// Skip advances the stream past ticks [nextTick, n) and returns the
// number of contacts skipped. Checkpoint restore uses it to reposition
// a fresh Replayer at a snapshot's tick boundary; the returned count is
// cross-checked against the snapshotted stream position, so resuming
// against a different trace fails loudly instead of silently diverging.
func (r *Replayer) Skip(n int) (int64, error) {
	if n < r.nextTick {
		return 0, fmt.Errorf("trace: cannot skip back to tick %d (stream is at tick %d)", n, r.nextTick)
	}
	var total int64
	for r.nextTick < n {
		batch, err := r.Contacts(r.nextTick)
		if err != nil {
			return total, err
		}
		total += int64(len(batch))
	}
	return total, nil
}

// NewRecordReplayer streams a serialized trace (the WriteTo format) as
// tick-bucketed contacts: every record whose source is a monitored
// internal host becomes one Contact, classified by WormFlow; inbound
// and external records are skipped. Records must be in time order (as
// WriteTo emits them); at most one record of look-ahead is held between
// ticks, so arbitrarily long traces replay in constant memory.
func NewRecordReplayer(rd io.Reader, msPerTick int64) (*Replayer, error) {
	if msPerTick <= 0 {
		return nil, fmt.Errorf("trace: replay ms per tick %d must be positive", msPerTick)
	}
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	var (
		pending     Contact
		pendingTime int64
		havePending bool
		lastTime    int64
		line        int
	)
	r := &Replayer{msPerTick: msPerTick}
	r.fill = func(_, hi int64, emit func(Contact)) error {
		if havePending {
			if pendingTime >= hi {
				return nil
			}
			emit(pending)
			havePending = false
		}
		for sc.Scan() {
			line++
			text := strings.TrimSpace(sc.Text())
			if text == "" {
				continue
			}
			rec, err := parseRecord(text)
			if err != nil {
				return fmt.Errorf("%w: line %d: %v", ErrBadRecord, line, err)
			}
			if rec.Time < lastTime {
				return fmt.Errorf("%w: line %d: record at %d ms after %d ms (replay requires time order)",
					ErrBadRecord, line, rec.Time, lastTime)
			}
			lastTime = rec.Time
			h := HostIndex(rec.Src)
			if h < 0 {
				continue // inbound or external-to-external: not a monitored host's contact
			}
			c := Contact{Host: int32(h), Dst: rec.Dst, Worm: WormFlow(&rec)}
			if rec.Time >= hi {
				pending, pendingTime, havePending = c, rec.Time, true
				return nil
			}
			emit(c)
		}
		if err := sc.Err(); err != nil {
			return fmt.Errorf("trace: replay read: %w", err)
		}
		return nil
	}
	return r, nil
}

// benignInternalProb is the fraction of benign synthetic-replay
// contacts aimed at internal hosts instead of the outside world. The
// trace generator proper (Generate) omits internal-internal flows — an
// edge router never sees them — but the replay profile simulates the
// whole subnet, so a slice of intranet traffic exercises the in-network
// packet path (queues, drops) alongside the limiter seam.
const benignInternalProb = 0.10

// synthContact is a generated contact waiting for its tick window.
type synthContact struct {
	time int64
	dst  ratelimit.IP
	worm bool
}

// synthProcKind names one host's traffic process in the synthetic
// replay profile.
type synthProcKind uint8

const (
	procNormal synthProcKind = iota
	procServerIn
	procServerOut
	procP2P
	procWorm
)

// Per-process seed salts, so a host's processes draw independent
// streams (an infected host runs a background process and a worm
// process side by side).
const (
	replaySaltNormal    int64 = 0x243F6A8885A308D3
	replaySaltServerIn  int64 = 0x13198A2E03707344
	replaySaltServerOut int64 = 0x2B7E151628AED2A6
	replaySaltP2P       int64 = 0x452821E638D01377
	replaySaltWorm      int64 = 0x082EFA98EC4E6C89
)

// synthProc is one host's resumable traffic process: next is the time
// of its next top-level event (browsing session, inbound request, P2P
// contact, worm minute), and pend holds contacts already generated but
// beyond the current tick window. pend is bounded by one event's span
// (a session, a burst, one worm minute) — the constant-memory window of
// the synthetic stream.
type synthProc struct {
	host    int32
	kind    synthProcKind
	rng     *rand.Rand
	next    int64
	pend    []synthContact
	blaster bool
}

// NewSyntheticReplayer streams the generator's traffic profile
// (GenConfig's four host classes, the same calibrated behavioural
// constants as Generate) directly as tick-bucketed contacts, without
// ever materializing a trace: each host's processes are advanced lazily
// one tick window at a time. Two deliberate differences from Generate:
// worm scans include the internal sweep share (wormLocalPref) that an
// edge trace never records — that is what propagates infection inside
// the simulated subnet — and a benignInternalProb slice of benign
// contacts stays internal for the same reason.
func NewSyntheticReplayer(cfg GenConfig, msPerTick int64) (*Replayer, error) {
	if msPerTick <= 0 {
		return nil, fmt.Errorf("trace: replay ms per tick %d must be positive", msPerTick)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var procs []*synthProc
	add := func(h int, kind synthProcKind, salt int64) *synthProc {
		p := &synthProc{
			host: int32(h),
			kind: kind,
			rng:  rand.New(rand.NewSource(cfg.Seed ^ salt ^ (0x5E3779B97F4A7C15 * int64(h+1)))),
		}
		procs = append(procs, p)
		return p
	}
	for h := 0; h < cfg.NumHosts(); h++ {
		switch cfg.HostClass(h) {
		case ClassNormal:
			p := add(h, procNormal, replaySaltNormal)
			p.next = expDelay(p.rng, float64(Hour)/normalSessionsPerHour)
		case ClassServer:
			p := add(h, procServerIn, replaySaltServerIn)
			p.next = expDelay(p.rng, float64(Minute)/serverInboundPerMinute)
			q := add(h, procServerOut, replaySaltServerOut)
			q.next = expDelay(q.rng, float64(Hour)/serverOutboundPerHour)
		case ClassP2P:
			p := add(h, procP2P, replaySaltP2P)
			p.next = expDelay(p.rng, float64(Minute)/p2pContactsPerMinute)
		case ClassInfected:
			p := add(h, procNormal, replaySaltNormal)
			p.next = expDelay(p.rng, float64(Hour)/normalSessionsPerHour)
			w := add(h, procWorm, replaySaltWorm)
			w.blaster = w.rng.Float64() < cfg.BlasterFraction
			w.next = cfg.WormOnset / Minute * Minute
		}
	}
	r := &Replayer{msPerTick: msPerTick}
	r.fill = func(_, hi int64, emit func(Contact)) error {
		for _, p := range procs {
			p.advance(&cfg, hi, emit)
		}
		return nil
	}
	return r, nil
}

// benignTarget draws a benign contact's destination: usually external,
// occasionally an internal host (see benignInternalProb).
func (p *synthProc) benignTarget(cfg *GenConfig) ratelimit.IP {
	if p.rng.Float64() < benignInternalProb {
		return HostIP(p.rng.Intn(cfg.NumHosts()))
	}
	return externalIP(p.rng)
}

// advance emits the process's contacts with time < hi: first the held
// look-ahead entries that fell into the window, then every top-level
// event with start time < hi (an event's trailing contacts land in
// pend for later windows). Successive windows must be contiguous —
// Replayer guarantees that.
func (p *synthProc) advance(cfg *GenConfig, hi int64, emit func(Contact)) {
	kept := p.pend[:0]
	for _, c := range p.pend {
		if c.time < hi {
			emit(Contact{Host: p.host, Dst: c.dst, Worm: c.worm})
		} else {
			kept = append(kept, c)
		}
	}
	p.pend = kept
	push := func(t int64, dst ratelimit.IP, wormScan bool) {
		if t >= cfg.Duration {
			return
		}
		if t < hi {
			emit(Contact{Host: p.host, Dst: dst, Worm: wormScan})
		} else {
			p.pend = append(p.pend, synthContact{time: t, dst: dst, worm: wormScan})
		}
	}
	for p.next < hi && p.next < cfg.Duration {
		t := p.next
		switch p.kind {
		case procNormal:
			// One browsing session: a page-load burst, then stragglers
			// (the genNormal shape, one contact per destination).
			n := 1 + p.rng.Intn(2*normalSessionContacts-1)
			burst := 2 + p.rng.Intn(normalBurstMax-1)
			if burst > n {
				burst = n
			}
			st := t
			for k := 0; k < n && st < cfg.Duration; k++ {
				push(st, p.benignTarget(cfg), false)
				if k < burst-1 {
					st += int64(1 + p.rng.Intn(300))
				} else {
					st += expDelay(p.rng, float64(normalSessionMeanMS)/float64(n))
				}
			}
			p.next += expDelay(p.rng, float64(Hour)/normalSessionsPerHour)
		case procServerIn:
			// Response to an inbound request: outbound traffic to a host
			// that contacted us first, never throttle-worthy novelty but
			// still a contact the limiter sees.
			push(t, externalIP(p.rng), false)
			p.next += expDelay(p.rng, float64(Minute)/serverInboundPerMinute)
		case procServerOut:
			push(t, p.benignTarget(cfg), false)
			p.next += expDelay(p.rng, float64(Hour)/serverOutboundPerHour)
		case procP2P:
			n := 1
			if p.rng.Float64() < p2pBurstProb {
				n = 1 + p.rng.Intn(2*p2pBurstContacts)
			}
			st := t
			for k := 0; k < n && st < cfg.Duration; k++ {
				push(st, p.benignTarget(cfg), false)
				st += int64(1 + p.rng.Intn(400))
			}
			p.next += expDelay(p.rng, float64(Minute)/p2pContactsPerMinute)
		case procWorm:
			// One worm minute: a per-minute rate draw (peaks and lulls, as
			// in genWorm), scans spread uniformly over the minute. Unlike
			// the edge-trace generator, the local-preference share scans
			// internal hosts — the in-subnet sweep that spreads infection.
			var rate float64
			if p.blaster {
				rate = blasterMeanPerMinute * (0.5 + p.rng.Float64())
				if p.rng.Float64() < blasterPeakProb {
					rate = blasterPeakPerMinute
				}
			} else {
				rate = welchiaMeanPerMinute * (0.3 + 1.4*p.rng.Float64())
				if p.rng.Float64() < welchiaBurstProb {
					rate = welchiaPeakPerMinute
				}
			}
			n := int(rate)
			cursor := p.rng.Uint32()
			for k := 0; k < n; k++ {
				st := t + int64(p.rng.Intn(int(Minute)))
				cursor++
				tgt := ratelimit.IP(cursor)
				if p.rng.Float64() < wormLocalPref {
					tgt = HostIP(p.rng.Intn(cfg.NumHosts()))
				} else if Internal(tgt) || tgt == 0 {
					continue
				}
				push(st, tgt, true)
			}
			p.next += Minute
		}
	}
}
