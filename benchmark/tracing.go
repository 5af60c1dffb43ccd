package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself is not instrumented).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = root
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Op       string `json:"op"`
	StartNs  int64  `json:"start_ns"` // since the tracer started
	EndNs    int64  `json:"end_ns"`
	// SelfNs is the span's duration minus the part of it its children
	// cover, filled in when the spans are written.
	SelfNs int64 `json:"self_ns"`
}

// tracer keeps spans in memory; write dumps them when the run ends. A
// nil *tracer records nothing, so untraced runs share the traced code.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{t0: time.Now(), workload: workload}
}

// start opens a span and returns its id (0 on a nil tracer).
func (t *tracer) start(name string, parent int, op string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Workload: t.workload, Op: op, StartNs: now, EndNs: -1})
	return len(t.spans)
}

// end closes span id and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	if t == nil || id == 0 {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.EndNs = now
	return float64(s.EndNs-s.StartNs) / 1e9
}

// add records an already-measured interval as a span.
func (t *tracer) add(name string, parent int, op string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Workload: t.workload, Op: op,
		StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds()})
	return len(t.spans)
}

// durations returns the durations in seconds of every closed span named
// name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.EndNs >= 0 {
			out = append(out, float64(s.EndNs-s.StartNs)/1e9)
		}
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, k int) bool { return ivs[i][0] < ivs[k][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// write dumps the spans, with their self times, as JSON lines.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent != 0 && s.EndNs >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNs, s.EndNs})
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if s.EndNs >= 0 {
			s.SelfNs = (s.EndNs - s.StartNs) - covered(children[s.ID], s.StartNs, s.EndNs)
		}
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tickCollector is the benchmark-owned obs.Collector installed in
// sim.Config.Collector on traced runs: it turns every engine tick into a
// child span and sums the tick's work counts and heap allocations.
type tickCollector struct {
	tr     *tracer
	parent int
	op     string
	last   time.Time
	lastB  uint64
	lastO  uint64

	ticks     []float64 // seconds per tick
	allocB    uint64
	allocObjs uint64
	sum       obs.Summary
}

func newTickCollector(tr *tracer, parent int, op string) *tickCollector {
	return &tickCollector{tr: tr, parent: parent, op: op}
}

// arm marks the start of the first tick.
func (c *tickCollector) arm() {
	c.lastB, c.lastO = heapAllocs()
	c.last = time.Now()
}

func (c *tickCollector) Tick(m obs.TickMetrics) {
	now := time.Now()
	b, o := heapAllocs()
	c.tr.add("sim.tick", c.parent, c.op, c.last, now)
	c.ticks = append(c.ticks, now.Sub(c.last).Seconds())
	c.allocB += b - c.lastB
	c.allocObjs += o - c.lastO
	c.sum.Ticks++
	c.sum.ScanAttempts += int64(m.ScanAttempts)
	c.sum.PacketsGenerated += int64(m.PacketsGenerated)
	c.sum.PacketsDelivered += int64(m.PacketsDelivered)
	c.sum.PacketsDropped += int64(m.PacketsDropped)
	c.sum.Infections += int64(m.NewInfections)
	// The collector's own bookkeeping is left out of the next tick.
	c.lastB, c.lastO = heapAllocs()
	c.last = time.Now()
}

func (c *tickCollector) Event(obs.Event) {}

// tickMetrics reports the sim tick and work-count layer metrics.
func (c *tickCollector) tickMetrics(m map[string]float64) {
	ticks := float64(max(len(c.ticks), 1))
	ms := make([]float64, len(c.ticks))
	var total float64
	for i, s := range c.ticks {
		ms[i] = s * 1e3
		total += s
	}
	m["sim.tick_ms_p50"] = median(ms)
	m["sim.tick_ms_max"] = quantile(ms, 1)
	if c.sum.ScanAttempts > 0 {
		m["sim.ns_per_scan"] = total * 1e9 / float64(c.sum.ScanAttempts)
	}
	m["sim.scan_attempts"] = float64(c.sum.ScanAttempts)
	m["sim.packets_generated"] = float64(c.sum.PacketsGenerated)
	m["sim.packets_delivered"] = float64(c.sum.PacketsDelivered)
	m["sim.packets_dropped"] = float64(c.sum.PacketsDropped)
	m["sim.new_infections"] = float64(c.sum.Infections)
	if c.sum.ScanAttempts > 0 {
		m["sim.delivered_share"] = float64(c.sum.PacketsDelivered) / float64(c.sum.ScanAttempts)
	}
	m["sim.allocs_per_tick"] = float64(c.allocObjs) / ticks
	m["sim.alloc_bytes_per_tick"] = float64(c.allocB) / ticks
}
