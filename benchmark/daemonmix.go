package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/daemon"
	"repro/internal/safeio"
	"repro/internal/spec"
)

// mixSpec is one slot of the daemon-mix job cycle.
type mixSpec struct {
	slot   string // digest key: golden/<name>, grid or replay
	kind   string // golden, grid or replay
	body   []byte
	points int
}

// goldenDir holds the checked-in golden specs, relative to the
// repository root (the benchmark runs from there; its tests run one
// level down).
func goldenDir() (string, error) {
	for _, root := range []string{".", ".."} {
		dir := filepath.Join(root, "internal", "spec", "testdata", "golden")
		if st, err := os.Stat(dir); err == nil && st.IsDir() {
			return dir, nil
		}
	}
	return "", errors.New("internal/spec/testdata/golden not found; run from the repository root")
}

// gridVariants is how many grid topologies the mix cycles through: the
// grid's run time depends on its random topology, and a run's jobs
// should cover several. With the four nets of the other specs they fill
// the daemon's default net cache (8 nets) exactly; one more and the LRU
// would evict every grid net before its next use.
const gridVariants = 4

// jobMix is the daemon-mix job sequence.
type jobMix struct {
	cycle []mixSpec // ten jobs; the last is replaced by a grid variant
	grids []mixSpec
}

// at returns job i of the sequence.
func (m jobMix) at(i int) mixSpec {
	k := i % len(m.cycle)
	if k == len(m.cycle)-1 {
		return m.grids[(i/len(m.cycle))%len(m.grids)]
	}
	return m.cycle[k]
}

// mixSpecs builds the job cycle: the six golden specs, the synthetic
// trace-replay spec (EXPERIMENTS.md's collateral.yaml shape), the two
// power-law goldens again, and one paper-scale grid — ten jobs, one of
// them a grid, whose topology rotates through gridVariants. Every seed
// derives from the workload seed; the golden specs that pin a topology
// seed share one, so their nets are cached.
func mixSpecs(env *runEnv) (jobMix, error) {
	var mix jobMix
	dir, err := goldenDir()
	if err != nil {
		return mix, err
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(paths) == 0 {
		return mix, fmt.Errorf("no golden specs in %s", dir)
	}
	sort.Strings(paths)
	topoSeed := deriveSeed(env.seed, "daemon-mix/topology")
	var golden []mixSpec
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return mix, err
		}
		var doc map[string]any
		if err := json.Unmarshal(data, &doc); err != nil {
			return mix, fmt.Errorf("%s: %w", p, err)
		}
		name := strings.TrimSuffix(filepath.Base(p), ".json")
		doc["seed"] = deriveSeed(env.seed, "daemon-mix/"+name)
		if _, ok := doc["topology_seed"]; ok {
			doc["topology_seed"] = topoSeed
		}
		body, err := json.Marshal(doc)
		if err != nil {
			return mix, err
		}
		golden = append(golden, mixSpec{slot: "golden/" + name, kind: "golden", body: body, points: 1})
	}
	sz := env.size
	replay := fmt.Sprintf(`{"format":"wormsim-scenario","version":1,"name":"mix-replay",
"topology":{"kind":"enterprise","backbones":1,"edges_per_backbone":2,"hosts_per_subnet":12},
"worm":{"kind":"random","beta":0.8},
"defenses":[{"kind":"throttle","working_set":4,"period":1,"hosts":20}],
"ticks":%d,"seed":%d,
"workload":{"kind":"synthetic","normal":12,"servers":2,"p2p":3,"infected":3}}`,
		sz.replayTicks, deriveSeed(env.seed, "daemon-mix/replay"))
	mix.cycle = append(mix.cycle, golden...)
	mix.cycle = append(mix.cycle, mixSpec{slot: "replay", kind: "replay", body: []byte(replay), points: 1})
	mix.cycle = append(mix.cycle, golden[0], golden[1], mixSpec{kind: "grid"})
	// The grid's horizon exceeds the daemon's 200-tick checkpoint
	// interval, so its replicas write checkpoints.
	for k := 0; k < gridVariants; k++ {
		grid := fmt.Sprintf(`{"format":"wormsim-scenario","version":1,"name":"mix-grid",
"topology":{"kind":"powerlaw","nodes":%d},
"worm":{"kind":"random","beta":0.8},
"defenses":[{"kind":"backbone","rate":0.4}],
"ticks":%d,"seed":%d,"topology_seed":%d,"initial_infected":5,
"run":{"runs":%d},
"grid":[{"path":"defenses.0.rate","values":[0.2,0.4,0.8]}]}`,
			sz.gridNodes, sz.gridTicks, deriveSeed(env.seed, fmt.Sprintf("daemon-mix/grid/%d", k)),
			deriveSeed(env.seed, fmt.Sprintf("daemon-mix/grid-topology/%d", k)), sz.gridRuns)
		mix.grids = append(mix.grids, mixSpec{slot: fmt.Sprintf("grid/%d", k), kind: "grid", body: []byte(grid), points: 3})
	}
	return mix, nil
}

// jobTiming is one job's client-side timeline.
type jobTiming struct {
	kind                                       string
	start, submitted, running, done, resultEnd time.Time
	records                                    int
	ticks                                      int64
}

var errRejected = errors.New("rejected with 429")

// client is one closed-loop daemon client.
type client struct {
	base string
	hc   *http.Client
}

// job submits one spec, follows its stream to the terminal record and
// fetches the result.
func (c *client) job(ms mixSpec) (jobTiming, []byte, error) {
	jt := jobTiming{kind: ms.kind, start: time.Now()}
	resp, err := c.hc.Post(c.base+"/jobs", "application/json", bytes.NewReader(ms.body))
	if err != nil {
		return jt, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return jt, nil, err
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		return jt, nil, errRejected
	}
	if resp.StatusCode != http.StatusCreated {
		return jt, nil, fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	var view daemon.JobView
	if err := json.Unmarshal(body, &view); err != nil {
		return jt, nil, fmt.Errorf("submit: %w", err)
	}
	jt.submitted = time.Now()

	// A subscriber that falls behind is dropped by the daemon; it
	// reconnects and skips the records it has already seen.
	var lastSeq uint64
	state := ""
	for attempt := 0; state == "" && attempt < 100; attempt++ {
		state, err = c.follow(view.ID, &jt, &lastSeq)
		if err != nil {
			return jt, nil, err
		}
	}
	if state != daemon.StateDone {
		return jt, nil, fmt.Errorf("job %s ended %q", view.ID, state)
	}
	resp, err = c.hc.Get(c.base + "/jobs/" + view.ID + "/result")
	if err != nil {
		return jt, nil, err
	}
	result, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	jt.resultEnd = time.Now()
	if err != nil {
		return jt, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return jt, nil, fmt.Errorf("result: %s", resp.Status)
	}
	return jt, result, nil
}

var (
	jobRecord   = []byte(`"type":"job"`)
	pointRecord = []byte(`"type":"point"`)
	seqField    = []byte(`"seq":`)
)

// follow reads the job's stream once; it returns the terminal state, or
// "" when the stream ended early.
func (c *client) follow(id string, jt *jobTiming, lastSeq *uint64) (string, error) {
	resp, err := c.hc.Get(c.base + "/jobs/" + id + "/stream")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("stream: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		seq := recordSeq(line)
		if seq <= *lastSeq {
			continue
		}
		*lastSeq = seq
		jt.records++
		switch {
		case bytes.Contains(line, jobRecord):
			var rec daemon.StreamRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				return "", fmt.Errorf("stream: %w", err)
			}
			switch rec.State {
			case daemon.StateRunning:
				if jt.running.IsZero() {
					jt.running = time.Now()
				}
			case daemon.StateDone, daemon.StateFailed, daemon.StateCanceled, daemon.StateInterrupted:
				jt.done = time.Now()
				if jt.running.IsZero() {
					jt.running = jt.done
				}
				return rec.State, nil
			}
		case bytes.Contains(line, pointRecord):
			var rec daemon.StreamRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				return "", fmt.Errorf("stream: %w", err)
			}
			jt.ticks += rec.Ticks
		}
	}
	return "", sc.Err()
}

// recordSeq extracts a stream record's sequence number without decoding
// the whole record.
func recordSeq(line []byte) uint64 {
	i := bytes.Index(line, seqField)
	if i < 0 {
		return 0
	}
	rest := line[i+len(seqField):]
	j := 0
	for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
		j++
	}
	n, _ := strconv.ParseUint(string(rest[:j]), 10, 64)
	return n
}

// checkResult verifies a result.json and returns its digest.
func checkResult(ms mixSpec, data []byte) (string, error) {
	var doc struct {
		Points []struct {
			Name     string    `json:"name"`
			Error    string    `json:"error"`
			Infected []float64 `json:"infected"`
		} `json:"points"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return "", fmt.Errorf("result.json: %w", err)
	}
	if len(doc.Points) != ms.points {
		return "", fmt.Errorf("result.json has %d points, want %d", len(doc.Points), ms.points)
	}
	for _, p := range doc.Points {
		if p.Error != "" || len(p.Infected) == 0 {
			return "", fmt.Errorf("point %s: error %q, %d ticks", p.Name, p.Error, len(p.Infected))
		}
	}
	return sumBytes(data), nil
}

// liveDaemon is an in-process daemon served on a loopback listener.
type liveDaemon struct {
	srv  *daemon.Server
	hs   *http.Server
	base string
	hc   *http.Client
	done chan struct{}
}

// startDaemon runs daemon.New with its default config over an empty
// data dir and serves it; it returns once /healthz answers ok.
func startDaemon(dataDir string) (*liveDaemon, error) {
	srv, err := daemon.New(daemon.Config{DataDir: dataDir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	d := &liveDaemon{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler()},
		base: "http://" + ln.Addr().String(),
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc, DisableCompression: true,
		}},
		done: make(chan struct{}),
	}
	go func() {
		defer close(d.done)
		d.hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on stop
	}()
	for i := 0; ; i++ {
		ok, err := d.healthy()
		if ok {
			return d, nil
		}
		if i == 1000 {
			d.stop()
			return nil, fmt.Errorf("daemon never became healthy: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

func (d *liveDaemon) healthy() (bool, error) {
	resp, err := d.hc.Get(d.base + "/healthz")
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	var h struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return false, err
	}
	return resp.StatusCode == http.StatusOK && h.Status == "ok", nil
}

func (d *liveDaemon) stats() (daemon.ServerStats, error) {
	var st daemon.ServerStats
	resp, err := d.hc.Get(d.base + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// stop shuts the HTTP server down, closes the daemon and waits for the
// serving goroutine.
func (d *liveDaemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d.hs.Shutdown(ctx) //nolint:errcheck // Close below ends what Shutdown leaves
	d.hs.Close()
	d.srv.Close()
	<-d.done
	d.hc.CloseIdleConnections()
}

// daemonSetup times daemon.New over an empty data dir until /healthz
// answers ok.
func daemonSetup(env *runEnv) (*liveDaemon, string, float64, error) {
	dir, err := os.MkdirTemp(env.out, "daemon-")
	if err != nil {
		return nil, "", 0, err
	}
	t0 := time.Now()
	d, err := startDaemon(dir)
	return d, dir, time.Since(t0).Seconds(), err
}

// mixRun is what one daemon lifetime measured.
type mixRun struct {
	timings  []jobTiming
	rejected int
	stats    daemon.ServerStats
}

// daemonLifetime starts a daemon, drives the job mix through nproc
// closed-loop clients until mixJobs jobs have finished, and stops it.
func daemonLifetime(env *runEnv, tr *tracer) (opResult, mixRun) {
	var mr mixRun
	mix, err := mixSpecs(env)
	if err != nil {
		env.check.op("daemon-mix/specs", "", err)
		return opResult{}, mr
	}
	// Extra set-ups sample setup_s several times per lifetime.
	var setups []float64
	for i := 0; i < env.size.daemonSetups; i++ {
		d, dir, s, err := daemonSetup(env)
		if err != nil {
			env.check.op("daemon-mix/setup", "", err)
			return opResult{}, mr
		}
		d.stop()
		os.RemoveAll(dir)
		setups = append(setups, s)
	}

	m := startMeter()
	root := tr.start("daemon-mix.lifetime", 0, "daemon")
	setupSpan := tr.start("daemon.setup", root, "daemon")
	d, dir, setup, err := daemonSetup(env)
	tr.end(setupSpan)
	if err != nil {
		tr.end(root)
		env.check.op("daemon-mix/setup", "", err)
		return opResult{}, mr
	}
	defer os.RemoveAll(dir)
	setups = append(setups, setup)

	var (
		next int64 = -1
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	rejected := atomic.Int64{}
	for w := 0; w < nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &client{base: d.base, hc: d.hc}
			for {
				i := atomic.AddInt64(&next, 1)
				if i >= int64(env.size.mixJobs) {
					return
				}
				ms := mix.at(int(i))
				jt, result, err := c.job(ms)
				sum := ""
				if err == nil {
					sum, err = checkResult(ms, result)
				}
				if errors.Is(err, errRejected) {
					rejected.Add(1)
				}
				env.check.op("daemon-mix/"+ms.slot, sum, err)
				if err != nil {
					continue
				}
				op := fmt.Sprintf("job-%03d", i)
				if tr != nil {
					jid := tr.add("daemon.job", root, op, jt.start, jt.resultEnd)
					tr.add("daemon.submit", jid, op, jt.start, jt.submitted)
					tr.add("daemon.queue_wait", jid, op, jt.submitted, jt.running)
					tr.add("daemon.run."+jt.kind, jid, op, jt.running, jt.done)
					tr.add("daemon.result", jid, op, jt.done, jt.resultEnd)
				}
				mu.Lock()
				mr.timings = append(mr.timings, jt)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	mr.rejected = int(rejected.Load())
	mr.stats, err = d.stats()
	if err != nil {
		env.check.op("daemon-mix/stats", "", err)
	}
	d.stop()
	tr.end(root)
	s := m.stop()

	var ticks int64
	lat := make([]float64, 0, len(mr.timings))
	for _, jt := range mr.timings {
		ticks += jt.ticks
		lat = append(lat, jt.resultEnd.Sub(jt.start).Seconds()*1e3)
	}
	return opResult{sample: s, ops: len(mr.timings), ticksPerS: float64(ticks) / s.wall,
		latencies: lat, setups: setups,
		counts: map[string]int{"jobs": len(mr.timings), "rejected": mr.rejected}}, mr
}

func daemonOp(env *runEnv, _ int) opResult {
	r, _ := daemonLifetime(env, nil)
	return r
}

// daemonTraced runs one daemon lifetime with client spans and a
// benchmark-owned safeio.FS that times every filesystem operation of the
// daemon's commit path.
func daemonTraced(env *runEnv, tr *tracer, layer map[string]float64) opResult {
	fs := &timedFS{pending: make(map[string]int64)}
	restore := safeio.SetFS(fs)
	r, mr := daemonLifetime(env, tr)
	restore()

	ms := func(name string) []float64 {
		d := tr.durations(name)
		for i := range d {
			d[i] *= 1e3
		}
		return d
	}
	layer["daemon.submit_ms_p50"] = median(ms("daemon.submit"))
	queue := ms("daemon.queue_wait")
	layer["daemon.queue_wait_ms_p50"] = median(queue)
	layer["daemon.queue_wait_ms_p99"] = quantile(queue, 0.99)
	for _, kind := range []string{"golden", "grid", "replay"} {
		layer["daemon.run_ms_p50."+kind] = median(ms("daemon.run." + kind))
	}
	layer["daemon.result_ms_p50"] = median(ms("daemon.result"))
	jobs := float64(max(len(mr.timings), 1))
	records := 0
	for _, jt := range mr.timings {
		records += jt.records
	}
	layer["daemon.stream_records_per_job"] = float64(records) / jobs
	layer["daemon.rejected"] = float64(mr.rejected)
	layer["daemon.queue_high_water"] = float64(mr.stats.QueueHighWater)
	layer["runner.failed"] = float64(mr.stats.Jobs[daemon.StateFailed])

	nc := mr.stats.NetCache
	layer["spec.netcache_builds"] = float64(nc.Builds)
	if nc.Hits+nc.Builds > 0 {
		layer["spec.netcache_hit_share"] = float64(nc.Hits) / float64(nc.Hits+nc.Builds)
	}
	layer["spec.parse_expand_us"] = parseExpandMicros(env)

	fs.mu.Lock()
	defer fs.mu.Unlock()
	layer["safeio.commits_per_job"] = float64(fs.commits) / jobs
	layer["safeio.fsyncs_per_job"] = float64(len(fs.fsyncMs)) / jobs
	layer["safeio.bytes_per_job"] = float64(fs.bytes) / jobs
	layer["safeio.fsync_ms_p50"] = median(fs.fsyncMs)
	layer["safeio.fsync_ms_p99"] = quantile(fs.fsyncMs, 0.99)
	layer["safeio.busy_share"] = fs.busy.Seconds() / r.sample.wall
	layer["safeio.checkpoint_writes"] = float64(fs.ckptWrites)
	layer["safeio.checkpoint_bytes_max"] = float64(fs.ckptMax)
	if r.counts != nil {
		r.counts["fsyncs"] = len(fs.fsyncMs)
	}
	return r
}

// parseExpandMicros times spec.Parse plus Expand over the mix's specs,
// the work the daemon does on every submission; median per spec in µs.
func parseExpandMicros(env *runEnv) float64 {
	mix, err := mixSpecs(env)
	if err != nil {
		return 0
	}
	specs := append(mix.cycle[:len(mix.cycle)-1:len(mix.cycle)-1], mix.grids...)
	var us []float64
	for rep := 0; rep < 20; rep++ {
		for _, ms := range specs {
			t0 := time.Now()
			s, err := spec.Parse(ms.body)
			if err == nil {
				_, err = s.Expand()
			}
			if err != nil {
				env.check.op("daemon-mix/parse", "", err)
				return 0
			}
			us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}
	return median(us)
}

// timedFS is the benchmark-owned safeio.FS: it hands every operation to
// the OS, exactly as safeio's own implementation does, and times it.
type timedFS struct {
	mu         sync.Mutex
	busy       time.Duration
	fsyncMs    []float64
	commits    int
	bytes      int64
	ckptWrites int
	ckptMax    int64
	pending    map[string]int64 // temp file -> bytes written
}

func (f *timedFS) record(start time.Time, fsync bool) {
	d := time.Since(start)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.busy += d
	if fsync {
		f.fsyncMs = append(f.fsyncMs, float64(d.Nanoseconds())/1e6)
	}
}

func (f *timedFS) CreateTemp(dir, pattern string) (safeio.FileHandle, error) {
	t0 := time.Now()
	file, err := os.CreateTemp(dir, pattern)
	f.record(t0, false)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: file, fs: f}, nil
}

func (f *timedFS) Rename(oldpath, newpath string) error {
	t0 := time.Now()
	err := os.Rename(oldpath, newpath)
	f.record(t0, false)
	f.mu.Lock()
	defer f.mu.Unlock()
	n := f.pending[oldpath]
	delete(f.pending, oldpath)
	if err == nil {
		f.commits++
		f.bytes += n
		if strings.Contains(newpath, string(filepath.Separator)+"checkpoints"+string(filepath.Separator)) {
			f.ckptWrites++
			f.ckptMax = max(f.ckptMax, n)
		}
	}
	return err
}

func (f *timedFS) Remove(name string) error {
	t0 := time.Now()
	err := os.Remove(name)
	f.record(t0, false)
	f.mu.Lock()
	delete(f.pending, name)
	f.mu.Unlock()
	return err
}

// SyncDir fsyncs a directory like safeio does: a filesystem that cannot
// sync a directory handle (EINVAL, ENOTSUP) counts as synced.
func (f *timedFS) SyncDir(dir string) error {
	t0 := time.Now()
	err := syncDir(dir)
	f.record(t0, true)
	return err
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !isUnsupportedSync(err) {
		return err
	}
	return d.Close()
}

func isUnsupportedSync(err error) bool {
	return errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP)
}

type timedFile struct {
	*os.File
	fs *timedFS
}

func (t *timedFile) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := t.File.Write(p)
	t.fs.record(t0, false)
	t.fs.mu.Lock()
	t.fs.pending[t.File.Name()] += int64(n)
	t.fs.mu.Unlock()
	return n, err
}

func (t *timedFile) Sync() error {
	t0 := time.Now()
	err := t.File.Sync()
	t.fs.record(t0, true)
	return err
}

func (t *timedFile) Chmod(mode os.FileMode) error {
	t0 := time.Now()
	err := t.File.Chmod(mode)
	t.fs.record(t0, false)
	return err
}

func (t *timedFile) Close() error {
	t0 := time.Now()
	err := t.File.Close()
	t.fs.record(t0, false)
	return err
}
