package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// deriveSeed maps the workload seed and a label to a positive seed for
// one input of the program, so every topology and simulation seed
// follows from --seed alone and no two inputs share a stream.
func deriveSeed(seed int64, label string) int64 {
	h := fnv.New64a()
	h.Write([]byte(label))
	x := h.Sum64() ^ uint64(seed)*0x9e3779b97f4a7c15
	// splitmix64 finaliser.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x%(1<<31-1)) + 1 // never 0: 0 means "default" to the program
}

// digest hashes float series by their exact bit patterns.
type digest struct{ b bytes.Buffer }

func (d *digest) str(s string) { d.b.WriteString(s); d.b.WriteByte(0) }

func (d *digest) floats(xs []float64) {
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], uint64(len(xs)))
	d.b.Write(w[:])
	for _, x := range xs {
		binary.LittleEndian.PutUint64(w[:], math.Float64bits(x))
		d.b.Write(w[:])
	}
}

func (d *digest) sum() string { return sumBytes(d.b.Bytes()) }

func sumBytes(p []byte) string {
	s := sha256.Sum256(p)
	return hex.EncodeToString(s[:8])
}

// checker counts operations and compares each operation's output digest
// with what it must be: the recorded reference when one applies, else
// the first digest this run saw for the same key (repeats and the
// traced run must reproduce it exactly). Safe for concurrent use.
type checker struct {
	mu        sync.Mutex
	ref       map[string]string
	seen      map[string]string
	attempted int
	failed    int
	problems  []string
}

func newChecker(ref map[string]string) *checker {
	return &checker{ref: ref, seen: make(map[string]string)}
}

// op records one operation. key names the output it produced; err marks
// it failed.
func (c *checker) op(key, sum string, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if err != nil {
		c.fail("%s: %v", key, err)
		return
	}
	first, seen := c.seen[key]
	if !seen {
		c.seen[key] = sum
		first = sum
	}
	want, ok := c.ref[key]
	if !ok {
		want = first
	}
	if sum != want {
		c.fail("%s: output digest %s, want %s", key, sum, want)
	}
}

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.problems) < 20 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// digests returns the first digest seen per key this run.
func (c *checker) digests() map[string]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]string, len(c.seen))
	for k, v := range c.seen {
		out[k] = v
	}
	return out
}

// usage is a point-in-time reading of the process's resource counters.
type usage struct {
	wall       time.Time
	cpu        time.Duration
	allocBytes uint64
	gcCycles   uint32
	gcPauseNs  uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // RUSAGE_SELF cannot fail
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		wall:       time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: ms.TotalAlloc,
		gcCycles:   ms.NumGC,
		gcPauseNs:  ms.PauseTotalNs,
	}
}

// opSample is one operation's end-to-end reading.
type opSample struct {
	wall, cpu      float64 // seconds
	allocMB, rssMB float64
	gcCycles       float64
	gcPauseMs      float64
}

// meter brackets one measured operation: it returns freed memory to the
// OS and resets the kernel's peak-RSS watermark at the start, so each
// operation's peak is its own.
type meter struct{ start usage }

func startMeter() meter {
	runtime.GC()
	debug.FreeOSMemory()
	resetPeakRSS()
	return meter{start: readUsage()}
}

func (m meter) stop() opSample {
	end := readUsage()
	return opSample{
		wall:      end.wall.Sub(m.start.wall).Seconds(),
		cpu:       (end.cpu - m.start.cpu).Seconds(),
		allocMB:   float64(end.allocBytes-m.start.allocBytes) / (1 << 20),
		rssMB:     float64(peakRSSKB()) / 1024,
		gcCycles:  float64(end.gcCycles - m.start.gcCycles),
		gcPauseMs: float64(end.gcPauseNs-m.start.gcPauseNs) / 1e6,
	}
}

// resetPeakRSS resets VmHWM to the current RSS (Linux >= 4.0). Where the
// kernel refuses, VmHWM stays the whole-process peak.
func resetPeakRSS() {
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) //nolint:errcheck // best effort, see above
}

// peakRSSKB reads VmHWM from /proc/self/status (0 when unavailable).
func peakRSSKB() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := bytes.CutPrefix(sc.Bytes(), []byte("VmHWM:")); ok {
			fields := bytes.Fields(rest)
			if len(fields) > 0 {
				kb, _ := strconv.ParseInt(string(fields[0]), 10, 64)
				return kb
			}
		}
	}
	return 0
}

// heapAllocs reads the cumulative heap allocation counters without
// stopping the world, cheap enough to call once per simulated tick.
func heapAllocs() (bytes, objects uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// liveHeap returns the live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// quantile returns the q-quantile of xs (nearest rank on the sorted
// sample; 0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// beyond counts the samples strictly above the q-quantile: the number a
// tail percentile rests on.
func beyond(xs []float64, q float64) int {
	cut := quantile(xs, q)
	n := 0
	for _, x := range xs {
		if x > cut {
			n++
		}
	}
	return n
}
