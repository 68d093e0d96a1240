package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of vals by linear
// interpolation between closest ranks. vals is sorted in place.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	sort.Float64s(vals)
	pos := q * float64(len(vals)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return vals[lo] + frac*(vals[hi]-vals[lo])
}

// median is quantile(vals, 0.5) on a copy, leaving vals untouched.
func median(vals []float64) float64 {
	return quantile(append([]float64(nil), vals...), 0.5)
}

// mean returns the arithmetic mean of vals (NaN when empty).
func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// kindPercentile returns the geometric mean, over op kinds, of each
// kind's q-quantile: the typical kind's latency, with no percentile
// taken across ops of different sizes.
func kindPercentile(byKind [][]float64, q float64) float64 {
	logSum := 0.0
	for _, v := range byKind {
		logSum += math.Log(quantile(append([]float64(nil), v...), q))
	}
	return math.Exp(logSum / float64(len(byKind)))
}

// finitePositive reports whether v is a usable measured quantity.
func finitePositive(v float64) bool {
	return v > 0 && !math.IsInf(v, 0) && !math.IsNaN(v)
}

// heapSample reads the process-wide allocation and GC counters without
// stopping the world.
type heapSample struct {
	allocs, bytes, gcs uint64
}

var heapMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/tiny/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
}

func readHeap() heapSample {
	s := make([]metrics.Sample, len(heapMetricNames))
	for i, n := range heapMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return heapSample{
		allocs: s[0].Value.Uint64() + s[1].Value.Uint64(),
		bytes:  s[2].Value.Uint64(),
		gcs:    s[3].Value.Uint64(),
	}
}

func (h heapSample) sub(o heapSample) heapSample {
	return heapSample{allocs: h.allocs - o.allocs, bytes: h.bytes - o.bytes, gcs: h.gcs - o.gcs}
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB, or
// NaN when /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			break
		}
		return kb / 1024
	}
	return math.NaN()
}

// startPeakRSS collects garbage, returns freed memory to the OS and
// resets the kernel's peak-RSS mark, so that peakRSSMB afterwards reads
// the peak of the part that follows, not of set-up. Where the mark
// cannot be reset, peakRSSMB reads the peak of the whole process.
func startPeakRSS() {
	debug.FreeOSMemory()
	// "5" resets VmHWM to the current resident set (Linux 4.0+).
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// medianSetup runs one discarded warm-up of fn and then reps timed
// repetitions, returning the median repetition in seconds. A single
// cold start mostly measures the Go runtime and the host; the median
// of warm repetitions measures the program's own set-up path.
func medianSetup(reps int, fn func() error) (float64, error) {
	if err := fn(); err != nil {
		return 0, err
	}
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t := startTimer()
		if err := fn(); err != nil {
			return 0, err
		}
		times = append(times, t.elapsed().Seconds())
	}
	return median(times), nil
}

// stealTicks returns the host's cumulative steal time from /proc/stat
// in clock ticks (USER_HZ, normally 10 ms): time the hypervisor ran
// something else while this machine's virtual CPUs were runnable. It
// returns -1 when the figure is unavailable.
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return -1
	}
	v, err := strconv.ParseInt(fields[8], 10, 64)
	if err != nil {
		return -1
	}
	return v
}

// hostTimer times an interval on a virtual machine whose host steals
// CPU time: while the hypervisor runs another guest, this machine's
// virtual CPUs stand still and wall time passes. The benchmark's
// timings are wall time less the stolen time per virtual CPU, so a
// busy neighbour does not read as a slower program.
type hostTimer struct {
	start  time.Time
	steal0 int64
}

func startTimer() hostTimer { return hostTimer{start: time.Now(), steal0: stealTicks()} }

// stealTick is the unit of /proc/stat times (USER_HZ = 100).
const stealTick = 10 * time.Millisecond

// elapsed returns the wall time since start less the time stolen per
// virtual CPU.
func (t hostTimer) elapsed() time.Duration {
	wall := time.Since(t.start)
	steal1 := stealTicks()
	if t.steal0 < 0 || steal1 < t.steal0 {
		return wall
	}
	unstolen := wall - time.Duration(steal1-t.steal0)*stealTick/time.Duration(runtime.NumCPU())
	if unstolen < wall/2 {
		// Tick granularity can overshoot on a short interval; never
		// credit more than half of it.
		unstolen = wall / 2
	}
	return unstolen
}

// stealPct returns the share of the machine's CPU time, in percent, the
// host stole since the stealTicks reading from, over wall time d.
func stealPct(from int64, d time.Duration) float64 {
	to := stealTicks()
	if from < 0 || to < 0 || d <= 0 {
		return math.NaN()
	}
	return 100 * float64(time.Duration(to-from)*stealTick) / (float64(d) * float64(runtime.NumCPU()))
}
