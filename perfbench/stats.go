package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime returns the CPU time (user plus system, all threads) the
// process has used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sliceRate is ops_per_s: the run is cut into slices (a pass of the
// job list, or one second of a serving run), each slice's rate is its
// op count over its summed op latency, and the median slice rate is
// reported, so a burst of interference on the host moves one slice and
// not the figure.
func sliceRate(lat []time.Duration, slices []int) float64 {
	busy := map[int]time.Duration{}
	count := map[int]int{}
	for i, d := range lat {
		busy[slices[i]] += d
		count[slices[i]]++
	}
	var rates []float64
	for k, b := range busy {
		if b > 0 {
			rates = append(rates, float64(count[k])/b.Seconds())
		}
	}
	return median(rates)
}

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks; xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// medianWithError returns the median of xs and its standard error,
// estimated as 1.253 sigma/sqrt(n) with sigma taken robustly from the
// interquartile range (IQR/1.349).
func medianWithError(xs []float64) (m, se float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	sigma := (quantile(xs, 0.75) - quantile(xs, 0.25)) / 1.349
	return median(xs), 1.253 * sigma / math.Sqrt(float64(len(xs)))
}

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM)
// from /proc/self/status, in MiB; 0 when unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
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
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}
