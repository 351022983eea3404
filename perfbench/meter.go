package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// meter measures a window's effect on the process and the box: Go
// runtime counters, CPU time the hypervisor stole, and resident memory.
type meter struct {
	mem          runtime.MemStats
	steal, total int64
	rss          *rssSampler
}

// startMeter collects the garbage set-up left, so the window does not
// pay for it, returns freed memory to the OS and starts sampling RSS.
func startMeter() *meter {
	debug.FreeOSMemory()
	m := &meter{}
	m.steal, m.total = cpuStat()
	runtime.ReadMemStats(&m.mem)
	m.rss = startRSSSampler()
	return m
}

func (m *meter) stop(w *window) {
	w.peakRSSMB = m.rss.finish()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	w.allocBytes = m1.TotalAlloc - m.mem.TotalAlloc
	w.gcCycles = uint64(m1.NumGC - m.mem.NumGC)
	w.gcPauseNs = m1.PauseTotalNs - m.mem.PauseTotalNs
	steal, total := cpuStat()
	w.stealRatio = ratio(float64(steal-m.steal), float64(total-m.total))
}

// cpuStat returns the box's stolen and total CPU time in clock ticks
// from the first line of /proc/stat; zeros where it is missing.
func cpuStat() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, x := range f[1:] {
		v, err := strconv.ParseInt(x, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 { // user nice system idle iowait irq softirq steal ...
			steal = v
		}
	}
	return steal, total
}

// rssSampler records the peak RSS of every second of a window. One
// window's lifetime peak is an extreme value that a late garbage
// collection can raise by half; the median of one-second peaks is the
// footprint of a typical stretch of ops.
type rssSampler struct {
	stop, done chan struct{}
	peaks      []float64
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	clearPeakRSS()
	go func() {
		defer close(s.done)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				s.peaks = append(s.peaks, peakRSSMB())
				return
			case <-tick.C:
				s.peaks = append(s.peaks, peakRSSMB())
				clearPeakRSS()
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the median one-second peak.
func (s *rssSampler) finish() float64 {
	close(s.stop)
	<-s.done
	return median(s.peaks)
}

// clearPeakRSS restarts the kernel's peak-RSS count (VmHWM). Where
// /proc/self/clear_refs is missing the peak stays the lifetime peak.
func clearPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the peak resident set size since clearPeakRSS (VmHWM),
// or, where /proc is missing, the getrusage maximum.
func peakRSSMB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
