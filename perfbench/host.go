package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// hostInfo stamps a run with the machine it ran on. effectiveCores is
// measured, not declared: a host whose CPU quota or neighbours leave the
// benchmark less than nproc cores shows it here.
type hostInfo struct {
	nproc          int
	gomaxprocs     int
	goVersion      string
	effectiveCores float64
}

// probeHost measures effective parallelism: nproc goroutines spin for a
// fixed interval and their combined iteration count is divided by what one
// goroutine manages alone in the same interval.
func probeHost() hostInfo {
	h := hostInfo{
		nproc:      runtime.NumCPU(),
		gomaxprocs: runtime.GOMAXPROCS(0),
		goVersion:  runtime.Version(),
	}
	const interval = 100 * time.Millisecond
	single := spin(1, interval)
	if single > 0 {
		h.effectiveCores = float64(spin(h.gomaxprocs, interval)) / float64(single)
	}
	return h
}

// spin runs n goroutines that count loop iterations until the interval
// ends and returns the total count.
func spin(n int, interval time.Duration) int64 {
	var (
		total atomic.Int64
		stop  atomic.Bool
		wg    sync.WaitGroup
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var count int64
			for !stop.Load() {
				for k := 0; k < 1000; k++ {
					count++
				}
			}
			total.Add(count)
		}()
	}
	time.Sleep(interval)
	stop.Store(true)
	wg.Wait()
	return total.Load()
}

// peakRSSMB returns the process's peak resident set size in MB (VmHWM),
// falling back to the Go runtime's obtained memory where /proc is absent.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) >= 2 && fields[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
