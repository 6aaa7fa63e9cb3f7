package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Env records the machine a result was measured on, so that a noisy
// neighbour on a shared box is visible next to the numbers.
type Env struct {
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	LoadavgStart string `json:"loadavg_start"`
	LoadavgEnd   string `json:"loadavg_end"`
	// CalibMS is the wall time of a fixed single-goroutine integer
	// kernel, timed before the workload: it moves when the machine is
	// slower or busier, and not when routelab changes.
	CalibMS float64 `json:"calib_ms"`
	// CalibMemMS and CalibMemEndMS time a fixed walk of random reads and
	// writes over 64 MiB before and after the workload. A neighbour that
	// loads the memory system leaves CalibMS alone and moves these by a
	// third for minutes on end, and the batch workloads with them.
	CalibMemMS    float64 `json:"calib_mem_ms"`
	CalibMemEndMS float64 `json:"calib_mem_end_ms"`
}

func startEnv() Env {
	return Env{
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		LoadavgStart: loadavg(),
		CalibMS:      calibrate(),
		CalibMemMS:   calibrateMem(),
	}
}

// lanes is how many workers, clients and connections a run uses.
func lanes() int { return min(runtime.NumCPU(), 4) }

func loadavg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

var calibSink uint64

// calibrate times 2^26 xorshift steps.
func calibrate() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 1<<26; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink = x
	return float64(time.Since(t0)) / 1e6
}

// calibrateMem times 2^22 dependent random reads and writes over a
// 64 MiB table, which no cache holds.
func calibrateMem() float64 {
	table := make([]uint64, 1<<23)
	for i := range table {
		table[i] = uint64(i)
	}
	t0 := time.Now()
	x, s := uint64(12345), uint64(0)
	for i := 0; i < 1<<22; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		s += table[x&(1<<23-1)]
		table[(x>>7)&(1<<23-1)] = s
	}
	calibSink = s
	return float64(time.Since(t0)) / 1e6
}

// peakRSSMB reads this process's resident-set high-water mark, in MiB.
// It is 0 where /proc is missing.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(fields[1], 64)
			return kb / 1024
		}
	}
	return 0
}
