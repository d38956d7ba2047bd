package main

import (
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// dist summarises one timing's samples: the median is the reported
// value, the quartiles say how far to trust it.
type dist struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile interpolates like Python's statistics.quantiles (exclusive
// method), which is what the acceptance rule is stated in.
func quantile(s []float64, q float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return s[0]
	}
	pos := q*float64(n+1) - 1
	if pos <= 0 {
		return s[0]
	}
	if pos >= float64(n-1) {
		return s[n-1]
	}
	i := int(pos)
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func summarize(xs []float64) dist {
	s := sorted(xs)
	return dist{N: len(s), Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75)}
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// percentile is the nearest-rank percentile of an ascending slice.
func percentile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rssSampler reads this process's resident set every few milliseconds
// while a timed phase runs and reports the median of what it read.
// VmHWM, the kernel's high-water mark, is one maximum over the whole
// process life, and a maximum over a stretch of the run is not much
// better: how far the heap overshoots while the collector shares the
// one P with the allocating code is chance. Both moved by 11 to 30 %
// between identical runs, the median by 1 to 7 %.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	rssMB   []float64
	pageMB  float64
	statmFD *os.File
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{}),
		pageMB: float64(os.Getpagesize()) / (1 << 20)}
	s.statmFD, _ = os.Open("/proc/self/statm") // without /proc the sampler reports 0
	go func() {
		defer close(s.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			s.sample()
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	if s.statmFD == nil {
		return
	}
	var buf [128]byte
	n, err := s.statmFD.ReadAt(buf[:], 0)
	if n == 0 && err != nil {
		return
	}
	fields := strings.Fields(string(buf[:n]))
	if len(fields) < 2 {
		return
	}
	pages, _ := strconv.ParseFloat(fields[1], 64)
	s.rssMB = append(s.rssMB, pages*s.pageMB)
}

// medianMB stops the sampler and returns the median of its samples.
func (s *rssSampler) medianMB() float64 {
	close(s.stop)
	<-s.done
	if s.statmFD != nil {
		s.statmFD.Close()
	}
	if len(s.rssMB) == 0 {
		return 0
	}
	return median(s.rssMB)
}

// environment is the provenance block written with every suite result.
type environment struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	// CalibRefS is the calibration time every reported time is scaled to.
	CalibRefS float64 `json:"calib_ref_s"`
	CPU       string  `json:"cpu"`
	OS        string  `json:"os"`
	Commit    string  `json:"commit"`
}

func captureEnv() environment {
	e := environment{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CalibRefS:  calibRefS,
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
		CPU:        "unknown",
		Commit:     "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				e.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.OS += " " + strings.TrimSpace(string(data))
	}
	// Outside a git checkout (the driver's copy is not one) the commit
	// stays "unknown".
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	return e
}
