package main

import "time"

// calib.go is the benchmark's clock correction. The reference box is a
// virtual machine on a shared host: whatever its neighbours run slows
// the same code by a factor of up to two, in stretches that last from
// milliseconds to many minutes, and nothing the guest can read (steal
// time, CPU time) shows it. So every timed unit is bracketed by two
// runs of a fixed loop, and its wall time is divided by how much slower
// than calibRefS that loop ran. Times are therefore reported in seconds
// of the reference box with idle neighbours, on which ten runs of one
// commit agree within a few percent; plain wall time moved by 10 to
// 50 % (README.md, "Steadiness").

// calibRefS is what calibrate() takes on the reference box (Xeon at
// 2.1 GHz, go1.24) when the neighbours are idle: the fastest fiftieth
// of 4 000 calls spread over an hour. On another machine all reported
// times scale with the speed of this loop there; two commits measured
// on one machine compare as before.
const calibRefS = 0.000571

var calibA, calibB [1 << 15]float64 // 2 x 256 KB: resident in L2, not in L1

func init() {
	for i := range calibB {
		calibB[i] = 1
	}
	calibrate() // touch calibA's pages, so that the first timed call does not
}

// calibrate times 24 multiply-add passes over calibA. The loop streams
// through the cache the way the workloads' kernels, decoders and graph
// walks do; a chain of dependent multiplications, which needs neither
// cache nor issue slots, kept its speed while the workloads lost 40 %.
func calibrate() float64 {
	t0 := time.Now()
	for pass := 0; pass < 24; pass++ {
		for i := range calibA {
			calibA[i] = calibA[i]*0.999 + calibB[i]
		}
	}
	return time.Since(t0).Seconds()
}

// slowdowns keeps every factor slowdown returned, for the report: their
// spread says how busy the neighbours were during the run.
var slowdowns []float64

// slowdown is the factor by which the machine ran slower than the
// reference between two calibrations taken right before and right after
// a timed unit. Only the goroutine that runs the workload calls it.
func slowdown(before, after float64) float64 {
	f := (before + after) / 2 / calibRefS
	slowdowns = append(slowdowns, f)
	return f
}

// calibrated runs f between two calibrations and returns the slowdown
// to divide f's timings by.
func calibrated(f func()) float64 {
	before := calibrate()
	f()
	return slowdown(before, calibrate())
}
