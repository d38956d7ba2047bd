package graph

import (
	"testing"
	"time"
)

func TestClockPrecise(t *testing.T) {
	c := NewClock(time.Now(), true)
	defer c.Stop()
	a := c.Now()
	time.Sleep(time.Millisecond)
	b := c.Now()
	if b <= a {
		t.Fatalf("precise clock did not advance: %d then %d", a, b)
	}
	prev := int64(0)
	for i := 0; i < 1000; i++ {
		v := c.Now()
		if v < prev {
			t.Fatalf("precise clock went backwards: %d after %d", v, prev)
		}
		prev = v
	}
}

func TestClockCached(t *testing.T) {
	c := NewClock(time.Now(), false)
	g := NewWithConfig(Config{OnReady: func(*Task) {}, Clock: c})
	g.Submit("hold", nil, nil, nil) // never finished: the ticker never parks
	deadline := time.Now().Add(2 * time.Second)
	for first := c.Now(); c.Now() == first; {
		if time.Now().After(deadline) {
			t.Fatalf("cached clock never ticked")
		}
		time.Sleep(time.Millisecond)
	}
	if got, want := c.Now(), c.Read(); got > want {
		t.Fatalf("cached reading %d ahead of a precise one %d", got, want)
	}
	prev := int64(0)
	for i := 0; i < 1000; i++ {
		v := c.Now()
		if v < prev {
			t.Fatalf("cached clock went backwards: %d after %d", v, prev)
		}
		prev = v
	}
	c.Stop()
	frozen := c.Now()
	time.Sleep(2 * time.Millisecond)
	if got := c.Now(); got != frozen {
		t.Fatalf("stopped clock moved: %d then %d", frozen, got)
	}
	c.Stop() // idempotent
}

// TestClockParksWhenIdle: a cached clock's ticker parks once its graph
// has drained for a tick, and the next discovery wakes it with a fresh
// reading before its first stamp, so the idle gap lands in no phase.
func TestClockParksWhenIdle(t *testing.T) {
	c := NewClock(time.Now(), false)
	defer c.Stop()
	g := NewWithConfig(Config{Opts: OptAll, OnReady: func(*Task) {}, Clock: c})
	run := func(tk *Task) {
		g.Start(tk)
		g.StampFinish(tk)
		g.Complete(tk)
	}
	waitParked := func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !c.parked.Load() {
			if time.Now().After(deadline) {
				t.Fatalf("ticker still running %v after its graph drained", 5*time.Second)
			}
			time.Sleep(time.Millisecond)
		}
	}
	for round := 0; round < 3; round++ {
		run(g.Submit("t", []Dep{{1, InOut}}, nil, nil))
		waitParked()
		time.Sleep(5 * time.Millisecond) // the idle gap
		before := c.Read()
		tk := g.Submit("t", []Dep{{1, InOut}}, nil, nil)
		if c.parked.Load() {
			t.Fatalf("round %d: ticker parked with a task live", round)
		}
		if ready := tk.ReadyAtNs(); ready < before {
			t.Fatalf("round %d: ready stamp %d predates the wake-up at %d: stamped from the parked reading", round, ready, before)
		}
		run(tk)
		if disc, _, _ := tk.PhaseNs(); disc >= int64(time.Millisecond) {
			t.Fatalf("round %d: discovery phase %v, want the idle gap left out", round, time.Duration(disc))
		}
	}
}
