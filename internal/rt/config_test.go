package rt

import (
	"testing"

	"taskdep/internal/sched"
)

// The Config fields must drive the real runtime: the scheduler runs
// Policy. (The throttle windows' own tests are TestThrottle*.)
func TestConfigDrivesRuntime(t *testing.T) {
	r, err := NewRuntime(Config{
		Workers:       1,
		Policy:        sched.BreadthFirst,
		ThrottleReady: 3,
		ThrottleTotal: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Scheduler().Policy(); got != sched.BreadthFirst {
		t.Fatalf("policy = %v", got)
	}
	n := 0
	r.Submit(Spec{Label: "t", Do: func(any) error { n++; return nil }})
	if err := r.Taskwait(); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatal("task did not run")
	}
}
