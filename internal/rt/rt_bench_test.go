package rt

import (
	"testing"

	"taskdep/internal/graph"
	"taskdep/internal/obs"
)

// BenchmarkPersistentReplay times one replayed iteration per op, in each
// of the three persistent modes, on a LULESH-shaped stream — stages of
// chunk tasks that read their neighbours in the stage before, then an
// inoutset dt reduction and its one consumer — with empty bodies and one
// worker, so the time is the runtime's per-task replay cost (ns/op over
// 289 tasks) and allocs/op what a steady-state iteration allocates. The
// region runs b.N+1 iterations; the recording one is the +1, amortized.
func BenchmarkPersistentReplay(b *testing.B) {
	const stages, chunks = 8, 32
	key := func(stage, c int) graph.Key { return graph.Key(stage*chunks + c + 1) }
	const dtKey = graph.Key(1 << 20)
	nop := func(any) {}
	// Specs built once, as the application drivers build theirs: a body
	// that resubmits them allocates nothing.
	var specs []Spec
	for s := 0; s < stages; s++ {
		for c := 0; c < chunks; c++ {
			sp := Spec{Label: "stage", Out: []graph.Key{key(s, c)}, Body: nop}
			if s > 0 {
				for n := max(c-1, 0); n <= min(c+1, chunks-1); n++ {
					sp.In = append(sp.In, key(s-1, n))
				}
			}
			specs = append(specs, sp)
		}
	}
	for c := 0; c < chunks; c++ {
		specs = append(specs, Spec{Label: "dtred", In: []graph.Key{key(stages-1, c)}, InOutSet: []graph.Key{dtKey}, Body: nop})
	}
	specs = append(specs, Spec{Label: "dtapply", InOut: []graph.Key{dtKey}, Body: nop})

	modes := []struct {
		name string
		opts []PersistentOption
	}{
		{"plain", nil},
		{"adaptive", []PersistentOption{Adaptive(func(int) bool { return false })}},
		{"frozen", []PersistentOption{Frozen()}},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			r := newRuntime(b, Config{Workers: 1, Opts: graph.OptAll, Obs: obs.Options{Disable: true}})
			defer r.Close()
			b.ReportAllocs()
			b.ResetTimer()
			err := r.Persistent(b.N+1, func(int) {
				for i := range specs {
					r.Submit(specs[i])
				}
			}, m.opts...)
			if err != nil {
				b.Fatalf("Persistent: %v", err)
			}
		})
	}
}
