package cholesky

import (
	"testing"

	"taskdep/internal/graph"
	"taskdep/internal/mpi"
	"taskdep/internal/rt"
)

// newRuntime is NewRuntime for a test: a configuration it rejects fails
// the test.
func newRuntime(tb testing.TB, cfg rt.Config) *rt.Runtime {
	tb.Helper()
	r, err := rt.NewRuntime(cfg)
	if err != nil {
		tb.Fatalf("NewRuntime: %v", err)
	}
	return r
}

func TestSerialFactorCorrect(t *testing.T) {
	a0 := NewSPD(4, 8)
	l := a0.Clone()
	if err := SerialFactor(l); err != nil {
		t.Fatal(err)
	}
	if err := Verify(a0, l, 1e-10); err != nil {
		t.Fatal(err)
	}
}

func TestPotrfRejectsNonSPD(t *testing.T) {
	b := 4
	tile := make([]float64, b*b) // zero matrix: not PD
	if err := Potrf(tile, b); err == nil {
		t.Fatalf("expected failure on non-SPD tile")
	}
}

func TestTaskFactorMatchesSerialBitwise(t *testing.T) {
	a0 := NewSPD(5, 6)
	ref := a0.Clone()
	if err := SerialFactor(ref); err != nil {
		t.Fatal(err)
	}
	for _, opts := range []graph.Opt{0, graph.OptAll} {
		m := a0.Clone()
		r := newRuntime(t, rt.Config{Workers: 4, Opts: opts})
		if err := TaskFactor(m, r); err != nil {
			t.Fatal(err)
		}
		r.Close()
		for key, want := range ref.tiles {
			got := m.tiles[key]
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("opts=%v tile %v [%d] = %v, want %v", opts, key, i, got[i], want[i])
				}
			}
		}
	}
}

func TestRepeatedFactorizationPersistent(t *testing.T) {
	a0 := NewSPD(4, 6)
	ref := a0.Clone()
	if err := SerialFactor(ref); err != nil {
		t.Fatal(err)
	}
	for _, persistent := range []bool{false, true} {
		r := newRuntime(t, rt.Config{Workers: 4, Opts: graph.OptAll})
		got, err := TaskFactorRepeated(a0, r, RepeatedConfig{Iters: 4, Persistent: persistent})
		if err != nil {
			t.Fatalf("persistent=%v: %v", persistent, err)
		}
		st := r.Graph().Stats()
		r.Close()
		for key, want := range ref.tiles {
			g := got.tiles[key]
			for i := range want {
				if want[i] != g[i] {
					t.Fatalf("persistent=%v tile %v differs", persistent, key)
				}
			}
		}
		if persistent && st.ReplayedTasks == 0 {
			t.Fatalf("persistent run recorded no replays")
		}
	}
}

func TestPersistentDiscoveryAsymptoticSpeedup(t *testing.T) {
	// The paper reports a ~5x asymptotic discovery speedup with (p) on
	// repeated decompositions. Check tasks-discovered shrink.
	a0 := NewSPD(6, 4)
	run := func(persistent bool) graph.Stats {
		r := newRuntime(t, rt.Config{Workers: 2, Opts: graph.OptAll})
		if _, err := TaskFactorRepeated(a0, r, RepeatedConfig{Iters: 5, Persistent: persistent}); err != nil {
			t.Fatal(err)
		}
		st := r.Graph().Stats()
		r.Close()
		return st
	}
	plain := run(false)
	pers := run(true)
	if pers.Tasks*4 > plain.Tasks {
		t.Fatalf("persistent did not cut discovered tasks: %d vs %d", pers.Tasks, plain.Tasks)
	}
}

func TestDistributedFactorMatchesSerial(t *testing.T) {
	const T, B, R = 6, 5, 3
	a0 := NewSPD(T, B)
	ref := a0.Clone()
	if err := SerialFactor(ref); err != nil {
		t.Fatal(err)
	}
	w := mpi.NewWorld(R)
	dms := make([]*DistMatrix, R)
	w.Run(func(c *mpi.Comm) {
		dm := NewDistSPD(T, B, R, c.Rank())
		dms[c.Rank()] = dm
		r := newRuntime(t, rt.Config{Workers: 2, Opts: graph.OptAll})
		if err := TaskFactorDist(dm, r, c); err != nil {
			t.Error(err)
		}
		r.Close()
	})
	if t.Failed() {
		t.FailNow()
	}
	// Each owned tile must match the serial factor bitwise.
	for j := 0; j < T; j++ {
		dm := dms[j%R]
		for i := j; i < T; i++ {
			want := ref.Tile(i, j)
			got := dm.Tile(i, j)
			for x := range want {
				if want[x] != got[x] {
					t.Fatalf("tile (%d,%d)[%d] = %v, want %v", i, j, x, got[x], want[x])
				}
			}
		}
	}
}

func TestVerifyCatchesCorruption(t *testing.T) {
	a0 := NewSPD(3, 4)
	l := a0.Clone()
	if err := SerialFactor(l); err != nil {
		t.Fatal(err)
	}
	l.Tile(1, 0)[0] += 0.5
	if err := Verify(a0, l, 1e-10); err == nil {
		t.Fatalf("corruption not detected")
	}
}

func BenchmarkSerialFactor(b *testing.B) {
	a0 := NewSPD(8, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := a0.Clone()
		if err := SerialFactor(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTaskFactor(b *testing.B) {
	a0 := NewSPD(8, 32)
	r := newRuntime(b, rt.Config{Workers: 4, Opts: graph.OptAll})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := a0.Clone()
		if err := TaskFactor(m, r); err != nil {
			b.Fatal(err)
		}
	}
	r.Close()
}
