package main

import (
	"math"
	"math/rand"
	"strconv"

	"taskdep/apps/cholesky"
	"taskdep/apps/hpcg"
	"taskdep/apps/lulesh"
)

// gen.go holds every input generator. Each is a pure function of its
// arguments: the same seed gives byte-identical serve request bodies
// and bitwise-identical application inputs, and the program under
// test never sees the seed, only what was generated from it.

// rngFor derives an independent stream for one (seed, stream, index)
// triple, so the content of request i does not depend on which client
// goroutine happened to send it.
func rngFor(seed int64, stream, index uint64) *rand.Rand {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ stream*0xBF58476D1CE4E5B9 ^ index*0x94D049BB133111EB
	// splitmix64 finalizer: neighbouring indices must not give
	// neighbouring rand sources.
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return rand.New(rand.NewSource(int64(x)))
}

const (
	streamLulesh = iota + 1
	streamCholesky
	streamHPCG
	streamSmall
	streamReplay
)

// luleshDomain builds the S^3 LULESH domain. The seed scales the Sedov
// energy deposit, which changes every value the solve computes and
// none of the task structure.
func luleshDomain(seed int64, s, iters int) (*lulesh.Domain, error) {
	d, err := lulesh.NewDomain(lulesh.Params{S: s, Iters: iters, Ranks: 1})
	if err != nil {
		return nil, err
	}
	d.E[0] *= 1 + 0.25*rngFor(seed, streamLulesh, 0).Float64()
	return d, nil
}

// choleskyMatrix builds the tiled SPD matrix and adds a seeded
// non-negative amount to every diagonal entry, which keeps it SPD.
func choleskyMatrix(seed int64, tiles, b int) *cholesky.Matrix {
	m := cholesky.NewSPD(tiles, b)
	r := rngFor(seed, streamCholesky, 0)
	for t := 0; t < tiles; t++ {
		tile := m.Tile(t, t)
		for i := 0; i < b; i++ {
			tile[i*b+i] += r.Float64()
		}
	}
	return m
}

// hpcgRHS returns the right-hand side of the global (stacked) grid;
// rank k's slab is the k-th contiguous part.
func hpcgRHS(seed int64, rows int) []float64 {
	r := rngFor(seed, streamHPCG, 0)
	b := make([]float64, rows)
	for i := range b {
		b[i] = 1 + 0.1*r.Float64()
	}
	return b
}

// hpcgProblem builds one rank's slab with its part of the seeded RHS.
func hpcgProblem(p hpcg.Params, rhs []float64) (*hpcg.Problem, error) {
	pr, err := hpcg.New(p)
	if err != nil {
		return nil, err
	}
	copy(pr.B, rhs[p.Rank*pr.Rows:(p.Rank+1)*pr.Rows])
	return pr, nil
}

// lattice is one generated serve graph: the request body as the bytes
// the client posts, and what every reported slot must come back as.
type lattice struct {
	body   []byte
	tasks  int
	repeat int
	// want maps each reported slot to the value the generator computed
	// locally, mirroring the server's `sum` operator (argument first,
	// then the consumed slots in order).
	want map[string]float64
}

// latticeShape is the structure of a lattice without its constants:
// width, depth and, per body task, which slots of the previous row it
// consumes (as offsets from its own column, wrapped).
type latticeShape struct {
	w, d    int
	offsets [][]int8 // (d-1)*w entries
}

// smallShape draws a structurally distinct lattice of 40-90 tasks:
// width 4-8, depth chosen so w*d+1 stays in range, every body task
// consuming a seeded non-empty subset of its three upper neighbours.
func smallShape(r *rand.Rand) latticeShape {
	w := 4 + r.Intn(5)
	dmin, dmax := (39+w-1)/w, 89/w
	d := dmin + r.Intn(dmax-dmin+1)
	sh := latticeShape{w: w, d: d, offsets: make([][]int8, (d-1)*w)}
	for i := range sh.offsets {
		mask := 1 + r.Intn(7)
		for b := 0; b < 3; b++ {
			if mask&(1<<b) != 0 {
				sh.offsets[i] = append(sh.offsets[i], int8(b-1))
			}
		}
	}
	return sh
}

// fullShape is the fixed lattice of serve_replay: every body task
// consumes all three upper neighbours.
func fullShape(w, d int) latticeShape {
	sh := latticeShape{w: w, d: d, offsets: make([][]int8, (d-1)*w)}
	for i := range sh.offsets {
		sh.offsets[i] = []int8{-1, 0, 1}
	}
	return sh
}

func slotName(buf []byte, row, col int) []byte {
	buf = append(buf, 'v')
	buf = strconv.AppendInt(buf, int64(row), 10)
	buf = append(buf, '_')
	return strconv.AppendInt(buf, int64(col), 10)
}

// build renders the shape with constants drawn from r. allResults
// leaves `results` empty, so the server reports every slot; otherwise
// only "out" is reported.
func (sh latticeShape) build(r *rand.Rand, repeat int, allResults bool) lattice {
	w, d := sh.w, sh.d
	vals := make([]float64, w*d)
	buf := make([]byte, 0, 96*(w*d+1))
	var name []byte
	buf = append(buf, `{"tasks":[`...)
	for c := 0; c < w; c++ {
		v := float64(r.Intn(10))
		vals[c] = v
		if c > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"op":"const","arg":`...)
		buf = strconv.AppendInt(buf, int64(v), 10)
		buf = append(buf, `,"provide":["`...)
		buf = slotName(buf, 0, c)
		buf = append(buf, `"]}`...)
	}
	for row := 1; row < d; row++ {
		for c := 0; c < w; c++ {
			offs := sh.offsets[(row-1)*w+c]
			s := 0.0
			buf = append(buf, `,{"op":"sum","consume":[`...)
			for i, o := range offs {
				src := (c + int(o) + w) % w
				s += vals[(row-1)*w+src]
				if i > 0 {
					buf = append(buf, ',')
				}
				buf = append(buf, '"')
				buf = slotName(buf, row-1, src)
				buf = append(buf, '"')
			}
			vals[row*w+c] = s
			buf = append(buf, `],"provide":["`...)
			buf = slotName(buf, row, c)
			buf = append(buf, `"]}`...)
		}
	}
	out := 0.0
	buf = append(buf, `,{"label":"tail","op":"sum","consume":[`...)
	for c := 0; c < w; c++ {
		out += vals[(d-1)*w+c]
		if c > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '"')
		buf = slotName(buf, d-1, c)
		buf = append(buf, '"')
	}
	buf = append(buf, `],"provide":["out"]}]`...)
	if repeat > 1 {
		buf = append(buf, `,"repeat":`...)
		buf = strconv.AppendInt(buf, int64(repeat), 10)
	}
	lat := lattice{tasks: w*d + 1, repeat: repeat}
	if allResults {
		lat.want = make(map[string]float64, w*d+1)
		for row := 0; row < d; row++ {
			for c := 0; c < w; c++ {
				name = slotName(name[:0], row, c)
				lat.want[string(name)] = vals[row*w+c]
			}
		}
	} else {
		buf = append(buf, `,"results":["out"]`...)
		lat.want = make(map[string]float64, 1)
	}
	lat.want["out"] = out
	buf = append(buf, '}')
	lat.body = buf
	if math.IsInf(out, 0) {
		panic("benchmark: lattice overflow") // a generator bug, not an input
	}
	return lat
}

// genSmall is request i of serve_small: a fresh shape every time.
func genSmall(seed int64, i uint64) lattice {
	r := rngFor(seed, streamSmall, i)
	return smallShape(r).build(r, 1, true)
}

// Sizes of the serve_replay lattice (513 tasks with the tail).
const (
	replayW, replayD = 16, 32
	replayRepeat     = 8
)

// genReplay is request i of serve_replay: the fixed shape, fresh
// constants.
func genReplay(seed int64, i uint64, w, d, repeat int) lattice {
	return fullShape(w, d).build(rngFor(seed, streamReplay, i), repeat, false)
}
