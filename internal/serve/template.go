package serve

import (
	"bytes"
	"encoding/binary"
	"hash/maphash"
	"strings"

	"taskdep/internal/rt"
	"taskdep/internal/values"
)

// template.go is the tenant's structural template cache: a request's
// graph, once recorded and compiled, is kept under the request's shape,
// and a later request of the same shape replays it with its own
// constants instead of building, discovering and compiling it again —
// the paper's persistent sub-graph (p) carried across the request
// boundary. `repeat: n` and "the same graph again" are the same thing
// to it: compiled iterations of one recording.
//
// Everything here is guarded by the tenant's prodMu. The bounds are
// constants; nothing about the cache is configurable.

const (
	// maxTemplates and maxTemplateTasks bound what a tenant keeps: the
	// least recently hit template goes first. A template pins its
	// wireGraph, its recorded tasks and its compiled schedule: measured
	// 0.8 KB per task on the benchmark's lattice (three dependences a
	// task), so at most some 7 MB per tenant.
	maxTemplates     = 8
	maxTemplateTasks = 2 * MaxTasks
	// doorkeeperSize is the number of shape hashes remembered for the
	// shapes most recently run without being recorded.
	doorkeeperSize = 64
	// maxStoreSlots bounds the names a tenant's store may hold when a
	// request starts; past it the store is replaced (Tenant.swapStore),
	// and the templates with it. Eight names per task of a full cache, so
	// that a client whose working set the cache holds never reaches it.
	maxStoreSlots = 1 << 16
)

// template is one cached recording: the request's lowered graph, what
// the runtime recorded from it, and the slots to report after a replay.
// It holds no view of a request body: the shape is a copy, the graph's
// labels and the result names are strings of their own.
type template struct {
	hash  uint64
	shape []byte
	g     *wireGraph
	rec   *rt.Recording
	// results and resultNames are build's, the names cloned.
	results     []values.Handle
	resultNames []string
	lastHit     uint64 // templateCache.clock at the last hit (or the insertion)
}

// templateCache is a tenant's templates, the doorkeeper in front of
// them and the buffer request shapes are written into.
type templateCache struct {
	seed      maphash.Seed
	shape     []byte // the current request's shape; reused
	templates []*template
	tasks     int // wire tasks over all templates
	clock     uint64
	// door is a ring of the hashes last run cold: a shape is recorded on
	// its second sighting, so one that never repeats never pays for a
	// recording. Only a hint — a shape that comes back after
	// doorkeeperSize others costs one more plain window, a false match
	// (or a hash of zero) one recording.
	door     [doorkeeperSize]uint64
	doorNext int
}

func appendShapeString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendShapeList(b []byte, names []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(names)))
	for _, n := range names {
		b = appendShapeString(b, n)
	}
	return b
}

// appendShape appends req's shape to b: everything build and the
// discovery depend on — per task the label, the operator and the three
// slot lists in order, then the result list, every string and list
// length-prefixed so that no two requests that differ in any of them
// share a shape. The arguments and repeat are left out: they are what a
// replay supplies anew.
func appendShape(b []byte, req *GraphRequest) []byte {
	b = binary.AppendUvarint(b, uint64(len(req.Tasks)))
	for i := range req.Tasks {
		w := &req.Tasks[i]
		b = appendShapeString(b, w.Label)
		b = appendShapeString(b, w.Op)
		b = appendShapeList(b, w.Consume)
		b = appendShapeList(b, w.Provide)
		b = appendShapeList(b, w.Update)
	}
	return appendShapeList(b, req.Results)
}

// lookup writes req's shape into the cache's buffer and returns its hash
// and the template cached for it, nil on a miss. A template is a hit only
// when its stored shape equals the request's byte for byte: the hash
// selects candidates, it never decides.
func (c *templateCache) lookup(req *GraphRequest) (hash uint64, tp *template) {
	c.shape = appendShape(c.shape[:0], req)
	hash = maphash.Bytes(c.seed, c.shape)
	for _, tp := range c.templates {
		if tp.hash == hash && bytes.Equal(tp.shape, c.shape) {
			c.clock++
			tp.lastHit = c.clock
			return hash, tp
		}
	}
	return hash, nil
}

// sighted reports whether the doorkeeper remembers hash, and remembers
// it from now on.
func (c *templateCache) sighted(hash uint64) bool {
	for _, h := range c.door {
		if h == hash {
			return true
		}
	}
	c.door[c.doorNext] = hash
	c.doorNext = (c.doorNext + 1) % doorkeeperSize
	return false
}

// insert caches a recording of the shape lookup last wrote, evicting
// least recently hit templates until both bounds hold.
func (c *templateCache) insert(hash uint64, g *wireGraph, rec *rt.Recording, results []values.Handle, resultNames []string) *template {
	for len(c.templates) > 0 && (len(c.templates) >= maxTemplates || c.tasks+len(g.tasks) > maxTemplateTasks) {
		oldest := c.templates[0]
		for _, tp := range c.templates[1:] {
			if tp.lastHit < oldest.lastHit {
				oldest = tp
			}
		}
		c.drop(oldest)
	}
	names := make([]string, len(resultNames))
	for i, n := range resultNames {
		names[i] = strings.Clone(n)
	}
	c.clock++
	tp := &template{
		hash: hash, shape: bytes.Clone(c.shape), g: g, rec: rec,
		results: results, resultNames: names, lastHit: c.clock,
	}
	c.templates = append(c.templates, tp)
	c.tasks += len(g.tasks)
	return tp
}

// drop removes tp from the cache.
func (c *templateCache) drop(tp *template) {
	for i, have := range c.templates {
		if have == tp {
			last := len(c.templates) - 1
			c.templates[i] = c.templates[last]
			c.templates[last] = nil
			c.templates = c.templates[:last]
			c.tasks -= len(tp.g.tasks)
			return
		}
	}
}

// clear drops every template.
func (c *templateCache) clear() {
	clear(c.templates)
	c.templates = c.templates[:0]
	c.tasks = 0
}

// rebind points the cached graph at a new request of the same shape: the
// request's stream, each task's data parsed from the request's argument
// (the firstprivate data of the replay), and no transition reported yet.
func (tp *template) rebind(req *GraphRequest, emit func(Event)) {
	tp.g.emit = emit
	for i := range tp.g.tasks {
		w := &tp.g.tasks[i]
		w.parse(req.Tasks[i].Arg)
		w.reported = false
	}
}
