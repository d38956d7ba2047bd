package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/maphash"
	"slices"
	"strings"
	"unsafe"

	"taskdep/internal/rt"
	"taskdep/internal/values"
)

// template.go is the tenant's structural template cache: a request's
// graph, once recorded and compiled, is kept under the request's shape,
// and a later request of the same shape replays it with its own
// constants instead of building, discovering and compiling it again —
// the paper's persistent sub-graph (p) carried across the request
// boundary. `repeat: n` and "the same graph again" are the same thing
// to it: compiled iterations of one recording. A template recorded over
// HTTP also has a byte key, which finds it from a request's body before
// the body is decoded.
//
// Everything here is guarded by the tenant's prodMu, but a byte key,
// which is immutable once made. The bounds are constants; nothing about
// the cache is configurable.

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
	// maxKeyBytes bounds a template's byte key: a recording body whose
	// fixed bytes and cuts come to more gets no key (its requests are hits
	// by shape only). With maxTemplates templates a tenant's keys hold at
	// most 2 MiB; the 513-task lattice's is 34 KB.
	maxKeyBytes = 256 << 10
)

// template is one cached recording: the request's lowered graph, what
// the runtime recorded from it, and the slots to report after a replay.
// It holds no view of a request body: the shape and the byte key are
// copies, the graph's labels and the result names are strings of their
// own.
type template struct {
	hash  uint64
	shape []byte
	key   *byteKey // nil when the recording came without a body, or one over maxKeyBytes
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
	// changed is set when a template comes or goes, until the tenant
	// publishes the byte keys again (Tenant.publishTemplates).
	changed bool
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
			c.touch(tp)
			return hash, tp
		}
	}
	return hash, nil
}

// hit reports whether tp, the template of a byte key a body matched, is
// still cached — an eviction or a store swap may have dropped it since —
// and if so counts a hit on it.
func (c *templateCache) hit(tp *template) bool {
	if !slices.Contains(c.templates, tp) {
		return false
	}
	c.touch(tp)
	return true
}

func (c *templateCache) touch(tp *template) {
	c.clock++
	tp.lastHit = c.clock
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
	c.changed = true
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
			c.changed = true
			return
		}
	}
}

// clear drops every template.
func (c *templateCache) clear() {
	clear(c.templates)
	c.templates = c.templates[:0]
	c.tasks = 0
	c.changed = true
}

// rebind points the cached graph at a new request of the same shape: the
// request's stream, each task's data parsed from the request's argument
// (the firstprivate data of the replay), and no transition reported yet.
// arg(i) is task i's argument: a decoded request's, or the literal a byte
// match found in a body.
func (tp *template) rebind(arg func(i int) json.RawMessage, emit sink) {
	tp.g.emit = emit
	for i := range tp.g.tasks {
		w := &tp.g.tasks[i]
		w.parse(arg(i))
		w.reported = false
	}
}

// byteKey is a template's second key, the one the HTTP handler matches a
// body against before decoding it: the bytes of the body that recorded
// the template with its variable literals — each task's arg, the one the
// decoder kept, and repeat — cut out. A body made of the same fixed bytes
// with a literal at every cut that the decoder accepts there decodes to a
// request of the template's shape that Validate accepts (FuzzTemplateBytes
// holds that), so it is a hit without being decoded, validated or looked
// up by shape. Anything else — another literal form, other white space,
// other member order — is matched by shape after a decode, as before.
//
// A key is immutable once made: the handler reads it without the
// producer lock, through the tenant's snapshot of its keys, and touches
// nothing of tp but its identity.
type byteKey struct {
	tp    *template
	fixed []byte // the recording body without its variable literals
	cuts  []cut  // where they were, in body order
	tasks int    // tp's task count: the spans a match fills
	// events is the most stream events besides transitions a hit on tp
	// emits: its result slots, the error tail and done (maxEvents).
	events int
}

// cut is one variable literal of a byte key: at is its offset in fixed,
// task the task whose arg it is, -1 for repeat.
type cut struct{ at, task int }

var cutSize = int(unsafe.Sizeof(cut{}))

// newByteKey cuts tp's byte key from body, the request that recorded it,
// decoded into req and a. It returns nil when the key would take more
// than maxKeyBytes.
func newByteKey(tp *template, body []byte, req *GraphRequest, a *arenas) *byteKey {
	type literal struct {
		span
		task int
	}
	lits := make([]literal, 0, len(a.argAt)+1) // in body order
	for i, at := range a.argAt {
		if at >= 0 {
			lits = append(lits, literal{span{at, at + len(req.Tasks[i].Arg)}, i})
		}
	}
	if r := a.repeat; r.start >= 0 {
		at := slices.IndexFunc(lits, func(l literal) bool { return l.start > r.start })
		if at < 0 {
			at = len(lits)
		}
		lits = slices.Insert(lits, at, literal{r, -1})
	}
	fixed := len(body)
	for _, l := range lits {
		fixed -= l.end - l.start
	}
	if fixed+cutSize*len(lits) > maxKeyBytes {
		return nil
	}
	k := &byteKey{
		tp:     tp,
		fixed:  make([]byte, 0, fixed),
		cuts:   make([]cut, len(lits)),
		tasks:  len(req.Tasks),
		events: len(tp.resultNames) + maxErrorEvents + 1,
	}
	prev := 0
	for i, l := range lits {
		k.fixed = append(k.fixed, body[prev:l.start]...)
		k.cuts[i] = cut{at: len(k.fixed), task: l.task}
		prev = l.end
	}
	k.fixed = append(k.fixed, body[prev:]...)
	return k
}

// match reports whether body is k's fixed bytes with a literal at every
// cut that the decoder accepts there: an arg is a value skip accepts at
// the task's depth and within MaxArgBytes, repeat an integer literal in
// [0, MaxRepeat]. On a match it returns where each task's arg lies in
// body, in spans (grown to the template's task count; a task without a
// cut gets the zero span), and repeat, 0 when the key has no repeat cut.
func (k *byteKey) match(body []byte, spans []span) (_ []span, repeat int, ok bool) {
	if len(body) < len(k.fixed)+len(k.cuts) {
		return spans, 0, false
	}
	spans = slices.Grow(spans[:0], k.tasks)[:k.tasks]
	clear(spans)
	// A scanner over the body in place: it only reads, and nothing it
	// returns on a match is a string.
	d := decoder{s: unsafe.String(unsafe.SliceData(body), len(body)), raw: body}
	prev := 0
	for _, c := range k.cuts {
		if !bytes.HasPrefix(body[d.i:], k.fixed[prev:c.at]) {
			return spans, 0, false
		}
		d.i += c.at - prev
		prev = c.at
		start := d.i
		if c.task < 0 {
			if d.peek() == 'n' || d.int(&repeat) != nil || repeat < 0 || repeat > MaxRepeat {
				return spans, 0, false
			}
			continue
		}
		if d.skip(3) != nil || d.i-start > MaxArgBytes {
			return spans, 0, false
		}
		spans[c.task] = span{start, d.i}
	}
	return spans, repeat, bytes.Equal(body[d.i:], k.fixed[prev:])
}
