package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"sync"
)

// reqScratch is the memory one POST /v1/graphs works in, from the first
// body byte to the last stream record: the body, the arenas and the
// request decoded into them, and the stream's buffers. The handler takes
// one from scratchPool and owns it until stream has returned — that is,
// until Tenant.Run has, so neither build nor a task body can still be
// reading the request — and nothing that outlives the handler may keep
// a slice of it.
type reqScratch struct {
	body []byte // as read from the socket; req's Args alias it
	arenas
	req GraphRequest
	// provided is validate's set of provided slots; its keys are views of
	// the body like every other decoded string.
	provided map[string]bool
	// key is the byte key the body matched, nil when it matched none; on
	// a match spans[i] is where task i's arg lies in the body (zero when
	// it has none), and repeat is the request's repeat.
	key    *byteKey
	spans  []span
	repeat int
	stream streamState
}

var scratchPool = sync.Pool{New: func() any { return new(reqScratch) }}

// maxPooledScratch bounds the bytes a pooled scratch may hold on to.
// The pool keeps one per P (and hands it to anyone), so a scratch that
// one maximal request blew up to megabytes is dropped, not parked.
const maxPooledScratch = 512 << 10

// decode decodes the body into req and validates it.
func (sc *reqScratch) decode() error {
	if err := decodeRequest(&sc.req, sc.body, &sc.arenas); err != nil {
		return err
	}
	if sc.provided == nil {
		sc.provided = make(map[string]bool)
	}
	return sc.req.validate(sc.provided)
}

// match matches the body against keys, a tenant's snapshot, and reports
// whether one matched: sc.key, sc.spans and sc.repeat are then set.
func (sc *reqScratch) match(keys *[]*byteKey) bool {
	if sc.key = nil; keys == nil {
		return false
	}
	for _, k := range *keys {
		var ok bool
		if sc.spans, sc.repeat, ok = k.match(sc.body, sc.spans); ok {
			sc.key = k
			return true
		}
	}
	return false
}

// arg is task i's argument on a byte match: a view of the body.
func (sc *reqScratch) arg(i int) json.RawMessage {
	s := sc.spans[i]
	if s.end == 0 {
		return nil
	}
	return sc.body[s.start:s.end:s.end]
}

var (
	nameSize  = int(reflect.TypeFor[string]().Size())
	taskSize  = int(reflect.TypeFor[TaskWire]().Size())
	eventSize = int(reflect.TypeFor[Event]().Size())
	intSize   = int(reflect.TypeFor[int]().Size())
	spanSize  = int(reflect.TypeFor[span]().Size())
)

// footprint is the capacity of every buffer of the scratch, in bytes. A
// map has no capacity to ask for: provided is charged two cells per
// entry it holds, which bounds it because release measures before it
// clears, and a map that ever held more was dropped then.
func (sc *reqScratch) footprint() int {
	return cap(sc.body) + (cap(sc.names)+2*len(sc.provided))*nameSize + cap(sc.tasks)*taskSize +
		cap(sc.argAt)*intSize + cap(sc.spans)*spanSize +
		(cap(sc.stream.batch)+cap(sc.stream.mbox.pending))*eventSize +
		(cap(sc.stream.labels)+cap(sc.stream.mbox.labels))*nameSize + cap(sc.stream.out)
}

// release returns the scratch to the pool with no string, task, event,
// label or template left in it, or drops it when it has outgrown
// maxPooledScratch. The arenas hold nothing past their length and the
// stream's batches are cleared as they are written, so clearing up to the
// lengths clears all.
func (sc *reqScratch) release() {
	if sc.footprint() > maxPooledScratch {
		return
	}
	clear(sc.names)
	clear(sc.tasks)
	clear(sc.provided)
	sc.names, sc.tasks = sc.names[:0], sc.tasks[:0]
	sc.req = GraphRequest{}
	sc.key = nil
	scratchPool.Put(sc)
}

// readBody reads r to its end into buf[:0], first growing it for hint
// bytes (a Content-Length; negative when unknown) if that is no more
// than MaxBodyBytes.
func readBody(r io.Reader, buf []byte, hint int64) ([]byte, error) {
	b := bytes.NewBuffer(buf[:0])
	if 0 <= hint && hint <= MaxBodyBytes {
		b.Grow(int(hint) + bytes.MinRead) // ReadFrom wants MinRead spare bytes to read the EOF into
	}
	_, err := b.ReadFrom(r)
	return b.Bytes(), err
}
