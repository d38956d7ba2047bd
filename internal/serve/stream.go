package serve

import (
	"encoding/json"
	"io"
	"math"
	"slices"
	"strconv"
	"sync"
)

// mailbox is one request's event queue between the tenant's workers and
// the handler that owns the socket. Producers append under the mutex and
// move on — neither put nor done ever blocks, however slow or gone the
// reader is — and the single consumer takes whatever has accumulated in
// one swap. Task transitions travel in a lane of their own, as the
// finished tasks' labels: no Event is built or copied for them.
type mailbox struct {
	mu       sync.Mutex
	nonEmpty sync.Cond // pending or labels is non-empty, or closed is set
	pending  []Event
	labels   []string // the finished tasks, in completion order
	closed   bool
}

// open readies a zero or closed mailbox for a producer.
func (m *mailbox) open() {
	m.nonEmpty.L = &m.mu
	m.closed = false
}

func (m *mailbox) put(e Event) {
	m.mu.Lock()
	m.pending = append(m.pending, e)
	m.mu.Unlock()
	m.nonEmpty.Signal()
}

// done appends the labels of finished tasks to the lane.
func (m *mailbox) done(labels []string) {
	m.mu.Lock()
	m.labels = append(m.labels, labels...)
	m.mu.Unlock()
	m.nonEmpty.Signal()
}

func (m *mailbox) close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.nonEmpty.Signal()
}

// take blocks until there is something to report, then returns every
// pending event and label and whether the mailbox is closed (the batch
// is then the last). spare and spareLabels, the previous batch, become
// the next pending buffers.
func (m *mailbox) take(spare []Event, spareLabels []string) (batch []Event, labels []string, closed bool) {
	m.mu.Lock()
	for len(m.pending) == 0 && len(m.labels) == 0 && !m.closed {
		m.nonEmpty.Wait()
	}
	batch, labels, closed = m.pending, m.labels, m.closed
	m.pending, m.labels = spare[:0], spareLabels[:0]
	m.mu.Unlock()
	return batch, labels, closed
}

// streamState is the memory one stream works in: the mailbox with the
// batch filling up, the batch being written, and the bytes of the write.
// The zero value is ready; a state may serve one stream after another
// (the request scratch keeps one) and keeps its buffers' capacity, but
// no event or label: a batch is cleared as soon as it is written.
type streamState struct {
	mbox   mailbox
	batch  []Event
	labels []string
	out    []byte
}

// reserve gives both batches room for events events and both lanes room
// for tasks labels, the most a stream can have pending at once, so that
// no put or done regrows one.
func (st *streamState) reserve(tasks, events int) {
	st.batch = slices.Grow(st.batch[:0], events)
	st.mbox.pending = slices.Grow(st.mbox.pending[:0], events)
	st.labels = slices.Grow(st.labels[:0], tasks)
	st.mbox.labels = slices.Grow(st.mbox.labels[:0], tasks)
}

// stream writes one request's NDJSON records to w. first goes out, and
// is flushed, before produce starts; produce then runs on its own
// goroutine with the mailbox to emit into, and stream returns once
// produce has returned and everything it emitted is written. The mailbox
// closes when produce returns, so no put or done can follow the close.
//
// Flush rule: each pass takes every pending label and event and issues
// one Write and one flush for them, and the writer sleeps only on an
// empty mailbox. It never waits while holding unflushed bytes: an event
// is on the socket in the first write after it was emitted, and shares
// that write only with events that piled up during the previous one.
// The labels of a pass make one "done" task record, written ahead of
// its events: a request's producer emits every transition before its
// result, error and done events, so that is the order they came in.
// Every other event is a record of its own.
func stream(w io.Writer, flush func(), st *streamState, first Event, produce func(m *mailbox)) {
	seq := 0
	write := func(labels []string, batch []Event) {
		out := st.out[:0]
		if len(labels) > 0 {
			seq++
			out = appendEvent(out, &Event{Type: "task", Seq: seq, Tasks: labels, State: "done"})
		}
		for i := range batch {
			seq++
			batch[i].Seq = seq
			out = appendEvent(out, &batch[i])
		}
		if len(out) > 0 {
			// A failed write means the client is gone; its request context
			// aborts the window, and the stream is still drained to its end.
			_, _ = w.Write(out)
			flush()
		}
		clear(labels)
		clear(batch)
		st.out = out
	}
	st.batch = append(st.batch[:0], first)
	write(nil, st.batch)

	m := &st.mbox
	m.open()
	go func() {
		defer m.close()
		produce(m)
	}()
	for closed := false; !closed; {
		st.batch, st.labels, closed = m.take(st.batch, st.labels)
		write(st.labels, st.batch)
	}
}

// appendEvent appends e as one NDJSON record, byte for byte what
// json.Encoder.Encode(e) writes, without reflection on the fixed fields.
// Where encoding/json refuses the event (a NaN or infinite number) the
// record is dropped, as Encode dropped it: b is returned unchanged.
func appendEvent(b []byte, e *Event) []byte {
	start, ok := len(b), true
	b = appendString(append(b, `{"type":`...), e.Type)
	b = strconv.AppendInt(append(b, `,"seq":`...), int64(e.Seq), 10)
	if len(e.Tasks) > 0 {
		b = append(b, `,"tasks":[`...)
		for i, name := range e.Tasks {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, name)
		}
		b = append(b, ']')
	}
	b = appendField(b, `,"state":`, e.State)
	b = appendField(b, `,"key":`, e.Key)
	switch v := e.Value.(type) {
	case nil:
	case float64:
		b, ok = appendFloat(append(b, `,"value":`...), v)
	case string:
		b = appendString(append(b, `,"value":`...), v)
	default:
		raw, err := json.Marshal(v)
		b, ok = append(append(b, `,"value":`...), raw...), err == nil
	}
	b = appendField(b, `,"error":`, e.Err)
	if e.Iters != 0 {
		b = strconv.AppendInt(append(b, `,"iters":`...), int64(e.Iters), 10)
	}
	if ok && e.Elapsed != 0 {
		b, ok = appendFloat(append(b, `,"elapsed":`...), e.Elapsed)
	}
	if !ok {
		return b[:start]
	}
	return append(b, '}', '\n')
}

// appendField appends an omitempty string field: key is the separator,
// quoted name and colon.
func appendField(b []byte, key, s string) []byte {
	if s == "" {
		return b
	}
	return appendString(append(b, key...), s)
}

// appendString appends s as a JSON string. Strings made of printable
// ASCII with nothing encoding/json escapes are copied; any other takes
// encoding/json's own escaper, whose output differs between toolchains.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			raw, _ := json.Marshal(s) // a string always marshals
			return append(b, raw...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendFloat appends f as encoding/json formats a float64 (ES6 number
// to string: exponent form below 1e-6 and from 1e21, two-digit negative
// exponents unpadded), and reports false for the values it refuses.
func appendFloat(b []byte, f float64) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, true
}
