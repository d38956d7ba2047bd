package serve

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// decode.go is the one decoder of a GraphRequest in the program: the
// HTTP handler calls decodeRequest on the body it read, and
// (*GraphRequest).UnmarshalJSON calls it for everyone who goes through
// encoding/json. It is a single pass over the bytes written for this
// schema, with no reflection and no allocation per task.
//
// Rule: for every input within the wire limits whose objects repeat no
// member name, decodeRequest accepts exactly what json.Unmarshal into a
// plain struct of the same shape accepts, and decodes the same value.
// So: a member name is matched exactly, then case-insensitively
// (strings.EqualFold); unknown members are syntax-checked and skipped;
// null leaves a string or repeat untouched and makes a list nil (null
// inside a name list is ""; "arg":null keeps the four bytes); [] is an
// empty non-nil list; repeat must be an integer literal that fits int.
// Where an object does repeat a member, the last one wins and replaces
// the whole value (encoding/json would decode into the earlier value's
// elements).
//
// Limits are enforced on the way: the decoder stops at task MaxTasks+1
// and at an arg longer than MaxArgBytes, and at encoding/json's nesting
// depth of 10 000.
//
// Lifetime: every decoded string is a substring of one immutable copy
// of the body (a literal with an escape or a non-ASCII byte is the
// exception: encoding/json unquotes it into a string of its own), every
// list is carved from the arenas, and every Arg aliases raw. The request
// is therefore valid as long as raw and the arenas are left alone;
// whatever must outlive that clones what it keeps.

// maxNesting is encoding/json's bound on nested arrays and objects.
const maxNesting = 10000

// arenas back the lists of one decoded request: Tasks is a[:n] of
// tasks, and every consume/provide/update/results list a run of names.
// They also keep where the request's variable literals lie in the body,
// which is what a template's byte key is cut from (template.go): argAt[i]
// is the offset of task i's Arg (its end follows from its length), -1
// when the task has none; repeat is the literal of the last "repeat"
// member that is not null (the one that set Repeat), {-1, -1} when there
// is none.
type arenas struct {
	names  []string
	tasks  []TaskWire
	argAt  []int
	repeat span
}

// span is the bytes [start, end) of a body.
type span struct{ start, end int }

// UnmarshalJSON decodes data, which encoding/json has already checked
// to be one JSON value, into a zeroed request with arenas of its own.
func (g *GraphRequest) UnmarshalJSON(data []byte) error {
	return decodeRequest(g, append([]byte(nil), data...), new(arenas))
}

// decodeRequest decodes raw, a whole request body, into *req (zeroed
// first). Anything but white space after the value is an error. req
// aliases raw and a; see the lifetime rule above.
func decodeRequest(req *GraphRequest, raw []byte, a *arenas) error {
	d := decoder{s: string(raw), raw: raw, a: a}
	*req = GraphRequest{}
	a.argAt, a.repeat = a.argAt[:0], span{-1, -1}
	d.ws()
	var err error
	switch d.peek() {
	case '{':
		err = d.request(req)
	case 'n':
		err = d.literal("null")
	default:
		err = d.errorf("want a request object")
	}
	if err != nil {
		return err
	}
	if d.ws(); d.i != len(d.s) {
		return d.errorf("data after the request")
	}
	return nil
}

type decoder struct {
	s   string // the body; decoded strings are substrings of it
	raw []byte // the same bytes; Args alias it
	i   int    // next byte to read
	a   *arenas
}

func (d *decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("serve: decode: offset %d: %s", d.i, fmt.Sprintf(format, args...))
}

// peek returns the next byte, or 0 at the end (never valid where it is
// inspected, so the end needs no case of its own).
func (d *decoder) peek() byte {
	if d.i < len(d.s) {
		return d.s[d.i]
	}
	return 0
}

func (d *decoder) ws() {
	for d.i < len(d.s) {
		switch d.s[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

func (d *decoder) literal(lit string) error {
	if !strings.HasPrefix(d.s[d.i:], lit) {
		return d.errorf("invalid literal")
	}
	d.i += len(lit)
	return nil
}

// null consumes a null if one is next.
func (d *decoder) null() (bool, error) {
	if d.peek() != 'n' {
		return false, nil
	}
	return true, d.literal("null")
}

// open consumes the bracket at d.i and the white space after it, and
// reports whether the container is empty (its close is then consumed
// too).
func (d *decoder) open(close byte) (empty bool) {
	d.i++
	d.ws()
	if d.peek() == close {
		d.i++
		return true
	}
	return false
}

// more consumes what follows an element: a comma (and reports true) or
// the container's close.
func (d *decoder) more(close byte) (bool, error) {
	d.ws()
	switch d.peek() {
	case ',':
		d.i++
		d.ws()
		return true, nil
	case close:
		d.i++
		return false, nil
	}
	return false, d.errorf("want ',' or %q", close)
}

// key consumes `"name" :` and the white space around it.
func (d *decoder) key() (string, error) {
	if d.peek() != '"' {
		return "", d.errorf("want a member name")
	}
	k, err := d.str()
	if err != nil {
		return "", err
	}
	if d.ws(); d.peek() != ':' {
		return "", d.errorf("want ':'")
	}
	d.i++
	d.ws()
	return k, nil
}

// scanString consumes the string literal at d.i, checking it against
// RFC 8259, and reports whether it is plain: no escape and no byte that
// could be part of invalid UTF-8, so that its value is the bytes between
// the quotes.
func (d *decoder) scanString() (plain bool, err error) {
	plain = true
	for i := d.i + 1; i < len(d.s); i++ {
		switch c := d.s[i]; {
		case c == '"':
			d.i = i + 1
			return plain, nil
		case c == '\\':
			plain = false
			if i++; i >= len(d.s) {
				continue // unterminated
			}
			switch d.s[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for n := 0; n < 4; n++ {
					if i++; i >= len(d.s) || !isHex(d.s[i]) {
						d.i = min(i, len(d.s))
						return false, d.errorf(`invalid \u escape`)
					}
				}
			default:
				d.i = i
				return false, d.errorf("invalid escape")
			}
		case c < ' ':
			d.i = i
			return false, d.errorf("control character in string")
		case c >= 0x80:
			plain = false
		}
	}
	d.i = len(d.s)
	return false, d.errorf("unterminated string")
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// str consumes the string literal at d.i and returns its value: a
// substring of the body when the literal is plain, otherwise whatever
// encoding/json makes of it, so that escapes, surrogates and invalid
// UTF-8 mean what they mean to the library.
func (d *decoder) str() (string, error) {
	start := d.i
	plain, err := d.scanString()
	if err != nil {
		return "", err
	}
	if plain {
		return d.s[start+1 : d.i-1], nil
	}
	var v string
	if err := json.Unmarshal(d.raw[start:d.i], &v); err != nil {
		return "", fmt.Errorf("serve: decode: offset %d: %w", start, err)
	}
	return v, nil
}

// number consumes the number literal at d.i and reports whether it is
// an integer literal (no fraction, no exponent).
func (d *decoder) number() (integer bool, err error) {
	digits := func() bool {
		start := d.i
		for '0' <= d.peek() && d.peek() <= '9' {
			d.i++
		}
		return d.i > start
	}
	if d.peek() == '-' {
		d.i++
	}
	if d.peek() == '0' {
		d.i++
	} else if !digits() {
		return false, d.errorf("invalid value")
	}
	integer = true
	if d.peek() == '.' {
		d.i++
		if integer = false; !digits() {
			return false, d.errorf("want a digit after '.'")
		}
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.i++
		if c := d.peek(); c == '+' || c == '-' {
			d.i++
		}
		if integer = false; !digits() {
			return false, d.errorf("want a digit in the exponent")
		}
	}
	return integer, nil
}

// skip consumes one value of any type, checking its syntax. depth is
// the number of containers already open around it.
func (d *decoder) skip(depth int) error {
	switch d.peek() {
	case '"':
		_, err := d.scanString()
		return err
	case '{', '[':
	case 't':
		return d.literal("true")
	case 'f':
		return d.literal("false")
	case 'n':
		return d.literal("null")
	default:
		_, err := d.number()
		return err
	}
	if depth++; depth > maxNesting {
		return d.errorf("nested deeper than %d", maxNesting)
	}
	object := d.s[d.i] == '{'
	close := byte(']')
	if object {
		close = '}'
	}
	for more := !d.open(close); more; {
		if object {
			if d.peek() != '"' {
				return d.errorf("want a member name")
			}
			if _, err := d.scanString(); err != nil {
				return err
			}
			if d.ws(); d.peek() != ':' {
				return d.errorf("want ':'")
			}
			d.i++
			d.ws()
		}
		err := d.skip(depth)
		if err == nil {
			more, err = d.more(close)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// field returns the index in fields of the member called key, as
// encoding/json resolves it, or -1.
func field(fields []string, key string) int {
	for i, f := range fields {
		if key == f {
			return i
		}
	}
	for i, f := range fields {
		if strings.EqualFold(key, f) {
			return i
		}
	}
	return -1
}

var (
	requestFields = []string{"tasks", "repeat", "results"}
	taskFields    = []string{"label", "op", "arg", "consume", "provide", "update"}
)

// request decodes the request object at d.i (nesting depth 1).
func (d *decoder) request(req *GraphRequest) error {
	for more := !d.open('}'); more; {
		k, err := d.key()
		if err != nil {
			return err
		}
		switch field(requestFields, k) {
		case 0:
			req.Tasks, err = d.tasks()
		case 1:
			start, null := d.i, d.peek() == 'n'
			if err = d.int(&req.Repeat); !null {
				d.a.repeat = span{start, d.i}
			}
		case 2:
			req.Results, err = d.names()
		default:
			err = d.skip(1)
		}
		if err == nil {
			more, err = d.more('}')
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// tasks decodes the value of "tasks" into the task arena, from its
// start: an earlier "tasks" of the same request is dead by now.
func (d *decoder) tasks() ([]TaskWire, error) {
	if d.peek() != '[' {
		if null, err := d.null(); null {
			return nil, err
		}
		return nil, d.errorf("tasks: want an array")
	}
	clear(d.a.tasks)
	d.a.tasks, d.a.argAt = d.a.tasks[:0], d.a.argAt[:0]
	for more := !d.open(']'); more; {
		if len(d.a.tasks) == MaxTasks {
			return nil, d.errorf("more than %d tasks", MaxTasks)
		}
		d.a.tasks = append(d.a.tasks, TaskWire{})
		d.a.argAt = append(d.a.argAt, -1)
		err := d.task(&d.a.tasks[len(d.a.tasks)-1])
		if err == nil {
			more, err = d.more(']')
		}
		if err != nil {
			return nil, err
		}
	}
	if len(d.a.tasks) == 0 {
		return []TaskWire{}, nil
	}
	return d.a.tasks[:len(d.a.tasks):len(d.a.tasks)], nil
}

// task decodes one element of "tasks" (nesting depth 3) into *t.
func (d *decoder) task(t *TaskWire) error {
	if d.peek() != '{' {
		if null, err := d.null(); null {
			return err
		}
		return d.errorf("want a task object")
	}
	for more := !d.open('}'); more; {
		k, err := d.key()
		if err != nil {
			return err
		}
		switch field(taskFields, k) {
		case 0:
			err = d.string(&t.Label)
		case 1:
			err = d.string(&t.Op)
		case 2:
			start := d.i
			if err = d.skip(3); err == nil && d.i-start > MaxArgBytes {
				err = d.errorf("arg exceeds %d bytes", MaxArgBytes)
			}
			t.Arg = d.raw[start:d.i:d.i]
			d.a.argAt[len(d.a.argAt)-1] = start
		case 3:
			t.Consume, err = d.names()
		case 4:
			t.Provide, err = d.names()
		case 5:
			t.Update, err = d.names()
		default:
			err = d.skip(3)
		}
		if err == nil {
			more, err = d.more('}')
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// string decodes a string member into *v; null leaves it alone.
func (d *decoder) string(v *string) error {
	if d.peek() != '"' {
		if null, err := d.null(); null {
			return err
		}
		return d.errorf("want a string")
	}
	s, err := d.str()
	if err == nil {
		*v = s
	}
	return err
}

// int decodes an integer member into *v; null leaves it alone.
func (d *decoder) int(v *int) error {
	if null, err := d.null(); null {
		return err
	}
	start := d.i
	if c := d.peek(); c != '-' && (c < '0' || c > '9') {
		return d.errorf("want an integer")
	}
	integer, err := d.number()
	if err != nil {
		return err
	}
	lit := d.s[start:d.i]
	n, err := strconv.ParseInt(lit, 10, strconv.IntSize)
	if !integer || err != nil {
		d.i = start
		return d.errorf("%s is not an integer that fits int", lit)
	}
	*v = int(n)
	return nil
}

// names decodes a list of names into a run of the name arena.
func (d *decoder) names() ([]string, error) {
	if d.peek() != '[' {
		if null, err := d.null(); null {
			return nil, err
		}
		return nil, d.errorf("want an array of names")
	}
	start := len(d.a.names)
	for more := !d.open(']'); more; {
		var s string
		err := d.string(&s)
		if err == nil {
			d.a.names = append(d.a.names, s)
			more, err = d.more(']')
		}
		if err != nil {
			return nil, err
		}
	}
	if start == len(d.a.names) {
		return []string{}, nil
	}
	return d.a.names[start:len(d.a.names):len(d.a.names)], nil
}
