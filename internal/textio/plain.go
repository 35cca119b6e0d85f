package textio

// This file holds the one-pass codec of problem documents in their plain
// form, the form this package's writers and json.Marshal produce:
// parsePlain, the byte parser ReadProblem tries before encoding/json, and
// appendProblem, the writer of the canonical document the problem hashes
// are taken over.

import (
	"bytes"
	"encoding/json"
	"strconv"
)

// The keys of each object of a problem document, in the order of the
// fields of its type.
var (
	problemKeys = []string{"version", "name", "condTime", "processingElements", "conditions", "processes", "edges", "options"}
	peKeys      = []string{"name", "kind", "speed", "connectsAll"}
	condKeys    = []string{"name", "decider"}
	procKeys    = []string{"name", "kind", "exec", "pe"}
	edgeKeys    = []string{"from", "to", "condition", "value"}
	optionsKeys = []string{"selection", "priority", "conflicts", "strategy", "tabuIterations", "tabuNeighbors", "maxPaths", "workers"}
)

// parsePlain parses data as a problem document in plain form and returns
// the document encoding/json decodes from it, or nil if data is not in that
// form. Plain means: each object holds only its type's exact keys, each at
// most once; every string is printable ASCII without escapes; integers are
// plain and fit their field; the speed is a plain decimal; and the booleans
// are true and false. The parser never says why it stops: ReadProblem
// hands every input it declines to encoding/json, which decides each
// rejection and its error text. The document's strings are copies, so none
// aliases data.
func parsePlain(data []byte) *ProblemDoc {
	p := &parser{data: data}
	d := new(ProblemDoc)
	ok := p.object(problemKeys, &d.Version, &d.Name, &d.CondTime,
		func() bool {
			return array(p, &d.Elements, func(pe *PEDoc) bool {
				return p.object(peKeys, &pe.Name, &pe.Kind, &pe.Speed, &pe.ConnectsAll)
			})
		},
		func() bool {
			return array(p, &d.Conditions, func(c *CondDoc) bool {
				return p.object(condKeys, &c.Name, &c.Decider)
			})
		},
		func() bool {
			return array(p, &d.Processes, func(q *ProcDoc) bool {
				return p.object(procKeys, &q.Name, &q.Kind, &q.Exec, &q.PE)
			})
		},
		func() bool {
			return array(p, &d.Edges, func(e *EdgeDoc) bool {
				return p.object(edgeKeys, &e.From, &e.To, &e.Condition, &e.Value)
			})
		},
		func() bool {
			o := new(OptionsDoc)
			d.Options = o
			return p.object(optionsKeys, &o.Selection, &o.Priority, &o.Conflicts, &o.Strategy,
				&o.TabuIterations, &o.TabuNeighbors, &o.MaxPaths, &o.Workers)
		})
	if !ok || p.ws() != len(data) {
		return nil
	}
	return d
}

// parser is the state of parsePlain: the document and the read position.
type parser struct {
	data []byte
	i    int
}

// ws skips JSON whitespace and returns the position after it.
func (p *parser) ws() int {
	for p.i < len(p.data) {
		switch p.data[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return p.i
		}
	}
	return p.i
}

// skip consumes c, after whitespace, if it comes next.
func (p *parser) skip(c byte) bool {
	if p.ws() < len(p.data) && p.data[p.i] == c {
		p.i++
		return true
	}
	return false
}

// object parses an object whose keys are among keys, each at most once,
// and stores the value of keys[k] through dst[k]: a *string, *int64, *int,
// *float64 or *bool, or a func() bool that parses the value itself.
func (p *parser) object(keys []string, dst ...any) bool {
	if !p.skip('{') {
		return false
	}
	if p.skip('}') {
		return true
	}
	var seen uint
	for {
		key, ok := p.str()
		k := 0
		for k < len(keys) && string(key) != keys[k] {
			k++
		}
		if !ok || k == len(keys) || seen&(1<<k) != 0 || !p.skip(':') || !p.value(dst[k]) {
			return false
		}
		seen |= 1 << k
		if !p.skip(',') {
			return p.skip('}')
		}
	}
}

// value parses one value into dst, as object describes it.
func (p *parser) value(dst any) bool {
	switch v := dst.(type) {
	case *string:
		s, ok := p.str()
		*v = string(s)
		return ok
	case *int64:
		s, ok := p.number(false)
		n, err := strconv.ParseInt(string(s), 10, 64)
		*v = n
		return ok && err == nil
	case *int:
		s, ok := p.number(false)
		n, err := strconv.ParseInt(string(s), 10, strconv.IntSize)
		*v = int(n)
		return ok && err == nil
	case *float64:
		s, ok := p.number(true)
		if !ok {
			return false
		}
		f, err := strconv.ParseFloat(string(s), 64)
		*v = f
		return err == nil
	case *bool:
		p.ws()
		for _, lit := range [...]string{"false", "true"} {
			if bytes.HasPrefix(p.data[p.i:], []byte(lit)) {
				p.i += len(lit)
				*v = lit == "true"
				return true
			}
		}
		return false
	case func() bool:
		return v()
	}
	return false
}

// array parses an array of objects into *s, each element by elem. Like
// encoding/json, it leaves an empty array as an empty slice, not nil.
func array[T any](p *parser, s *[]T, elem func(*T) bool) bool {
	if !p.skip('[') {
		return false
	}
	*s = []T{}
	if p.skip(']') {
		return true
	}
	for {
		var zero T
		*s = append(*s, zero)
		if !elem(&(*s)[len(*s)-1]) {
			return false
		}
		if !p.skip(',') {
			return p.skip(']')
		}
	}
}

// str parses a string of printable ASCII without escapes and returns its
// bytes, which alias the document.
func (p *parser) str() ([]byte, bool) {
	if !p.skip('"') {
		return nil, false
	}
	for start := p.i; p.i < len(p.data); p.i++ {
		switch c := p.data[p.i]; {
		case c == '"':
			p.i++
			return p.data[start : p.i-1], true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// number parses a plain decimal, an optional minus and an integer part
// without leading zeros, followed, where frac allows it, by an optional
// fraction, and returns its text.
func (p *parser) number(frac bool) ([]byte, bool) {
	start := p.ws()
	if p.i < len(p.data) && p.data[p.i] == '-' {
		p.i++
	}
	lead := p.i
	if n := p.digits(); n == 0 || n > 1 && p.data[lead] == '0' {
		return nil, false
	}
	if frac && p.i < len(p.data) && p.data[p.i] == '.' {
		p.i++
		if p.digits() == 0 {
			return nil, false
		}
	}
	return p.data[start:p.i], true
}

// digits skips a run of decimal digits and returns its length.
func (p *parser) digits() int {
	start := p.i
	for p.i < len(p.data) && '0' <= p.data[p.i] && p.data[p.i] <= '9' {
		p.i++
	}
	return p.i - start
}

// appendProblem appends to dst the bytes json.Marshal writes for d with
// options.workers cleared and, when shape is set, every execution time
// cleared too: the canonical document of the problem hashes. Strings go
// through appendString, and the one float through encoding/json, whose
// error for a speed it refuses is returned.
func appendProblem(dst []byte, d *ProblemDoc, shape bool) ([]byte, error) {
	var err error
	dst = appendString(append(dst, `{"version":`...), d.Version)
	dst = appendString(append(dst, `,"name":`...), d.Name)
	if d.CondTime != 0 {
		dst = strconv.AppendInt(append(dst, `,"condTime":`...), d.CondTime, 10)
	}
	dst = appendArray(append(dst, `,"processingElements":`...), d.Elements, func(dst []byte, pe *PEDoc) []byte {
		dst = appendString(append(dst, `{"name":`...), pe.Name)
		dst = appendString(append(dst, `,"kind":`...), pe.Kind)
		if pe.Speed != 0 {
			speed, e := json.Marshal(pe.Speed)
			if e != nil {
				err = e
			}
			dst = append(append(dst, `,"speed":`...), speed...)
		}
		if pe.ConnectsAll {
			dst = append(dst, `,"connectsAll":true`...)
		}
		return append(dst, '}')
	})
	if len(d.Conditions) > 0 {
		dst = appendArray(append(dst, `,"conditions":`...), d.Conditions, func(dst []byte, c *CondDoc) []byte {
			dst = appendString(append(dst, `{"name":`...), c.Name)
			return append(appendString(append(dst, `,"decider":`...), c.Decider), '}')
		})
	}
	dst = appendArray(append(dst, `,"processes":`...), d.Processes, func(dst []byte, q *ProcDoc) []byte {
		dst = appendString(append(dst, `{"name":`...), q.Name)
		if q.Kind != "" {
			dst = appendString(append(dst, `,"kind":`...), q.Kind)
		}
		if q.Exec != 0 && !shape {
			dst = strconv.AppendInt(append(dst, `,"exec":`...), q.Exec, 10)
		}
		if q.PE != "" {
			dst = appendString(append(dst, `,"pe":`...), q.PE)
		}
		return append(dst, '}')
	})
	dst = appendArray(append(dst, `,"edges":`...), d.Edges, func(dst []byte, e *EdgeDoc) []byte {
		dst = appendString(append(dst, `{"from":`...), e.From)
		dst = appendString(append(dst, `,"to":`...), e.To)
		if e.Condition != "" {
			dst = appendString(append(dst, `,"condition":`...), e.Condition)
		}
		if e.Value {
			dst = append(dst, `,"value":true`...)
		}
		return append(dst, '}')
	})
	if o := d.Options; o != nil {
		// Each field goes in after a comma; the first comma becomes the
		// object's opening brace.
		dst = append(dst, `,"options":`...)
		start := len(dst)
		for _, f := range [...]struct{ key, v string }{
			{`,"selection":`, o.Selection}, {`,"priority":`, o.Priority},
			{`,"conflicts":`, o.Conflicts}, {`,"strategy":`, o.Strategy},
		} {
			if f.v != "" {
				dst = appendString(append(dst, f.key...), f.v)
			}
		}
		for _, f := range [...]struct {
			key string
			v   int
		}{{`,"tabuIterations":`, o.TabuIterations}, {`,"tabuNeighbors":`, o.TabuNeighbors}, {`,"maxPaths":`, o.MaxPaths}} {
			if f.v != 0 {
				dst = strconv.AppendInt(append(dst, f.key...), int64(f.v), 10)
			}
		}
		if len(dst) == start {
			dst = append(dst, '{')
		} else {
			dst[start] = '{'
		}
		dst = append(dst, '}')
	}
	return append(dst, '}'), err
}

// appendArray appends s as a JSON array, each element by elem, and a nil s
// as null.
func appendArray[T any](dst []byte, s []T, elem func([]byte, *T) []byte) []byte {
	switch {
	case s == nil:
		return append(dst, "null"...)
	case len(s) == 0:
		return append(dst, "[]"...)
	}
	for i := range s {
		dst = elem(appendSep(dst, i), &s[i])
	}
	return append(dst, ']')
}
