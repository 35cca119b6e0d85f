package textio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"

	"repro/internal/core"
	"repro/internal/table"
)

// jsonBuffers is the pooled working memory of RenderJSON and writeIndented:
// the compact encoding, the encoder writing it, and the indented document.
type jsonBuffers struct {
	compact  bytes.Buffer
	enc      *json.Encoder
	indented []byte
}

var jsonPool = sync.Pool{New: func() any {
	b := new(jsonBuffers)
	b.enc = json.NewEncoder(&b.compact)
	return b
}}

// maxPooledJSON bounds the buffers the renderers keep for reuse, so one
// outsized document does not stay pinned in the pool.
const maxPooledJSON = 4 << 20

// RenderJSON renders v as compact JSON, the bytes a json.Encoder writes,
// trailing newline included, and passes it to emit. It is the rendering of
// the server's responses but the solutions of /v1/schedule, which
// RenderSolution writes. The document lives in pooled memory and is valid
// only until emit returns. An encoding error is returned before emit runs,
// so the caller can still choose what to send instead.
func RenderJSON(v any, emit func(doc []byte) error) error {
	return renderJSON(v, false, emit)
}

// writeIndented writes v in one Write as indented JSON, the rendering every
// document writer of this package shares. The bytes are identical to what a
// json.Encoder with SetIndent("", "  ") writes, trailing newline included:
// encoding/json encodes v compactly, then one pass adds the line breaks and
// indentation json.Indent would add, without re-validating the encoder's
// output.
func writeIndented(w io.Writer, v any) error {
	return renderJSON(v, true, func(doc []byte) error {
		_, err := w.Write(doc)
		return err
	})
}

// renderJSON encodes v into pooled buffers, indents it when asked, and
// passes the document to emit.
func renderJSON(v any, indent bool, emit func(doc []byte) error) error {
	b := jsonPool.Get().(*jsonBuffers)
	defer func() {
		if b.compact.Cap() <= maxPooledJSON && cap(b.indented) <= maxPooledJSON {
			jsonPool.Put(b)
		}
	}()
	b.compact.Reset()
	if err := b.enc.Encode(v); err != nil {
		return fmt.Errorf("textio: %w", err)
	}
	if !indent {
		return emit(b.compact.Bytes())
	}
	b.indented = appendIndent(b.indented[:0], b.compact.Bytes())
	return emit(b.indented)
}

// indentSpaces is a run of spaces appendNewline copies indentation from.
const indentSpaces = "                                "

// appendIndent appends src to dst with the line breaks and two-space
// indentation json.Indent(dst, src, "", "  ") adds. src must be the output
// of encoding/json: valid JSON with no whitespace outside strings, so the
// pass only tracks nesting depth and skips over string literals.
func appendIndent(dst, src []byte) []byte {
	depth := 0
	open := false // a '{' or '[' was just written; an empty one closes on the same line
	for i := 0; i < len(src); i++ {
		c := src[i]
		if open && c != '}' && c != ']' {
			open = false
			depth++
			dst = appendNewline(dst, depth)
		}
		switch c {
		case '"':
			end := stringEnd(src, i)
			dst = append(dst, src[i:end]...)
			i = end - 1
		case '{', '[':
			open = true
			dst = append(dst, c)
		case ',':
			dst = appendNewline(append(dst, c), depth)
		case ':':
			dst = append(dst, ':', ' ')
		case '}', ']':
			if open {
				open = false
			} else {
				depth--
				dst = appendNewline(dst, depth)
			}
			dst = append(dst, c)
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

// stringEnd returns the index just past the string literal whose opening
// quote is src[i] (len(src) if it is unterminated).
func stringEnd(src []byte, i int) int {
	for j := i + 1; ; j++ {
		k := bytes.IndexByte(src[j:], '"')
		if k < 0 {
			return len(src)
		}
		j += k
		// The quote closes the literal unless an odd run of backslashes
		// escapes it; the opening quote bounds the run.
		n := 0
		for src[j-1-n] == '\\' {
			n++
		}
		if n%2 == 0 {
			return j + 1
		}
	}
}

// appendNewline starts a new line indented to the given depth.
func appendNewline(dst []byte, depth int) []byte {
	dst = append(dst, '\n')
	for n := 2 * depth; n > 0; n -= len(indentSpaces) {
		dst = append(dst, indentSpaces[:min(n, len(indentSpaces))]...)
	}
	return dst
}

// bufPool holds the output buffers of RenderSolution and of the problem
// hashes.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// RenderSolution renders the solution document of res, with the cache block
// cache (nil for none), as compact JSON and passes it to emit: the bytes
// AppendSolution appends. It is the rendering of the /v1/schedule responses.
// Like RenderJSON's, the document lives in pooled memory and is valid only
// until emit returns, and an encoding error is returned before emit runs.
func RenderSolution(res *core.Result, cache *CacheDoc, emit func(doc []byte) error) error {
	b := bufPool.Get().(*[]byte)
	defer func() {
		if cap(*b) <= maxPooledJSON {
			bufPool.Put(b)
		}
	}()
	doc, err := AppendSolution((*b)[:0], res, cache)
	*b = doc
	if err != nil {
		return err
	}
	return emit(doc)
}

// AppendSolution appends the compact JSON of the solution document of res,
// with the cache block cache (nil for none), to dst and returns the extended
// buffer. The bytes are those a json.Encoder writes for EncodeSolution(res)
// with its Cache set to cache, trailing newline included, written straight
// from the result: the keys, brackets, integers and booleans directly,
// printable ASCII strings directly but for encoding/json's escapes of <, >
// and &, and every other string, and the one float, through encoding/json.
// Each column heading is formatted and escaped once, for the columns and
// the when of every entry in the column, and the Table-1 text is laid out by
// the table's Layout straight into its JSON string. An encoding error leaves
// dst as it was.
func AppendSolution(dst []byte, res *core.Result, cache *CacheDoc) ([]byte, error) {
	g := res.Graph
	pct, err := json.Marshal(res.IncreasePercent())
	if err != nil {
		return dst, fmt.Errorf("textio: %w", err)
	}
	dst = appendString(append(dst, `{"version":`...), ProblemVersion)
	dst = appendString(append(dst, `,"name":`...), g.Name())
	dst = strconv.AppendInt(append(dst, `,"deltaM":`...), res.DeltaM, 10)
	dst = strconv.AppendInt(append(dst, `,"deltaMax":`...), res.DeltaMax, 10)
	dst = append(append(dst, `,"increasePercent":`...), pct...)
	dst = strconv.AppendBool(append(dst, `,"deterministic":`...), res.Deterministic())
	if len(res.Violations) > 0 {
		dst = append(dst, `,"violations":`...)
		for i, v := range res.Violations {
			dst = appendString(appendSep(dst, i), v.String())
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"paths":`...)
	if len(res.Paths) == 0 {
		dst = append(dst, "null"...)
	} else {
		var label []byte
		for i, p := range res.Paths {
			label = p.Label.AppendFormat(label[:0], g.CondName)
			dst = appendString(append(appendSep(dst, i), `{"label":`...), label)
			dst = strconv.AppendInt(append(dst, `,"optimalDelay":`...), p.OptimalDelay, 10)
			dst = strconv.AppendInt(append(dst, `,"tableDelay":`...), p.TableDelay, 10)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}

	// The table document, as EncodeTable builds it.
	l := res.Table.Layout(table.RenderOptions{Namer: g.CondName, RowName: res.RowName})
	dst = appendString(append(dst, `,"table":{"graph":`...), g.Name())
	if len(l.Cols) == 0 {
		dst = append(dst, `,"columns":null,"entries":null`...)
	} else {
		// Column i is dst[cols[i][0]:cols[i][1]], quotes included; the
		// entries copy it from there.
		cols := make([][2]int, len(l.Cols))
		dst = append(dst, `,"columns":`...)
		for i := range cols {
			dst = appendSep(dst, i)
			cols[i][0] = len(dst)
			dst = appendString(dst, l.Heading(i))
			cols[i][1] = len(dst)
		}
		dst = append(dst, `],"entries":`...)
		n := 0
		for _, k := range res.Table.KeysView() {
			var row [2]int // the row's name in dst, once written
			for _, e := range res.Table.RowView(k) {
				dst = append(appendSep(dst, n), `{"row":`...)
				n++
				if row[1] == 0 {
					row[0] = len(dst)
					dst = appendString(dst, rowName(g, k))
					row[1] = len(dst)
				} else {
					dst = append(dst, dst[row[0]:row[1]]...)
				}
				if k.IsCond {
					dst = append(dst, `,"broadcast":true`...)
				}
				c := cols[l.Pos[e.Expr]]
				dst = append(append(dst, `,"when":`...), dst[c[0]:c[1]]...)
				dst = strconv.AppendInt(append(dst, `,"start":`...), e.Start, 10)
				dst = append(dst, '}')
			}
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `},"tableText":"`...)
	dst = append(l.AppendText(dst, `\n`, appendEscaped[string]), '"')

	s := res.Stats
	for _, f := range [...]struct {
		key string
		v   int64
	}{
		{`,"stats":{"paths":`, int64(s.Paths)},
		{`,"backSteps":`, int64(s.BackSteps)},
		{`,"conflicts":`, int64(s.Conflicts)},
		{`,"conflictsResolved":`, int64(s.ConflictsResolved)},
		{`,"locks":`, int64(s.Locks)},
		{`,"columns":`, int64(s.Columns)},
		{`,"entries":`, int64(s.Entries)},
		{`,"pathSchedulingNs":`, int64(s.PathSchedulingTime)},
		{`,"mergeNs":`, int64(s.MergeTime)},
		{`,"validationNs":`, int64(s.ValidationTime)},
	} {
		dst = strconv.AppendInt(append(dst, f.key...), f.v, 10)
	}
	dst = append(dst, '}')
	if cache != nil {
		dst = strconv.AppendBool(append(dst, `,"cache":{"hit":`...), cache.Hit)
		dst = strconv.AppendInt(append(dst, `,"hits":`...), cache.Hits, 10)
		dst = strconv.AppendInt(append(dst, `,"misses":`...), cache.Misses, 10)
		dst = append(appendString(append(dst, `,"problemHash":`...), cache.ProblemHash), '}')
	}
	return append(dst, '}', '\n'), nil
}

// appendSep appends what precedes element i of a JSON array: the opening
// bracket before the first element, a comma before the others.
func appendSep(dst []byte, i int) []byte {
	if i == 0 {
		return append(dst, '[')
	}
	return append(dst, ',')
}

// appendString appends s as a JSON string, the bytes encoding/json writes
// for it.
func appendString[T string | []byte](dst []byte, s T) []byte {
	return append(appendEscaped(append(dst, '"'), s), '"')
}

// appendEscaped appends s escaped for the inside of a JSON string.
// Printable ASCII without the quote and the backslash goes in as it is,
// but for the escapes encoding/json documents for <, > and &, which
// conjunctions of conditions name; any other string is escaped by
// encoding/json itself.
func appendEscaped[T string | []byte](dst []byte, s T) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' {
			q, _ := json.Marshal(string(s)) // a string always encodes
			return append(dst, q[1:len(q)-1]...)
		}
	}
	done := 0
	for i := 0; i < len(s); i++ {
		if c := s[i]; c == '<' || c == '>' || c == '&' {
			dst = append(append(dst, s[done:i]...), '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			done = i + 1
		}
	}
	return append(dst, s[done:]...)
}

const hexDigits = "0123456789abcdef"
