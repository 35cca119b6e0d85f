package textio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
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
// the server's responses. The document lives in pooled memory and is valid
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
