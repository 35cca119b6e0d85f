// Package textio is a strictdecode fixture named after the real codec
// package.
//
// Regression notes: on first run the analyzer confirmed the tree's only
// non-helper decode was ReadProblemOrLegacy's version probe, which must
// tolerate unknown fields by design — it carries the documented allow that
// ProbeAllowed below mirrors.
package textio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

type doc struct {
	Version string `json:"version"`
}

// LooseUnmarshal decodes wire input without the strict helper: unknown
// fields and trailing garbage pass silently.
func LooseUnmarshal(data []byte) (*doc, error) {
	var d doc
	if err := json.Unmarshal(data, &d); err != nil { // want "json.Unmarshal bypasses readStrict"
		return nil, err
	}
	return &d, nil
}

// LooseDecoder builds its own decoder and forgets DisallowUnknownFields.
func LooseDecoder(r io.Reader) (*doc, error) {
	var d doc
	dec := json.NewDecoder(r) // want "json.NewDecoder outside readStrict"
	if err := dec.Decode(&d); err != nil {
		return nil, err
	}
	return &d, nil
}

// readStrict is the one function allowed to construct a decoder: it is the
// shared strict-decoding discipline itself.
func readStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("trailing data after document")
	}
	return nil
}

// ReadDoc routes through readStrict; not flagged.
func ReadDoc(r io.Reader) (*doc, error) {
	var d doc
	if err := readStrict(r, &d); err != nil {
		return nil, err
	}
	return &d, nil
}

// ProbeAllowed mirrors the tree's legacy-format version probe: it must
// tolerate unknown fields (it reads one field out of an arbitrary document),
// so the bypass is documented instead of rewritten.
func ProbeAllowed(data []byte) (string, error) {
	var probe struct {
		Version string `json:"version"`
	}
	//lint:allow strictdecode version probe reads one field of an arbitrary document; the full strict read follows
	if err := json.Unmarshal(data, &probe); err != nil {
		return "", err
	}
	_ = bytes.NewReader
	return probe.Version, nil
}

// newStreamDecoder is not on the except list, which holds readStrict alone:
// a strict-looking decoder helper of any other name is flagged.
func newStreamDecoder(r io.Reader) *json.Decoder {
	dec := json.NewDecoder(r) // want "json.NewDecoder outside readStrict"
	dec.DisallowUnknownFields()
	return dec
}

type frameReader struct{}

// readStrict as a METHOD is not the helper: the except list only admits
// top-level functions.
func (frameReader) readStrict(r io.Reader) *json.Decoder {
	return json.NewDecoder(r) // want "json.NewDecoder outside readStrict"
}
