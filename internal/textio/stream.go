package textio

// This file defines the v1 NDJSON stream format for sweep shards — the one
// shard format, wherever a shard travels or rests: the body of a POST
// /v1/sweep response, the coordinator's per-shard journal file and the
// output of an offline `cpgexper -shard i/N`. A stream is a sequence of
// GraphResultDoc frames, one compact JSON object per newline-terminated
// line:
//
//	{"frame":"header","header":{...}}    exactly once, first
//	{"frame":"graph","graph":{...}}      once per completed graph
//	{"frame":"summary","summary":{...}}  exactly once, last
//	{"frame":"error","error":{...}}      instead of further frames on failure
//
// The header carries the sweep hash, the shard coordinates and the expected
// graph count; the trailing summary repeats the count of graph frames
// actually sent. Decoding is strict line by line (every line must hold
// exactly one frame; unknown fields, trailing data and unknown frame kinds
// are rejected) and coverage is accounted frame by frame: a stream that ends
// without a summary, or whose summary disagrees with the frames before it,
// is a torn stream and fails loudly — a reader can trust that io.EOF from
// Next means the shard arrived whole.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/expr"
)

// Frame kinds of GraphResultDoc.
const (
	FrameHeader  = "header"
	FrameGraph   = "graph"
	FrameSummary = "summary"
	FrameError   = "error"
)

// GraphResultDoc is one frame of a streamed sweep shard: a tagged union
// whose Frame field selects exactly one of the payload pointers.
type GraphResultDoc struct {
	Frame   string            `json:"frame"`
	Header  *StreamHeaderDoc  `json:"header,omitempty"`
	Graph   *SweepGraphDoc    `json:"graph,omitempty"`
	Summary *StreamSummaryDoc `json:"summary,omitempty"`
	Error   *StreamErrorDoc   `json:"error,omitempty"`
}

// StreamHeaderDoc opens a sweep stream: the version, the sweep content hash,
// the shard coordinates and the number of graph frames the stream will carry
// (the shard's coverage).
type StreamHeaderDoc struct {
	Version    string `json:"version"`
	SweepHash  string `json:"sweepHash,omitempty"`
	ShardIndex int    `json:"shardIndex"`
	ShardCount int    `json:"shardCount"`
	Graphs     int    `json:"graphs"`
}

// StreamSummaryDoc closes a sweep stream. Graphs must equal both the
// header's announced count and the number of graph frames actually sent —
// any disagreement marks the stream torn.
type StreamSummaryDoc struct {
	Graphs int `json:"graphs"`
}

// StreamErrorDoc aborts a sweep stream: the server failed after the 200
// header was committed, so the failure travels in-band.
type StreamErrorDoc struct {
	Message string `json:"message"`
}

// EncodeGraphResult renders one graph measurement in document form.
func EncodeGraphResult(g expr.GraphResult) *SweepGraphDoc {
	return &SweepGraphDoc{
		Nodes:       g.Nodes,
		Paths:       g.Paths,
		Index:       g.Index,
		IncreasePct: g.IncreasePct,
		MergeNs:     g.MergeNs,
		PathSchedNs: g.PathSchedNs,
		Violation:   g.Violation,
	}
}

// DecodeGraphResult rebuilds a graph measurement from its document form.
func DecodeGraphResult(d *SweepGraphDoc) expr.GraphResult {
	return expr.GraphResult{
		Nodes:       d.Nodes,
		Paths:       d.Paths,
		Index:       d.Index,
		IncreasePct: d.IncreasePct,
		MergeNs:     d.MergeNs,
		PathSchedNs: d.PathSchedNs,
		Violation:   d.Violation,
	}
}

// marshalFrame renders one frame as a single NDJSON line (compact JSON plus
// a trailing newline), the unit SweepStreamWriter writes.
func marshalFrame(d *GraphResultDoc) ([]byte, error) {
	b, err := json.Marshal(d)
	if err != nil {
		return nil, fmt.Errorf("textio: %w", err)
	}
	return append(b, '\n'), nil
}

// unmarshalFrame parses one NDJSON line back into a frame, strictly
// (unknown fields, trailing data and malformed unions rejected) — the unit
// SweepStreamReader reads.
func unmarshalFrame(line []byte) (*GraphResultDoc, error) {
	var d GraphResultDoc
	if err := readStrict(bytes.NewReader(line), &d); err != nil {
		return nil, err
	}
	if err := validateFrame(&d); err != nil {
		return nil, err
	}
	return &d, nil
}

// validateFrame checks the tagged union: the frame kind must be known and
// exactly the matching payload must be present.
func validateFrame(d *GraphResultDoc) error {
	payloads := 0
	for _, p := range []bool{d.Header != nil, d.Graph != nil, d.Summary != nil, d.Error != nil} {
		if p {
			payloads++
		}
	}
	var want bool
	switch d.Frame {
	case FrameHeader:
		want = d.Header != nil
	case FrameGraph:
		want = d.Graph != nil
	case FrameSummary:
		want = d.Summary != nil
	case FrameError:
		want = d.Error != nil
	default:
		return fmt.Errorf("textio: unknown sweep stream frame %q", d.Frame)
	}
	if !want || payloads != 1 {
		return fmt.Errorf("textio: malformed %q sweep stream frame: exactly the matching payload must be present", d.Frame)
	}
	return nil
}

// SweepStreamWriter emits the frames of one sweep shard stream in order.
// It enforces the protocol shape (header first, exactly one terminal frame)
// and counts graph frames so the summary cannot disagree with the stream.
// Every frame is one Write of one whole line, so a crash mid-write can tear
// at most the last line of a file.
type SweepStreamWriter struct {
	w      io.Writer
	opened bool
	closed bool
	graphs int
}

// NewSweepStreamWriter returns a writer emitting NDJSON frames to w. The
// caller flushes w between frames when streaming over HTTP.
func NewSweepStreamWriter(w io.Writer) *SweepStreamWriter {
	return &SweepStreamWriter{w: w}
}

func (sw *SweepStreamWriter) emit(d *GraphResultDoc) error {
	if sw.closed {
		return fmt.Errorf("textio: sweep stream already closed by a summary or error frame")
	}
	line, err := marshalFrame(d)
	if err != nil {
		return err
	}
	if _, err := sw.w.Write(line); err != nil {
		return fmt.Errorf("textio: %w", err)
	}
	return nil
}

// Header opens the stream: hash and shard coordinates of the request,
// and the number of graph frames to follow.
func (sw *SweepStreamWriter) Header(hash string, shardIndex, shardCount, graphs int) error {
	if sw.opened {
		return fmt.Errorf("textio: sweep stream header already written")
	}
	err := sw.emit(&GraphResultDoc{Frame: FrameHeader, Header: &StreamHeaderDoc{
		Version:    ProblemVersion,
		SweepHash:  hash,
		ShardIndex: shardIndex,
		ShardCount: shardCount,
		Graphs:     graphs,
	}})
	sw.opened = err == nil
	return err
}

// Graph emits one completed graph.
func (sw *SweepStreamWriter) Graph(g expr.GraphResult) error {
	if !sw.opened {
		return fmt.Errorf("textio: sweep stream graph frame before header")
	}
	if err := sw.emit(&GraphResultDoc{Frame: FrameGraph, Graph: EncodeGraphResult(g)}); err != nil {
		return err
	}
	sw.graphs++
	return nil
}

// Summary closes the stream, asserting the count of graph frames sent.
func (sw *SweepStreamWriter) Summary() error {
	if !sw.opened {
		return fmt.Errorf("textio: sweep stream summary before header")
	}
	err := sw.emit(&GraphResultDoc{Frame: FrameSummary, Summary: &StreamSummaryDoc{Graphs: sw.graphs}})
	sw.closed = err == nil
	return err
}

// Error closes the stream with an in-band failure.
func (sw *SweepStreamWriter) Error(msg string) error {
	if !sw.opened {
		return fmt.Errorf("textio: sweep stream error frame before header")
	}
	err := sw.emit(&GraphResultDoc{Frame: FrameError, Error: &StreamErrorDoc{Message: msg}})
	sw.closed = err == nil
	return err
}

// ErrTornStream marks a sweep stream that ended before its summary frame:
// a connection cut mid-shard, or the journal file of an unfinished shard.
var ErrTornStream = errors.New("textio: torn sweep stream")

// maxFrameLine bounds one frame line. A graph frame takes about 150 bytes,
// so only a runaway error message or a hostile peer comes near it.
const maxFrameLine = 64 << 10

// SweepStreamReader consumes the frames of one sweep shard stream,
// validating the protocol shape and the coverage accounting as it goes.
type SweepStreamReader struct {
	br      *bufio.Reader
	header  *StreamHeaderDoc
	summary *StreamSummaryDoc
	graphs  int
	done    bool
}

// NewSweepStreamReader reads and validates the header frame of a sweep
// stream from r.
func NewSweepStreamReader(r io.Reader) (*SweepStreamReader, error) {
	sr := &SweepStreamReader{br: bufio.NewReaderSize(r, maxFrameLine)}
	d, err := sr.nextFrame()
	if err != nil {
		if err == io.EOF {
			return nil, fmt.Errorf("textio: empty sweep stream: EOF before header frame")
		}
		return nil, err
	}
	if d.Frame != FrameHeader {
		return nil, fmt.Errorf("textio: sweep stream starts with a %q frame; want %q", d.Frame, FrameHeader)
	}
	h := d.Header
	if h.Version != ProblemVersion {
		return nil, fmt.Errorf("textio: unsupported sweep stream version %q (this build understands %q)", h.Version, ProblemVersion)
	}
	if h.ShardCount < 1 || h.ShardIndex < 0 || h.ShardIndex >= h.ShardCount {
		return nil, fmt.Errorf("textio: sweep stream header claims shard %d/%d", h.ShardIndex, h.ShardCount)
	}
	if h.Graphs < 0 {
		return nil, fmt.Errorf("textio: sweep stream header announces %d graphs", h.Graphs)
	}
	sr.header = h
	return sr, nil
}

// nextFrame reads one line and decodes it as a frame; io.EOF passes through
// untouched at a line boundary, so callers can tell a clean end from a torn
// or malformed line.
func (sr *SweepStreamReader) nextFrame() (*GraphResultDoc, error) {
	line, err := sr.br.ReadSlice('\n')
	switch {
	case err == io.EOF && len(line) == 0:
		return nil, io.EOF
	case err == io.EOF:
		return nil, fmt.Errorf("%w: unterminated final line", ErrTornStream)
	case err == bufio.ErrBufferFull:
		return nil, fmt.Errorf("textio: sweep stream frame longer than %d bytes", maxFrameLine)
	case err != nil:
		return nil, fmt.Errorf("textio: %w", err)
	}
	return unmarshalFrame(line)
}

// Header returns the validated header frame.
func (sr *SweepStreamReader) Header() *StreamHeaderDoc { return sr.header }

// Summary returns the summary frame, non-nil only after Next reported a
// clean end of stream.
func (sr *SweepStreamReader) Summary() *StreamSummaryDoc { return sr.summary }

// Next returns the next graph of the stream. It returns io.EOF exactly when
// the stream closed cleanly: summary frame present, its count matching both
// the header's announcement and the graph frames received, and nothing
// after it. Every torn or malformed stream — EOF without a summary, a
// count mismatch, frames after the summary — is a loud non-EOF error, and
// an error frame surfaces as an error carrying the remote message.
func (sr *SweepStreamReader) Next() (expr.GraphResult, error) {
	var zero expr.GraphResult
	if sr.done {
		return zero, io.EOF
	}
	d, err := sr.nextFrame()
	if err == io.EOF {
		return zero, fmt.Errorf("%w: EOF after %d of %d graphs without a summary frame",
			ErrTornStream, sr.graphs, sr.header.Graphs)
	}
	if err != nil {
		return zero, err
	}
	switch d.Frame {
	case FrameGraph:
		if sr.graphs++; sr.graphs > sr.header.Graphs {
			return zero, fmt.Errorf("textio: sweep stream carries more than the %d announced graphs", sr.header.Graphs)
		}
		return DecodeGraphResult(d.Graph), nil
	case FrameSummary:
		if d.Summary.Graphs != sr.graphs || sr.graphs != sr.header.Graphs {
			return zero, fmt.Errorf("textio: torn sweep stream: summary claims %d graphs, header announced %d, received %d",
				d.Summary.Graphs, sr.header.Graphs, sr.graphs)
		}
		if _, err := sr.br.ReadByte(); err == nil {
			return zero, fmt.Errorf("textio: sweep stream continues after its summary frame")
		} else if err != io.EOF {
			return zero, fmt.Errorf("textio: %w", err)
		}
		sr.summary = d.Summary
		sr.done = true
		return zero, io.EOF
	case FrameError:
		return zero, fmt.Errorf("textio: sweep stream aborted by server: %s", d.Error.Message)
	default:
		return zero, fmt.Errorf("textio: unexpected %q frame mid-stream", d.Frame)
	}
}

// ReadSweepStream consumes a whole sweep stream, calling onGraph for every
// graph frame, and returns the header and summary on a clean close. Any torn
// or malformed stream returns the header, if it was read, alongside the
// error.
func ReadSweepStream(r io.Reader, onGraph func(expr.GraphResult) error) (*StreamHeaderDoc, *StreamSummaryDoc, error) {
	sr, err := NewSweepStreamReader(r)
	if err != nil {
		return nil, nil, err
	}
	for {
		g, err := sr.Next()
		if err == io.EOF {
			return sr.Header(), sr.Summary(), nil
		}
		if err != nil {
			return sr.Header(), nil, err
		}
		if onGraph != nil {
			if err := onGraph(g); err != nil {
				return sr.Header(), nil, err
			}
		}
	}
}
