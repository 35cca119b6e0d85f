package textio

// This file defines the v1 NDJSON stream format for sweep shards — the one
// shard format, wherever a shard travels or rests: the body of a POST
// /v1/sweep response, the coordinator's per-shard journal file and the
// output of an offline `cpgexper -shard i/N`. A stream is a sequence of
// GraphResultDoc frames, one compact JSON object per newline-terminated
// line:
//
//	{"frame":"header","header":{...}}    exactly once, first
//	{"frame":"graph","graph":{...}}      once per graph of the shard
//	{"frame":"summary","summary":{...}}  exactly once, last
//	{"frame":"error","error":{...}}      instead of further frames on failure
//
// The header carries the sweep hash, the shard coordinates and the shard's
// graph count; the trailing summary repeats the count of graph frames
// actually sent. WriteShard is the one writer and ReadShard the one reader:
// every check of a shard's bytes is made in ReadShard, where the bytes enter
// the program, so a server response, a journal file and a -merge input are
// held to the same rules.

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

// GraphResultDoc is one frame of a sweep shard stream: a tagged union whose
// Frame field selects exactly one of the payload pointers. A graph frame
// carries the raw measurement of one graph; its floats round-trip exactly
// through JSON (shortest-representation encoding), which is what lets a
// coordinator reproduce the single-process aggregation bit for bit.
type GraphResultDoc struct {
	Frame   string            `json:"frame"`
	Header  *StreamHeaderDoc  `json:"header,omitempty"`
	Graph   *expr.GraphResult `json:"graph,omitempty"`
	Summary *StreamSummaryDoc `json:"summary,omitempty"`
	Error   *StreamErrorDoc   `json:"error,omitempty"`
}

// StreamHeaderDoc opens a sweep stream: the version, the sweep content hash,
// the shard coordinates and the number of graph frames the stream will carry
// (the shard's size).
type StreamHeaderDoc struct {
	Version    string `json:"version"`
	SweepHash  string `json:"sweepHash,omitempty"`
	ShardIndex int    `json:"shardIndex"`
	ShardCount int    `json:"shardCount"`
	Graphs     int    `json:"graphs"`
}

// StreamSummaryDoc closes a sweep stream. Graphs must equal both the
// header's announced count and the number of graph frames actually sent.
type StreamSummaryDoc struct {
	Graphs int `json:"graphs"`
}

// StreamErrorDoc aborts a sweep stream: the writer failed after the header
// was committed, so the failure travels in-band.
type StreamErrorDoc struct {
	Message string `json:"message"`
}

// WriteShard writes the frame stream of cfg's shard of the sweep whose
// content hash is hash: the header, one graph frame per graph that run
// passes to yield, then the summary — or, when run fails, an error frame
// carrying its message. run must not call yield concurrently. Every frame is
// one Write of one whole line, so a crash mid-write tears at most the last
// line of a file, and w is flushed after each frame when it has a Flush
// method (an HTTP response). A failed write makes yield, and WriteShard,
// return the write error.
func WriteShard(w io.Writer, hash string, cfg expr.SweepConfig, run func(yield func(expr.GraphResult) error) error) error {
	cfg = cfg.Normalize()
	fl, _ := w.(interface{ Flush() })
	emit := func(d *GraphResultDoc) error {
		line, err := json.Marshal(d)
		if err != nil {
			return fmt.Errorf("textio: %w", err)
		}
		if _, err := w.Write(append(line, '\n')); err != nil {
			return fmt.Errorf("textio: %w", err)
		}
		if fl != nil {
			fl.Flush()
		}
		return nil
	}
	if err := emit(&GraphResultDoc{Frame: FrameHeader, Header: &StreamHeaderDoc{
		Version:    ProblemVersion,
		SweepHash:  hash,
		ShardIndex: cfg.ShardIndex,
		ShardCount: cfg.ShardCount,
		Graphs:     cfg.ShardSize(),
	}}); err != nil {
		return err
	}
	graphs := 0
	err := run(func(g expr.GraphResult) error {
		if err := emit(&GraphResultDoc{Frame: FrameGraph, Graph: &g}); err != nil {
			return err
		}
		graphs++
		return nil
	})
	if err != nil {
		// Best effort: the reader may be the reason run failed.
		_ = emit(&GraphResultDoc{Frame: FrameError, Error: &StreamErrorDoc{Message: err.Error()}})
		return err
	}
	return emit(&GraphResultDoc{Frame: FrameSummary, Summary: &StreamSummaryDoc{Graphs: graphs}})
}

// ErrTornStream marks a sweep stream that ended before its summary frame:
// a connection cut mid-shard, or the journal file of an unfinished shard.
var ErrTornStream = errors.New("textio: torn sweep stream")

// maxFrameLine bounds one frame line. A graph frame takes about 150 bytes,
// so only a runaway error message or a hostile peer comes near it.
const maxFrameLine = 64 << 10

// ReadShard reads one shard of sweep, the sweep whose content hash is hash,
// from its frame stream and returns it with its results in canonical order.
// It checks:
//   - at the header, the version and the sweep hash, and that the graph
//     count is the size of the shard the header names (sweep's own shard
//     coordinates are ignored);
//   - that every graph frame carries a distinct graph of that shard, before
//     yield (when non-nil) sees it;
//   - that the summary closes the stream with the count of graphs received,
//     and nothing follows it.
//
// A stream that ends before its summary frame returns an error wrapping
// ErrTornStream; an error frame returns the writer's message; any other
// damage is a plain error. The header's shard coordinates come back in the
// result, for the caller to compare with the ones it expects.
func ReadShard(r io.Reader, hash string, sweep expr.SweepConfig, yield func(expr.GraphResult) error) (*expr.ShardResult, error) {
	br := bufio.NewReaderSize(r, maxFrameLine)
	d, err := nextFrame(br)
	if err == io.EOF {
		return nil, fmt.Errorf("%w: EOF before the header frame", ErrTornStream)
	}
	if err != nil {
		return nil, err
	}
	if d.Frame != FrameHeader {
		return nil, fmt.Errorf("textio: sweep stream starts with a %q frame; want %q", d.Frame, FrameHeader)
	}
	h := d.Header
	switch {
	case h.Version != ProblemVersion:
		return nil, fmt.Errorf("textio: unsupported sweep stream version %q (this build understands %q)", h.Version, ProblemVersion)
	// Coordinate overlap alone cannot tell a shard of another seed or other
	// options apart, so a stream without a hash is as foreign as one with
	// another hash.
	case h.SweepHash == "":
		return nil, fmt.Errorf("textio: sweep stream carries no sweepHash; cannot verify it belongs to sweep %s", hash)
	case h.SweepHash != hash:
		return nil, fmt.Errorf("textio: sweep stream belongs to another sweep (hash %s, want %s)", h.SweepHash, hash)
	case h.ShardCount < 1 || h.ShardIndex < 0 || h.ShardIndex >= h.ShardCount:
		return nil, fmt.Errorf("textio: sweep stream header claims shard %d/%d", h.ShardIndex, h.ShardCount)
	}
	sweep.ShardIndex, sweep.ShardCount = h.ShardIndex, h.ShardCount
	keys := sweep.ShardGraphs()
	if h.Graphs != len(keys) {
		return nil, fmt.Errorf("textio: sweep stream header announces %d graphs; shard %d/%d has %d",
			h.Graphs, h.ShardIndex, h.ShardCount, len(keys))
	}
	slot := make(map[expr.GraphKey]int, len(keys))
	for i, k := range keys {
		slot[k] = i
	}
	sh := &expr.ShardResult{ShardIndex: h.ShardIndex, ShardCount: h.ShardCount, Results: make([]expr.GraphResult, len(keys))}
	seen := make([]bool, len(keys))
	received := 0
	for {
		d, err := nextFrame(br)
		if err == io.EOF {
			return nil, fmt.Errorf("%w: EOF after %d of %d graphs without a summary frame", ErrTornStream, received, h.Graphs)
		}
		if err != nil {
			return nil, err
		}
		switch d.Frame {
		case FrameGraph:
			g := *d.Graph
			i, ok := slot[g.Key()]
			switch {
			case !ok:
				return nil, fmt.Errorf("textio: sweep stream graph (%d nodes, %d paths, index %d) is outside shard %d/%d",
					g.Nodes, g.Paths, g.Index, h.ShardIndex, h.ShardCount)
			case seen[i]:
				return nil, fmt.Errorf("textio: sweep stream repeats graph (%d nodes, %d paths, index %d)", g.Nodes, g.Paths, g.Index)
			}
			seen[i] = true
			sh.Results[i] = g
			received++
			if yield != nil {
				if err := yield(g); err != nil {
					return nil, err
				}
			}
		case FrameSummary:
			if d.Summary.Graphs != received || received != h.Graphs {
				return nil, fmt.Errorf("textio: sweep stream summary claims %d graphs, header announced %d, received %d",
					d.Summary.Graphs, h.Graphs, received)
			}
			if _, err := br.ReadByte(); err == nil {
				return nil, fmt.Errorf("textio: sweep stream continues after its summary frame")
			} else if err != io.EOF {
				return nil, fmt.Errorf("textio: %w", err)
			}
			return sh, nil
		case FrameError:
			return nil, fmt.Errorf("textio: sweep stream aborted by its writer: %s", d.Error.Message)
		default:
			return nil, fmt.Errorf("textio: unexpected %q frame mid-stream", d.Frame)
		}
	}
}

// nextFrame reads one line and decodes it as a frame; io.EOF passes through
// untouched at a line boundary, so callers can tell a clean end from a torn
// or malformed line.
func nextFrame(br *bufio.Reader) (*GraphResultDoc, error) {
	line, err := br.ReadSlice('\n')
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

// unmarshalFrame parses one NDJSON line into a frame, strictly: unknown
// fields, trailing data and malformed unions are rejected.
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
