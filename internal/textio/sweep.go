package textio

// This file defines the versioned v1 sweep request document of the
// distributed Fig. 5 / Fig. 6 experiment. A SweepRequestDoc asks a server for
// one shard of a sweep; the shard's raw per-graph measurements travel back in
// the NDJSON frame stream of stream.go, so the coordinator can merge them
// into the exact cells of a single-process run. Like the problem
// documents, decoding is strict (unknown fields, unsupported versions,
// out-of-range shard coordinates and malformed parameters are rejected) and
// the encoding is lossless: the wire always carries the fully normalized
// configuration, so a coordinator and its workers can never disagree about
// defaults.

import (
	"fmt"
	"io"
	"slices"

	"repro/internal/expr"
	"repro/internal/memo"
)

// SweepRequestDoc is the versioned request for one shard of a sweep. Seed is
// the literal sweep seed: the coordinator resolves the "unset" default before
// encoding, so a wire seed of 0 is refused.
type SweepRequestDoc struct {
	Version       string `json:"version"`
	Nodes         []int  `json:"nodes"`
	Paths         []int  `json:"paths"`
	GraphsPerCell int    `json:"graphsPerCell"`
	Seed          int64  `json:"seed"`
	ShardIndex    int    `json:"shardIndex"`
	ShardCount    int    `json:"shardCount"`
	// Workers is the wished-for shard parallelism, in graphs scheduled at
	// once; it is advisory under a service (the global worker budget
	// clamps it) and excluded from the content hash.
	Workers int         `json:"workers,omitempty"`
	Options *OptionsDoc `json:"options,omitempty"`
}

// EncodeSweepRequest renders a sweep configuration in document form. The
// config is normalized first, so the document always spells out the concrete
// nodes, paths, graph count and seed — re-encoding a decoded request
// reproduces it byte for byte.
func EncodeSweepRequest(cfg expr.SweepConfig) *SweepRequestDoc {
	cfg = cfg.Normalize()
	return &SweepRequestDoc{
		Version:       ProblemVersion,
		Nodes:         slices.Clone(cfg.Nodes),
		Paths:         slices.Clone(cfg.Paths),
		GraphsPerCell: cfg.GraphsPerCell,
		Seed:          cfg.Seed,
		ShardIndex:    cfg.ShardIndex,
		ShardCount:    cfg.ShardCount,
		Workers:       cfg.Workers,
		Options:       EncodeOptions(cfg.Options),
	}
}

// DecodeSweepRequest validates a sweep request document and converts it into
// an expr.SweepConfig. A wire seed of 0 is refused: a later Normalize would
// silently substitute the default seed, and the document is authoritative.
func DecodeSweepRequest(d *SweepRequestDoc) (expr.SweepConfig, error) {
	var cfg expr.SweepConfig
	if d.Version != ProblemVersion {
		return cfg, fmt.Errorf("textio: unsupported sweep version %q (this build understands %q)", d.Version, ProblemVersion)
	}
	if len(d.Nodes) == 0 || len(d.Paths) == 0 {
		return cfg, fmt.Errorf("textio: sweep request must list nodes and paths explicitly")
	}
	seenN := map[int]bool{}
	for _, n := range d.Nodes {
		if n <= 0 {
			return cfg, fmt.Errorf("textio: sweep nodes must be > 0; got %d", n)
		}
		if seenN[n] {
			return cfg, fmt.Errorf("textio: duplicate sweep nodes value %d", n)
		}
		seenN[n] = true
	}
	seenP := map[int]bool{}
	for _, p := range d.Paths {
		if p <= 0 {
			return cfg, fmt.Errorf("textio: sweep paths must be > 0; got %d", p)
		}
		if seenP[p] {
			return cfg, fmt.Errorf("textio: duplicate sweep paths value %d", p)
		}
		seenP[p] = true
	}
	if d.GraphsPerCell <= 0 {
		return cfg, fmt.Errorf("textio: sweep graphsPerCell must be > 0; got %d", d.GraphsPerCell)
	}
	if d.Seed == 0 {
		return cfg, fmt.Errorf("textio: sweep seed must be nonzero (an unset seed encodes as the default %d)", expr.DefaultSeed)
	}
	if d.ShardCount < 1 {
		return cfg, fmt.Errorf("textio: sweep shardCount must be >= 1; got %d", d.ShardCount)
	}
	if d.ShardIndex < 0 || d.ShardIndex >= d.ShardCount {
		return cfg, fmt.Errorf("textio: sweep shardIndex %d out of range [0, %d)", d.ShardIndex, d.ShardCount)
	}
	if d.Workers < 0 {
		return cfg, fmt.Errorf("textio: sweep workers must be >= 0 (0 = all CPUs); got %d", d.Workers)
	}
	opts, err := DecodeOptions(d.Options)
	if err != nil {
		return cfg, err
	}
	cfg = expr.SweepConfig{
		Nodes:         slices.Clone(d.Nodes),
		Paths:         slices.Clone(d.Paths),
		GraphsPerCell: d.GraphsPerCell,
		Seed:          d.Seed,
		Workers:       d.Workers,
		Options:       opts,
		ShardIndex:    d.ShardIndex,
		ShardCount:    d.ShardCount,
	}
	return cfg, nil
}

// ReadSweepRequest parses a v1 sweep request, rejecting unknown fields,
// unsupported versions, out-of-range shard coordinates, malformed parameters
// and trailing data. It returns both the document and its decoded
// configuration (validation is the decode), so callers never parse twice.
func ReadSweepRequest(r io.Reader) (*SweepRequestDoc, expr.SweepConfig, error) {
	var d SweepRequestDoc
	if err := readStrict(r, &d); err != nil {
		return nil, expr.SweepConfig{}, err
	}
	cfg, err := DecodeSweepRequest(&d)
	if err != nil {
		return nil, cfg, err
	}
	return &d, cfg, nil
}

// WriteSweepRequest writes a sweep request as indented JSON.
func WriteSweepRequest(w io.Writer, d *SweepRequestDoc) error {
	return writeIndented(w, d)
}

// SweepHash returns the content hash identifying the sweep a request belongs
// to: the sha256 of the canonical JSON encoding with the execution knobs —
// Workers and the shard coordinates — cleared, because none of them change
// the per-graph results. Every shard of one sweep therefore shares one hash:
// it opens every shard stream, names the sweep's journal directory and lets
// -merge reject a shard of another sweep.
func SweepHash(d *SweepRequestDoc) (string, error) {
	c := *d
	c.Workers = 0
	c.ShardIndex = 0
	c.ShardCount = 0
	return memo.HashJSON(&c)
}
