package textio

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/expr"
)

func testSweepConfig() expr.SweepConfig {
	return expr.SweepConfig{
		Nodes:         []int{40, 60},
		Paths:         []int{10, 12},
		GraphsPerCell: 2,
		Seed:          1998,
		Workers:       3,
		ShardIndex:    1,
		ShardCount:    3,
		Options:       core.Options{Strategy: "tabu"},
	}
}

// TestSweepRequestRoundTrip pins the lossless round-trip: encode → write →
// read → decode → encode reproduces the document exactly, and the decoded
// config drives the same sweep as the original.
func TestSweepRequestRoundTrip(t *testing.T) {
	doc := EncodeSweepRequest(testSweepConfig())
	var buf bytes.Buffer
	if err := WriteSweepRequest(&buf, doc); err != nil {
		t.Fatalf("WriteSweepRequest: %v", err)
	}
	read, _, err := ReadSweepRequest(&buf)
	if err != nil {
		t.Fatalf("ReadSweepRequest: %v", err)
	}
	if !reflect.DeepEqual(read, doc) {
		t.Fatalf("document drifted through write/read:\n%+v\nvs\n%+v", read, doc)
	}
	cfg, err := DecodeSweepRequest(read)
	if err != nil {
		t.Fatalf("DecodeSweepRequest: %v", err)
	}
	again := EncodeSweepRequest(cfg)
	if !reflect.DeepEqual(again, doc) {
		t.Fatalf("encode/decode not lossless:\n%+v\nvs\n%+v", again, doc)
	}
}

// TestSweepRequestSeedZero pins the seed contract on the wire: a
// coordinator-side unset seed is resolved to the default before it reaches
// the wire, so no encoder writes 0, and a document seed of 0 is refused
// rather than read as the default — the two ends can never disagree.
func TestSweepRequestSeedZero(t *testing.T) {
	unset := EncodeSweepRequest(expr.SweepConfig{GraphsPerCell: 1})
	if unset.Seed != expr.DefaultSeed {
		t.Errorf("unset seed must encode as the default %d; got %d", expr.DefaultSeed, unset.Seed)
	}
	zero := *unset
	zero.Seed = 0
	if _, err := DecodeSweepRequest(&zero); err == nil || !strings.Contains(err.Error(), "seed must be nonzero") {
		t.Errorf("wire seed 0 must be refused; got %v", err)
	}
}

// TestSweepRequestRejects covers the strict validation of the request
// reader.
func TestSweepRequestRejects(t *testing.T) {
	for name, body := range map[string]string{
		"not json":        "{",
		"unknown field":   `{"version":"v1","bogus":1}`,
		"wrong version":   `{"version":"v2","nodes":[40],"paths":[10],"graphsPerCell":1,"seed":1,"shardIndex":0,"shardCount":1}`,
		"no nodes":        `{"version":"v1","nodes":[],"paths":[10],"graphsPerCell":1,"seed":1,"shardIndex":0,"shardCount":1}`,
		"bad node":        `{"version":"v1","nodes":[-4],"paths":[10],"graphsPerCell":1,"seed":1,"shardIndex":0,"shardCount":1}`,
		"bad paths":       `{"version":"v1","nodes":[40],"paths":[0],"graphsPerCell":1,"seed":1,"shardIndex":0,"shardCount":1}`,
		"no graphs":       `{"version":"v1","nodes":[40],"paths":[10],"graphsPerCell":0,"seed":1,"shardIndex":0,"shardCount":1}`,
		"bad shard count": `{"version":"v1","nodes":[40],"paths":[10],"graphsPerCell":1,"seed":1,"shardIndex":0,"shardCount":0}`,
		"shard index low": `{"version":"v1","nodes":[40],"paths":[10],"graphsPerCell":1,"seed":1,"shardIndex":-1,"shardCount":2}`,
		"shard index big": `{"version":"v1","nodes":[40],"paths":[10],"graphsPerCell":1,"seed":1,"shardIndex":2,"shardCount":2}`,
		"neg workers":     `{"version":"v1","nodes":[40],"paths":[10],"graphsPerCell":1,"seed":1,"shardIndex":0,"shardCount":1,"workers":-1}`,
		"bad strategy":    `{"version":"v1","nodes":[40],"paths":[10],"graphsPerCell":1,"seed":1,"shardIndex":0,"shardCount":1,"options":{"strategy":"bogus"}}`,
		"trailing data":   `{"version":"v1","nodes":[40],"paths":[10],"graphsPerCell":1,"seed":1,"shardIndex":0,"shardCount":1} {}`,
		"dup nodes":       `{"version":"v1","nodes":[40,40],"paths":[10],"graphsPerCell":1,"seed":1,"shardIndex":0,"shardCount":1}`,
		"dup paths":       `{"version":"v1","nodes":[40],"paths":[10,10],"graphsPerCell":1,"seed":1,"shardIndex":0,"shardCount":1}`,
		"zero seed":       `{"version":"v1","nodes":[40],"paths":[10],"graphsPerCell":1,"seed":0,"shardIndex":0,"shardCount":1}`,
	} {
		if _, _, err := ReadSweepRequest(strings.NewReader(body)); err == nil {
			t.Errorf("%s: must be rejected", name)
		}
	}
}

// TestSweepHashExcludesExecutionKnobs pins the memo contract: the hash
// identifies the sweep content, so shard coordinates and worker counts do
// not change it — while everything result-shaping (seed, sizes, options)
// does.
func TestSweepHashExcludesExecutionKnobs(t *testing.T) {
	base := testSweepConfig()
	hash := func(cfg expr.SweepConfig) string {
		t.Helper()
		h, err := SweepHash(EncodeSweepRequest(cfg))
		if err != nil {
			t.Fatalf("SweepHash: %v", err)
		}
		return h
	}
	h0 := hash(base)
	same := base
	same.ShardIndex, same.ShardCount = 0, 7
	same.Workers = 16
	if hash(same) != h0 {
		t.Errorf("shard coordinates and workers must not change the sweep hash")
	}
	for name, mutate := range map[string]func(*expr.SweepConfig){
		"seed":     func(c *expr.SweepConfig) { c.Seed = 7 },
		"nodes":    func(c *expr.SweepConfig) { c.Nodes = []int{80} },
		"graphs":   func(c *expr.SweepConfig) { c.GraphsPerCell = 9 },
		"strategy": func(c *expr.SweepConfig) { c.Options.Strategy = "critical-path" },
	} {
		c := base
		mutate(&c)
		if hash(c) == h0 {
			t.Errorf("changing %s must change the sweep hash", name)
		}
	}
}
