package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/distrib"
	"repro/internal/expr"
	"repro/internal/textio"
)

// TestDamagedShardStreams feeds the same damaged shard streams to the three
// entry points that read a shard: the HTTP backend (an httptest server
// answering POST /v1/sweep with the bytes), Journal.Load (the bytes as shard
// 0/2's journal file) and -merge (the bytes beside a good shard 1/2 file).
// Every case must fail loudly at every entry point, except that the journal
// loads a stream cut before its summary as an unfinished shard. The streams
// start from shard 0/2 of the golden sweep as -shard writes it, and the
// backend must never yield a graph twice or one outside the shard its header
// names.
func TestDamagedShardStreams(t *testing.T) {
	dir := t.TempDir()
	shardOut := func(spec string) string {
		t.Helper()
		var out bytes.Buffer
		if err := run(goldenArgs("-shard", spec), &out); err != nil {
			t.Fatalf("run(-shard %s): %v", spec, err)
		}
		return out.String()
	}
	p0, p1 := shardOut("0/2"), shardOut("1/2")
	good1 := filepath.Join(dir, "part1.ndjson")
	if err := os.WriteFile(good1, []byte(p1), 0o644); err != nil {
		t.Fatal(err)
	}
	sweep := expr.GoldenSweep()
	hash, err := textio.SweepHash(textio.EncodeSweepRequest(sweep))
	if err != nil {
		t.Fatal(err)
	}
	shardKeys := func(index int) map[expr.GraphKey]bool {
		cfg := sweep
		cfg.ShardIndex, cfg.ShardCount = index, 2
		keys := map[expr.GraphKey]bool{}
		for _, k := range cfg.ShardGraphs() {
			keys[k] = true
		}
		return keys
	}

	ls := strings.SplitAfter(p0, "\n")
	n := len(ls) - 3 // the header, the summary and the empty tail
	head, graphs, sum := ls[0], ls[1:n+1], ls[n+1]
	all := func(lines []string) string { return strings.Join(lines, "") }
	count := func(line string, k int) string {
		return regexp.MustCompile(`"graphs":\d+`).ReplaceAllString(line, fmt.Sprintf(`"graphs":%d`, k))
	}
	// A second copy of the first graph, with a figure that would show in
	// the merged cells.
	repeat := regexp.MustCompile(`"increasePct":[^,]+`).ReplaceAllString(graphs[0], `"increasePct":999`)
	foreign := strings.Replace(graphs[0], `"nodes":`, `"nodes":9`, 1)
	otherShard := strings.SplitAfter(p1, "\n")[1]
	errFrame := `{"frame":"error","error":{"message":"late"}}` + "\n"

	cases := []struct {
		name string
		data string
		// shard is the index of the shard the header names (of 2).
		shard int
		// atHeader: no graph may reach yield.
		atHeader bool
		// torn: the journal loads the file as an unfinished shard.
		torn bool
	}{
		{name: "repeated graph, header and summary agree", data: count(head, n+1) + all(graphs) + repeat + count(sum, n+1), atHeader: true},
		{name: "repeated graph in place of another", data: head + all(graphs[:n-1]) + repeat + sum},
		{name: "graph outside the shard", data: head + all(graphs[:n-1]) + otherShard + sum},
		{name: "foreign extra graph", data: count(head, n+1) + all(graphs) + foreign + count(sum, n+1), atHeader: true},
		{name: "gap", data: head + all(graphs[:n-1]) + sum},
		{name: "header count not the shard size", data: count(head, n-1) + all(graphs[:n-1]) + count(sum, n-1), atHeader: true},
		{name: "foreign sweep hash", data: strings.Replace(p0, hash, strings.Repeat("0", len(hash)), 1), atHeader: true},
		{name: "header names another shard", data: strings.Replace(p0, `"shardIndex":0`, `"shardIndex":1`, 1), shard: 1, atHeader: true},
		{name: "stream of another shard", data: p1, shard: 1},
		{name: "no header first", data: all(graphs) + sum, atHeader: true},
		{name: "second header", data: head + head + all(graphs) + sum},
		{name: "graph after the summary", data: p0 + graphs[0]},
		{name: "error frame after the summary", data: p0 + errFrame},
		{name: "torn before the summary", data: head + all(graphs), torn: true},
	}

	// The undamaged stream passes every entry point, so each failure below
	// is the damage's.
	if sh, err := serveShard(t, p0, nil); err != nil || len(sh.Results) != n {
		t.Fatalf("HTTP backend on the undamaged stream = %v", err)
	}
	if done, err := loadJournaled(t, hash, p0); err != nil || done[0] == nil {
		t.Fatalf("Journal.Load of the undamaged stream = %v", err)
	}
	if err := mergeWith(t, dir, p0, good1); err != nil {
		t.Fatalf("-merge of the undamaged stream: %v", err)
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			keys := shardKeys(tc.shard)
			seen := map[expr.GraphKey]bool{}
			sh, err := serveShard(t, tc.data, func(g expr.GraphResult) error {
				if k := g.Key(); seen[k] || !keys[k] || tc.atHeader {
					t.Errorf("HTTP backend yielded graph %+v (seen %v, in shard %v)", k, seen[k], keys[k])
				}
				seen[g.Key()] = true
				return nil
			})
			if err == nil || sh != nil {
				t.Errorf("HTTP backend accepted the stream")
			}
			if tc.torn && !errors.Is(err, textio.ErrTornStream) {
				t.Errorf("HTTP backend error %v does not wrap ErrTornStream", err)
			}

			done, err := loadJournaled(t, hash, tc.data)
			switch {
			case tc.torn && (err != nil || done[0] != nil):
				t.Errorf("Journal.Load = %v, %v; want an unfinished shard", done, err)
			case !tc.torn && err == nil:
				t.Errorf("Journal.Load accepted the file: %v", done)
			}

			if err := mergeWith(t, dir, tc.data, good1); err == nil {
				t.Errorf("-merge accepted the file")
			}
		})
	}
}

// serveShard runs the HTTP backend's shard 0/2 of the golden sweep against a
// server that answers with data.
func serveShard(t *testing.T, data string, yield func(expr.GraphResult) error) (*expr.ShardResult, error) {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/x-ndjson")
		_, _ = io.WriteString(w, data)
	}))
	defer ts.Close()
	cfg := expr.GoldenSweep()
	cfg.ShardIndex, cfg.ShardCount = 0, 2
	return distrib.HTTP{BaseURL: ts.URL}.RunShardStream(context.Background(), cfg, yield)
}

// loadJournaled writes data as shard 0/2's journal file and loads the
// journal of the golden sweep in 2 shards.
func loadJournaled(t *testing.T, hash, data string) ([]*expr.ShardResult, error) {
	t.Helper()
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, hash), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, hash, "shard-00000-of-00002.ndjson"), []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := distrib.OpenJournal(root)
	if err != nil {
		t.Fatal(err)
	}
	return j.Load(hash, expr.GoldenSweep(), 2)
}

// mergeWith runs -merge over data, saved as a file, and the file other.
func mergeWith(t *testing.T, dir, data, other string) error {
	t.Helper()
	name := filepath.Join(dir, "part0.ndjson")
	if err := os.WriteFile(name, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	return run(goldenArgs("-merge", name+","+other), &out)
}
