package distrib

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"repro/internal/expr"
	"repro/internal/textio"
)

// FuzzJournalSpool damages a real journal file in the ways a crash or a
// stray writer can, and pins how the shard loader answers: a file cut short,
// with or without an unterminated tail, is an unfinished shard; a
// newline-terminated line that is not JSON, a foreign sweep hash or wrong
// shard coordinates fail loudly; arbitrary bytes never panic and load, if at
// all, as exactly the shard's graphs in canonical order; and an undamaged file
// yields exactly the shard that was written. The file is written once
// through the journal and damaged in memory, so the target runs at parser
// speed. Run with `go test -fuzz FuzzJournalSpool ./internal/distrib`.
func FuzzJournalSpool(f *testing.F) {
	hash, cfg, sh := journalFixture(f, 0, 4)
	j, err := OpenJournal(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	journalShard(f, j, hash, cfg, sh)
	clean, err := os.ReadFile(shardPath(j, hash, cfg))
	if err != nil {
		f.Fatal(err)
	}
	n := len(sh.Results)
	f.Add(uint8(n+1), []byte(`{"frame":"graph","graph":{"nod`), uint8(0))
	f.Add(uint8(1), []byte(`{"frame":"graph","graph":{"nod`), uint8(0))
	f.Add(uint8(1), []byte(`not json`), uint8(1))
	f.Add(uint8(2), []byte(`{"frame":"graph"} {"frame":"graph"}`), uint8(1))
	f.Add(uint8(0), []byte(`other sweep`), uint8(2))
	f.Add(uint8(n+1), []byte{}, uint8(3))
	f.Add(uint8(1), []byte(`{"frame":"header","header":{"version":"v1","shardIndex":0,"shardCount":4,"graphs":1}}`+"\n"), uint8(4))
	f.Fuzz(func(t *testing.T, keep uint8, data []byte, mode uint8) {
		// prefix is the header line and the first k lines after it: k <= n
		// graph frames, or with k == n+1 the whole file.
		k := int(keep) % (n + 2)
		lines := bytes.SplitAfter(clean, []byte("\n"))
		prefix := bytes.Join(lines[:1+k], nil)
		load := func(what string, content []byte, want *expr.ShardResult) {
			got, err := readShard(content, hash, cfg)
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: readShard = %v, %v; want %v", what, got, err, want)
			}
		}
		loud := func(what string, content []byte) {
			if _, err := readShard(content, hash, cfg); err == nil {
				t.Fatalf("%s must fail loudly", what)
			}
		}
		line := append(bytes.ReplaceAll(data, []byte("\n"), nil), '\n')
		switch mode % 5 {
		case 0: // a file cut short is an unfinished shard
			if k > n {
				load("an intact file", prefix, sh)
				return
			}
			load("a torn file", append(prefix, line[:len(line)-1]...), nil)
		case 1: // a newline-terminated line that is not JSON is damage
			if !json.Valid(line) {
				loud(fmt.Sprintf("terminated garbage %q", line), append(prefix, line...))
			}
		case 2: // a header for another sweep
			loud("a foreign sweep hash", retitle(t, clean, fmt.Sprintf("%x", sha256.Sum256(data)), 0, 4, cfg.ShardSize()))
		case 3: // a header for other shard coordinates
			loud("wrong shard coordinates", retitle(t, clean, hash, 1+int(mode/5)%3, 4, cfg.ShardSize()))
		case 4: // arbitrary bytes never panic nor load as a wrong shard
			got, err := readShard(data, hash, cfg)
			if err != nil || got == nil {
				return
			}
			keys := cfg.ShardGraphs()
			if got.ShardIndex != cfg.ShardIndex || got.ShardCount != cfg.ShardCount || len(got.Results) != len(keys) {
				t.Fatalf("arbitrary bytes loaded as shard %d/%d of %d graphs", got.ShardIndex, got.ShardCount, len(got.Results))
			}
			for i, g := range got.Results {
				if g.Key() != keys[i] {
					t.Fatalf("arbitrary bytes loaded graph %+v as result %d, want %+v", g.Key(), i, keys[i])
				}
			}
		}
	})
}

// retitle replaces the header frame of a journal file with one naming the
// given sweep hash, shard coordinates and graph count.
func retitle(t *testing.T, file []byte, hash string, index, count, graphs int) []byte {
	t.Helper()
	head, err := json.Marshal(&textio.GraphResultDoc{Frame: textio.FrameHeader, Header: &textio.StreamHeaderDoc{
		Version: textio.ProblemVersion, SweepHash: hash, ShardIndex: index, ShardCount: count, Graphs: graphs,
	}})
	if err != nil {
		t.Fatal(err)
	}
	_, rest, _ := bytes.Cut(file, []byte("\n"))
	return append(append(head, '\n'), rest...)
}
