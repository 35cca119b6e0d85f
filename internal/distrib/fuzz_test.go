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
// stray writer can, and pins how Load answers: an unterminated tail is
// dropped (and the shard still resumes to completion), a newline-terminated
// line that is not JSON, a foreign sweep hash or wrong shard coordinates
// fail loudly, arbitrary bytes never panic and never load as a shard that
// does not cover exactly its graphs, and an undamaged file yields exactly
// the shard, or the graphs, that were spooled. Run with
// `go test -fuzz FuzzJournalSpool ./internal/distrib`.
func FuzzJournalSpool(f *testing.F) {
	hash, cfg, sh := journalFixture(f, 0, 4)
	sweep := expr.GoldenSweep()
	n := len(sh.Results)
	f.Add(uint8(n+1), []byte(`{"frame":"graph","graph":{"nod`), uint8(0))
	f.Add(uint8(1), []byte(`{"frame":"graph","graph":{"nod`), uint8(0))
	f.Add(uint8(1), []byte(`not json`), uint8(1))
	f.Add(uint8(2), []byte(`{"frame":"graph"} {"frame":"graph"}`), uint8(1))
	f.Add(uint8(0), []byte(`other sweep`), uint8(2))
	f.Add(uint8(n+1), []byte{}, uint8(3))
	f.Add(uint8(1), []byte(`{"frame":"header","header":{"version":"v1","shardIndex":0,"shardCount":4,"graphs":1}}`+"\n"), uint8(4))
	f.Fuzz(func(t *testing.T, keep uint8, data []byte, mode uint8) {
		j, err := OpenJournal(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		k := int(keep) % (n + 2) // k == n+1: the shard completed
		var complete *expr.ShardResult
		if k > n {
			k, complete = n, sh
		}
		spool(t, j, hash, cfg, sh.Results[:k], complete)
		path := shardPath(j, hash, cfg)
		clean, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		write := func(content []byte) {
			if err := os.WriteFile(path, content, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		// intact asserts that Load sees exactly what was spooled.
		intact := func(what string) {
			done, partial, err := j.Load(hash, sweep, 4)
			if err != nil {
				t.Fatalf("%s: Load: %v", what, err)
			}
			wantDone, wantPartial := map[int]*expr.ShardResult{}, map[int][]expr.GraphResult{}
			if complete != nil {
				wantDone[0] = sh
			} else if k > 0 {
				wantPartial[0] = sh.Results[:k]
			}
			if !reflect.DeepEqual(done, wantDone) || !reflect.DeepEqual(partial, wantPartial) {
				t.Fatalf("%s: Load = %v, %v; want %v, %v", what, done, partial, wantDone, wantPartial)
			}
		}
		loud := func(what string) {
			if _, _, err := j.Load(hash, sweep, 4); err == nil {
				t.Fatalf("%s must fail Load loudly", what)
			}
		}
		line := append(bytes.ReplaceAll(data, []byte("\n"), nil), '\n')
		switch mode % 5 {
		case 0: // a torn, unterminated tail is dropped, and the shard resumes
			write(append(clean, line[:len(line)-1]...))
			intact("torn tail")
			if complete == nil {
				spool(t, j, hash, cfg, nil, sh)
				complete = sh
				intact("resumed torn spool")
			}
		case 1: // a newline-terminated line that is not JSON is damage
			if !json.Valid(line) {
				write(append(clean, line...))
				loud(fmt.Sprintf("terminated garbage %q", line))
			}
		case 2: // a header for another sweep
			write(retitle(t, clean, fmt.Sprintf("%x", sha256.Sum256(data)), 0, 4, cfg.ShardSize()))
			loud("a foreign sweep hash")
		case 3: // a header for other shard coordinates
			write(retitle(t, clean, hash, 1+int(mode/5)%3, 4, cfg.ShardSize()))
			loud("wrong shard coordinates")
		case 4: // arbitrary bytes never panic nor load as a wrong shard
			write(data)
			done, partial, err := j.Load(hash, sweep, 4)
			if err != nil {
				return
			}
			if done[0] != nil {
				if verr := cfg.ValidateShardResult(done[0]); verr != nil {
					t.Fatalf("arbitrary bytes loaded as an invalid shard: %v", verr)
				}
			}
			keys := make([]expr.GraphKey, 0, len(partial[0]))
			for _, g := range partial[0] {
				keys = append(keys, g.Key())
			}
			scfg := cfg
			scfg.Skip = keys
			if verr := scfg.ValidateSkip(); verr != nil {
				t.Fatalf("arbitrary bytes loaded foreign or duplicate graphs: %v", verr)
			}
		}
	})
}

// retitle replaces the header frame of a journal file with one naming the
// given sweep hash, shard coordinates and graph count.
func retitle(t *testing.T, file []byte, hash string, index, count, graphs int) []byte {
	t.Helper()
	var head bytes.Buffer
	if err := textio.NewSweepStreamWriter(&head).Header(hash, index, count, graphs); err != nil {
		t.Fatal(err)
	}
	_, rest, _ := bytes.Cut(file, []byte("\n"))
	return append(head.Bytes(), rest...)
}
