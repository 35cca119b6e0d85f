package distrib

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/expr"
	"repro/internal/textio"
)

// journalFixture computes one real shard of the golden sweep plus its
// content hash and shard config, so journal tests exercise the same streams
// a live fleet spools.
func journalFixture(t testing.TB, index, count int) (string, expr.SweepConfig, *expr.ShardResult) {
	t.Helper()
	cfg := expr.GoldenSweep().Normalize()
	cfg.ShardIndex, cfg.ShardCount = index, count
	hash, err := textio.SweepHash(textio.EncodeSweepRequest(cfg))
	if err != nil {
		t.Fatalf("SweepHash: %v", err)
	}
	sh, err := expr.RunSweepShardContext(context.Background(), cfg)
	if err != nil {
		t.Fatalf("RunSweepShardContext: %v", err)
	}
	return hash, cfg, sh
}

// spool appends graphs to the journal file of cfg's shard and then either
// finishes the shard (complete != nil) or closes the file unfinished.
func spool(t testing.TB, j *Journal, hash string, cfg expr.SweepConfig, graphs []expr.GraphResult, complete *expr.ShardResult) {
	t.Helper()
	s, err := j.openShard(hash, cfg)
	if err != nil {
		t.Fatalf("openShard: %v", err)
	}
	for _, g := range graphs {
		if err := s.append(g); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if complete != nil {
		err = s.finish(complete)
	} else {
		err = s.close()
	}
	if err != nil {
		t.Fatalf("finishing the spool: %v", err)
	}
}

// shardPath is the journal file of cfg's shard.
func shardPath(j *Journal, hash string, cfg expr.SweepConfig) string {
	return filepath.Join(j.root, hash, shardFile(cfg.ShardIndex, cfg.ShardCount))
}

func TestJournalRecordLoadRoundTrip(t *testing.T) {
	jr, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	hash, cfg0, sh0 := journalFixture(t, 0, 2)
	_, cfg1, sh1 := journalFixture(t, 1, 2)
	sweep := expr.GoldenSweep()

	if done, partial, err := jr.Load(hash, sweep, 2); err != nil || len(done)+len(partial) != 0 {
		t.Fatalf("Load of empty journal = %v, %v, %v; want empty, nil", done, partial, err)
	}
	// Shard 0 streams in back to front, shard 1 arrives only as a whole:
	// either way Load hands back the shard in canonical order.
	rev := make([]expr.GraphResult, 0, len(sh0.Results))
	for i := len(sh0.Results) - 1; i >= 0; i-- {
		rev = append(rev, sh0.Results[i])
	}
	spool(t, jr, hash, cfg0, rev, sh0)
	spool(t, jr, hash, cfg1, nil, sh1)
	if _, err := jr.openShard(hash, cfg0); err == nil || !strings.Contains(err.Error(), "already complete") {
		t.Errorf("reopening a completed shard = %v, want 'already complete'", err)
	}

	done, partial, err := jr.Load(hash, sweep, 2)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(done) != 2 || len(partial) != 0 {
		t.Fatalf("Load returned %d complete and %d partial shards, want 2 and 0", len(done), len(partial))
	}
	if !reflect.DeepEqual(done[0], sh0) || !reflect.DeepEqual(done[1], sh1) {
		t.Errorf("loaded shards differ from the spooled ones")
	}
	// A load for a different shard count must not see these files.
	if done, partial, err := jr.Load(hash, sweep, 3); err != nil || len(done)+len(partial) != 0 {
		t.Errorf("Load with mismatched count = %v, %v, %v; want empty, nil", done, partial, err)
	}
}

func TestJournalIgnoresTempFiles(t *testing.T) {
	jr, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	hash, cfg, sh := journalFixture(t, 0, 2)
	spool(t, jr, hash, cfg, nil, sh)
	// Files of other names — leftovers, backups, older layouts — are not
	// journal files; loads must skip them.
	for _, name := range []string{"tmp-shard-123456", "shard-00001-of-00002.json", "shard-00001-of-00002.ndjson.bak", "shard-1-of-2.ndjson"} {
		if err := os.WriteFile(filepath.Join(jr.root, hash, name), []byte("torn\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	done, partial, err := jr.Load(hash, expr.GoldenSweep(), 2)
	if err != nil {
		t.Fatalf("Load with leftover files: %v", err)
	}
	if len(done) != 1 || done[0] == nil || len(partial) != 0 {
		t.Fatalf("Load = %v, %v; want just shard 0", done, partial)
	}
}

func TestJournalRejectsCorruptSpool(t *testing.T) {
	jr, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	hash, cfg, sh := journalFixture(t, 0, 2)
	spool(t, jr, hash, cfg, nil, sh)
	path := shardPath(jr, hash, cfg)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	header, rest, _ := strings.Cut(string(clean), "\n")
	header += "\n"
	graph, _, _ := strings.Cut(rest, "\n")
	graph += "\n"

	for name, tc := range map[string]struct{ content, want string }{
		"terminated garbage":  {header + "{\n", "graph 0"},
		"foreign sweep hash":  {strings.Replace(string(clean), hash, strings.Repeat("0", len(hash)), 1), "carries sweep"},
		"wrong coordinates":   {strings.Replace(string(clean), `"shardIndex":0`, `"shardIndex":1`, 1), "carries shard"},
		"wrong graph count":   {strings.Replace(header, `"graphs":`, `"graphs":1`, 1), "carries shard"},
		"graph spooled twice": {header + graph + graph, "spooled twice"},
		"second header":       {header + header, "unexpected"},
		"no header first":     {graph, "starts with"},
		"foreign graph": {header + strings.Replace(graph, `"index":`, `"index":9`, 1),
			"outside the shard"},
	} {
		if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := jr.Load(hash, expr.GoldenSweep(), 2); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Load = %v, want a loud error containing %q", name, err, tc.want)
		}
		if _, err := jr.openShard(hash, cfg); err == nil {
			t.Errorf("%s: openShard must refuse to append to a corrupt file", name)
		}
	}
}

func TestOpenJournalValidation(t *testing.T) {
	if _, err := OpenJournal(""); err == nil {
		t.Errorf("OpenJournal(\"\") must fail")
	}
	dir := filepath.Join(t.TempDir(), "nested", "spool")
	jr, err := OpenJournal(dir)
	if err != nil {
		t.Fatalf("OpenJournal must create nested directories: %v", err)
	}
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() || jr.root != dir {
		t.Errorf("journal root %q (stat %v), want the created directory %q", jr.root, err, dir)
	}
	if _, err := jr.openShard("", expr.GoldenSweep()); err == nil {
		t.Errorf("openShard with an empty sweep hash must fail")
	}
}

// TestPartialSpoolRoundTrip pins the unfinished shard: appended graphs come
// back in order, duplicates (steal races) are spooled once, and the file of
// a shard that later completes becomes the complete shard in place.
func TestPartialSpoolRoundTrip(t *testing.T) {
	j, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	hash, cfg, sh := journalFixture(t, 0, 2)
	if len(sh.Results) < 3 {
		t.Fatalf("shard too small: %d graphs", len(sh.Results))
	}
	sweep := expr.GoldenSweep()
	first := []expr.GraphResult{sh.Results[0], sh.Results[1], sh.Results[0]} // a duplicate: no-op
	spool(t, j, hash, cfg, first, nil)
	done, partial, err := j.Load(hash, sweep, 2)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got := partial[0]; len(done) != 0 || len(got) != 2 || got[0] != sh.Results[0] || got[1] != sh.Results[1] {
		t.Fatalf("Load = %d complete, partial %v; want the 2 appended graphs unfinished", len(done), got)
	}

	// A restarted run reopens the file, appends the rest and finishes it.
	spool(t, j, hash, cfg, sh.Results[1:], sh)
	done, partial, err = j.Load(hash, sweep, 2)
	if err != nil {
		t.Fatalf("Load after completion: %v", err)
	}
	if len(partial) != 0 || !reflect.DeepEqual(done[0], sh) {
		t.Fatalf("completed spool did not load as the shard: %v, partial %v", done[0], partial)
	}
}

// TestShardSpoolConcurrentAppends drives one journal file the way a steal
// race does: several attempts append the same graphs at once while the
// winner finishes the shard. Every graph lands once, appends after the
// finish are no-ops, and the file loads as the complete shard.
func TestShardSpoolConcurrentAppends(t *testing.T) {
	j, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	hash, cfg, sh := journalFixture(t, 0, 2)
	s, err := j.openShard(hash, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, g := range sh.Results {
				if err := s.append(g); err != nil {
					t.Errorf("append: %v", err)
				}
			}
		}()
	}
	if err := s.finish(sh); err != nil {
		t.Fatalf("finish: %v", err)
	}
	wg.Wait()
	done, partial, err := j.Load(hash, expr.GoldenSweep(), 2)
	if err != nil || len(partial) != 0 || !reflect.DeepEqual(done[0], sh) {
		t.Fatalf("Load after racing appends = %v, partial %v, %v; want the complete shard", done[0], partial, err)
	}
}

// TestPartialSpoolTornTail pins the crash rule: an unterminated trailing
// line (an append cut short) is dropped on load and cut off on disk before
// the next append — a torn spool must resume, append, tear again and still
// resume.
func TestPartialSpoolTornTail(t *testing.T) {
	j, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	hash, cfg, sh := journalFixture(t, 0, 2)
	if len(sh.Results) < 3 {
		t.Fatalf("shard too small: %d graphs", len(sh.Results))
	}
	sweep := expr.GoldenSweep()
	path := shardPath(j, hash, cfg)
	tear := func() {
		t.Helper()
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(`{"frame":"graph","graph":{"nod`); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	load := func(want int) {
		t.Helper()
		done, partial, err := j.Load(hash, sweep, 2)
		if err != nil {
			t.Fatalf("torn tail must be tolerated: %v", err)
		}
		if len(done) != 0 || len(partial[0]) != want {
			t.Fatalf("torn-tail load = %d complete, %d graphs; want 0 and %d", len(done), len(partial[0]), want)
		}
	}

	spool(t, j, hash, cfg, sh.Results[:1], nil)
	tear() // crash mid-append
	load(1)
	spool(t, j, hash, cfg, sh.Results[1:2], nil) // resume, append
	tear()                                       // crash again
	load(2)
	spool(t, j, hash, cfg, nil, sh) // resume and complete
	done, _, err := j.Load(hash, sweep, 2)
	if err != nil || !reflect.DeepEqual(done[0], sh) {
		t.Fatalf("twice-torn spool did not complete into the shard: %v", err)
	}

	// A file whose header line itself was torn holds nothing yet, and is
	// rewritten from its header on the next open.
	if err := os.WriteFile(path, []byte(`{"frame":"head`), 0o644); err != nil {
		t.Fatal(err)
	}
	load(0)
	spool(t, j, hash, cfg, sh.Results[:1], nil)
	load(1)
}
