package distrib

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/textio"
)

// journalFixture computes one real shard of the golden sweep plus its
// content hash and shard config, so journal tests exercise the same streams
// a live fleet journals.
func journalFixture(t testing.TB, index, count int) (string, expr.SweepConfig, *expr.ShardResult) {
	t.Helper()
	cfg := expr.GoldenSweep().Normalize()
	cfg.ShardIndex, cfg.ShardCount = index, count
	hash, err := textio.SweepHash(textio.EncodeSweepRequest(cfg))
	if err != nil {
		t.Fatalf("SweepHash: %v", err)
	}
	sh, err := expr.RunSweepShardStream(context.Background(), cfg, nil)
	if err != nil {
		t.Fatalf("RunSweepShardStream: %v", err)
	}
	return hash, cfg, sh
}

// journalShard writes a completed shard to the journal.
func journalShard(t testing.TB, j *Journal, hash string, cfg expr.SweepConfig, sh *expr.ShardResult) {
	t.Helper()
	if err := j.write(hash, cfg, sh); err != nil {
		t.Fatalf("write: %v", err)
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

	if done, err := jr.Load(hash, sweep, 2); err != nil || !reflect.DeepEqual(done, make([]*expr.ShardResult, 2)) {
		t.Fatalf("Load of empty journal = %v, %v; want two nil entries", done, err)
	}
	journalShard(t, jr, hash, cfg0, sh0)
	journalShard(t, jr, hash, cfg1, sh1)
	done, err := jr.Load(hash, sweep, 2)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !reflect.DeepEqual(done, []*expr.ShardResult{sh0, sh1}) {
		t.Errorf("loaded shards differ from the journaled ones")
	}
	// A load for a different shard count must not see these files.
	if done, err := jr.Load(hash, sweep, 3); err != nil || !reflect.DeepEqual(done, make([]*expr.ShardResult, 3)) {
		t.Errorf("Load with mismatched count = %v, %v; want three nil entries", done, err)
	}
}

func TestJournalIgnoresTempFiles(t *testing.T) {
	jr, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	hash, cfg, sh := journalFixture(t, 0, 2)
	journalShard(t, jr, hash, cfg, sh)
	// Files of other names — leftovers, backups, older layouts — are not
	// journal files; loads must skip them.
	for _, name := range []string{"tmp-shard-123456", "shard-00001-of-00002.json", "shard-00001-of-00002.ndjson.bak", "shard-1-of-2.ndjson"} {
		if err := os.WriteFile(filepath.Join(jr.root, hash, name), []byte("torn\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	done, err := jr.Load(hash, expr.GoldenSweep(), 2)
	if err != nil {
		t.Fatalf("Load with leftover files: %v", err)
	}
	if done[0] == nil || done[1] != nil {
		t.Fatalf("Load = %v; want just shard 0", done)
	}
}

func TestJournalRejectsCorruptSpool(t *testing.T) {
	jr, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	hash, cfg, sh := journalFixture(t, 0, 2)
	journalShard(t, jr, hash, cfg, sh)
	path := shardPath(jr, hash, cfg)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	header, rest, _ := strings.Cut(string(clean), "\n")
	header += "\n"
	graph, _, _ := strings.Cut(rest, "\n")
	graph += "\n"
	_, cfg1, sh1 := journalFixture(t, 1, 2)
	journalShard(t, jr, hash, cfg1, sh1)
	other, err := os.ReadFile(shardPath(jr, hash, cfg1))
	if err != nil {
		t.Fatal(err)
	}

	for name, tc := range map[string]struct{ content, want string }{
		"terminated garbage":  {header + "{\n", "unexpected EOF"},
		"foreign sweep hash":  {strings.Replace(string(clean), hash, strings.Repeat("0", len(hash)), 1), "another sweep"},
		"wrong coordinates":   {strings.Replace(string(clean), `"shardIndex":0`, `"shardIndex":1`, 1), "outside shard 1/2"},
		"another shard":       {string(other), "carries shard 1/2, expected 0/2"},
		"wrong graph count":   {strings.Replace(header, `"graphs":`, `"graphs":1`, 1), "announces"},
		"graph listed twice":  {header + graph + graph, "repeats graph"},
		"second header":       {header + header, "unexpected"},
		"no header first":     {graph, "starts with"},
		"bytes after summary": {string(clean) + graph, "continues after its summary"},
		"foreign graph": {header + strings.Replace(graph, `"index":`, `"index":9`, 1),
			"outside shard 0/2"},
	} {
		if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := jr.Load(hash, expr.GoldenSweep(), 2); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Load = %v, want a loud error containing %q", name, err, tc.want)
		}
	}
}

// TestJournalTornFileRewritten pins the crash rule: every prefix of a
// complete shard file — what a crash mid-write can leave, the empty file
// included — reads as an unfinished shard, never as an error or a shard, and
// journaling the shard again rewrites the file complete.
func TestJournalTornFileRewritten(t *testing.T) {
	jr, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	hash, cfg, sh := journalFixture(t, 0, 2)
	journalShard(t, jr, hash, cfg, sh)
	path := shardPath(jr, hash, cfg)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(clean); cut++ {
		if got, err := readShard(clean[:cut], hash, cfg); err != nil || got != nil {
			t.Fatalf("file torn after %d of %d bytes reads as %v, %v; want an unfinished shard", cut, len(clean), got, err)
		}
	}
	if err := os.WriteFile(path, clean[:len(clean)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if done, err := jr.Load(hash, expr.GoldenSweep(), 2); err != nil || done[0] != nil {
		t.Fatalf("torn file: Load = %v, %v; want an unfinished shard", done[0], err)
	}
	journalShard(t, jr, hash, cfg, sh)
	done, err := jr.Load(hash, expr.GoldenSweep(), 2)
	if err != nil || !reflect.DeepEqual(done[0], sh) {
		t.Fatalf("rewritten file did not load as the shard: %v", err)
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
}
