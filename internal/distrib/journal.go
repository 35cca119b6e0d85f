package distrib

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"repro/internal/expr"
	"repro/internal/textio"
)

// Journal keeps every completed shard of a sweep on disk, so a restarted
// sweep re-runs only the shards it had not finished. There is one file per
// shard:
//
//	<root>/<sweep-hash>/shard-<index>-of-<count>.ndjson
//
// Each file is the shard's frame stream in the wire format, the file
// `cpgexper -shard i/N` writes: a header frame with the sweep hash, the
// shard coordinates and the shard's graph count, one graph frame per graph
// and the summary frame. A shard's file is written once, when the shard
// completes, and synced to disk before the shard counts as journaled. The
// directory is keyed by the sweep's content hash (textio.SweepHash — workers
// and shard coordinates excluded), so a resumed run with a different worker
// count or backend fleet still finds its shards, while any change to the
// sweep itself lands in a fresh directory.
//
// A file is read by textio.ReadShard, the reader of server responses and
// -merge inputs. One that ends before its summary frame (a crash mid-write)
// is an unfinished shard: the shard is re-run whole and its file rewritten.
// Any other damage — a line that is not a frame, a foreign sweep hash, a
// graph count that is not the shard's size, a graph outside the shard or
// listed twice, wrong shard coordinates — fails loudly: a corrupt journal
// must not silently recompute.
type Journal struct {
	root string
}

// OpenJournal opens (creating if needed) a journal rooted at dir.
func OpenJournal(dir string) (*Journal, error) {
	if dir == "" {
		return nil, errors.New("distrib: journal directory must not be empty")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("distrib: opening journal: %w", err)
	}
	return &Journal{root: dir}, nil
}

// dir returns the directory of one sweep. SweepHash is lowercase hex, so it
// is filename-safe on every platform.
func (j *Journal) dir(hash string) string { return filepath.Join(j.root, hash) }

// shardFile names the journal file of one shard.
func shardFile(index, count int) string {
	return fmt.Sprintf("shard-%05d-of-%05d.ndjson", index, count)
}

// Load reads the journal of one sweep partitioned into count shards (cfg is
// the sweep; its shard coordinates are ignored). It returns one entry per
// shard: the shard's result in canonical order when its file is complete,
// nil when the shard has no file or an unfinished one. Files of other names
// or another shard count are ignored.
func (j *Journal) Load(hash string, cfg expr.SweepConfig, count int) ([]*expr.ShardResult, error) {
	done := make([]*expr.ShardResult, count)
	entries, err := os.ReadDir(j.dir(hash))
	if errors.Is(err, fs.ErrNotExist) {
		return done, nil
	}
	if err != nil {
		return nil, fmt.Errorf("distrib: journal: %w", err)
	}
	for _, e := range entries {
		var idx, n int
		name := e.Name()
		if _, err := fmt.Sscanf(name, "shard-%d-of-%d.ndjson", &idx, &n); err != nil ||
			name != shardFile(idx, n) || n != count || idx < 0 || idx >= n {
			continue
		}
		data, err := os.ReadFile(filepath.Join(j.dir(hash), name))
		if err != nil {
			return nil, fmt.Errorf("distrib: journal: %w", err)
		}
		scfg := cfg
		scfg.ShardIndex, scfg.ShardCount = idx, n
		if done[idx], err = readShard(data, hash, scfg); err != nil {
			return nil, fmt.Errorf("distrib: journal %s: %w", name, err)
		}
	}
	return done, nil
}

// readShard parses one shard file through textio.ReadShard and requires its
// header to name cfg's shard coordinates. A file that ends before its summary
// frame is an unfinished shard: nil, not an error.
func readShard(data []byte, hash string, cfg expr.SweepConfig) (*expr.ShardResult, error) {
	sh, err := textio.ReadShard(bytes.NewReader(data), hash, cfg, nil)
	switch {
	case errors.Is(err, textio.ErrTornStream):
		return nil, nil
	case err != nil:
		return nil, err
	case sh.ShardIndex != cfg.ShardIndex || sh.ShardCount != cfg.ShardCount:
		return nil, fmt.Errorf("carries shard %d/%d, expected %d/%d",
			sh.ShardIndex, sh.ShardCount, cfg.ShardIndex, cfg.ShardCount)
	}
	return sh, nil
}

// write journals a completed shard: it writes the shard's whole frame stream
// over the shard's file, unfinished or absent, and syncs it. The shard
// counts as journaled once write returns nil.
func (j *Journal) write(hash string, cfg expr.SweepConfig, sh *expr.ShardResult) error {
	var buf bytes.Buffer
	err := textio.WriteShard(&buf, hash, cfg, func(yield func(expr.GraphResult) error) error {
		for _, g := range sh.Results {
			if err := yield(g); err != nil {
				return err
			}
		}
		return nil
	})
	if err == nil {
		err = os.MkdirAll(j.dir(hash), 0o755)
	}
	if err == nil {
		err = writeSynced(filepath.Join(j.dir(hash), shardFile(cfg.ShardIndex, cfg.ShardCount)), buf.Bytes())
	}
	if err != nil {
		return fmt.Errorf("distrib: journal: %w", err)
	}
	return nil
}

// writeSynced writes data over the named file and syncs it to disk.
func writeSynced(name string, data []byte) error {
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
