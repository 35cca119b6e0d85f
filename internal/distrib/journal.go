package distrib

import (
	"bytes"
	"errors"
	"fmt"
	"io"
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
// A file that ends before its summary frame (a crash mid-write) is an
// unfinished shard: the shard is re-run whole and its file rewritten. Any
// other damage — a line that is not a frame, a foreign sweep hash, wrong
// shard coordinates, a graph outside the shard or listed twice — fails
// loudly: a corrupt journal must not silently recompute.
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

// readShard parses one shard file through the strict stream reader,
// requiring the header to name the sweep hash, cfg's shard coordinates and
// its graph count, and every graph frame to carry a distinct graph of the
// shard. A file that ends before its summary frame is an unfinished shard:
// nil, not an error.
func readShard(data []byte, hash string, cfg expr.SweepConfig) (*expr.ShardResult, error) {
	if len(data) == 0 {
		return nil, nil
	}
	sr, err := textio.NewSweepStreamReader(bytes.NewReader(data))
	if errors.Is(err, textio.ErrTornStream) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	h := sr.Header()
	if h.SweepHash != hash {
		return nil, fmt.Errorf("carries sweep %s, expected %s", h.SweepHash, hash)
	}
	want := cfg.ShardGraphs()
	if h.ShardIndex != cfg.ShardIndex || h.ShardCount != cfg.ShardCount || h.Graphs != len(want) {
		return nil, fmt.Errorf("carries shard %d/%d of %d graphs, expected %d/%d of %d",
			h.ShardIndex, h.ShardCount, h.Graphs, cfg.ShardIndex, cfg.ShardCount, len(want))
	}
	pending := make(map[expr.GraphKey]bool, len(want))
	for _, k := range want {
		pending[k] = true
	}
	got := make(map[expr.GraphKey]expr.GraphResult, len(want))
	for {
		g, err := sr.Next()
		switch {
		case err == io.EOF:
			return cfg.AssembleShardResult(got)
		case errors.Is(err, textio.ErrTornStream):
			return nil, nil
		case err != nil:
			return nil, fmt.Errorf("graph %d: %w", len(got), err)
		}
		if !pending[g.Key()] {
			return nil, fmt.Errorf("graph %d (%d nodes, %d paths, index %d) is outside the shard or listed twice",
				len(got), g.Nodes, g.Paths, g.Index)
		}
		delete(pending, g.Key())
		got[g.Key()] = g
	}
}

// write journals a completed shard: it writes the shard's whole frame stream
// over the shard's file, unfinished or absent, and syncs it. The shard
// counts as journaled once write returns nil.
func (j *Journal) write(hash string, cfg expr.SweepConfig, sh *expr.ShardResult) error {
	var buf bytes.Buffer
	sw := textio.NewSweepStreamWriter(&buf)
	err := sw.Header(hash, cfg.ShardIndex, cfg.ShardCount, len(sh.Results))
	for _, g := range sh.Results {
		if err == nil {
			err = sw.Graph(g)
		}
	}
	if err == nil {
		err = sw.Summary()
	}
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
