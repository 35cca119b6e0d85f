package distrib

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/expr"
	"repro/internal/textio"
)

// Journal spools every shard of a sweep to disk while it streams in, so an
// interrupted sweep resumes without recomputing what already arrived. There
// is one file per shard:
//
//	<root>/<sweep-hash>/shard-<index>-of-<count>.ndjson
//
// Each file is the shard's frame stream in the wire format (textio's NDJSON
// sweep stream): a header frame with the sweep hash, the shard coordinates
// and the shard's full graph count; one graph frame per graph, appended as
// it arrives and deduplicated by key; and, once the shard is complete, a
// summary frame, after which the file is synced to disk — only then does
// the shard count as journaled. The directory is keyed by the sweep's
// content hash (textio.SweepHash — workers and shard coordinates excluded),
// so a resumed run with a different worker count or backend fleet still
// finds its shards, while any change to the sweep itself lands in a fresh
// directory.
//
// Every frame is one single-write line, so a crash can tear at most a
// file's last line: a torn, unterminated tail is dropped on load and cut off
// on disk before the next append. Any other damage — a newline-terminated
// line that is not a frame, a foreign sweep hash, wrong shard coordinates, a
// graph outside the shard or spooled twice — fails loudly: a corrupt journal
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

// dir returns the spool directory of one sweep. SweepHash is lowercase hex,
// so it is filename-safe on every platform.
func (j *Journal) dir(hash string) string { return filepath.Join(j.root, hash) }

// shardFile names the journal file of one shard.
func shardFile(index, count int) string {
	return fmt.Sprintf("shard-%05d-of-%05d.ndjson", index, count)
}

// Load reads the journal of one sweep partitioned into count shards (cfg is
// the sweep; its shard coordinates are ignored). It returns, keyed by shard
// index, the complete shards — a valid summary frame and exact coverage, in
// canonical order — and the graphs already spooled for unfinished shards,
// in spool order. A missing sweep directory is an empty (not failed) load,
// and files of other names or another shard count are ignored.
func (j *Journal) Load(hash string, cfg expr.SweepConfig, count int) (map[int]*expr.ShardResult, map[int][]expr.GraphResult, error) {
	entries, err := os.ReadDir(j.dir(hash))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, fmt.Errorf("distrib: journal: %w", err)
	}
	done := make(map[int]*expr.ShardResult)
	partial := make(map[int][]expr.GraphResult)
	for _, e := range entries {
		var idx, n int
		name := e.Name()
		if _, err := fmt.Sscanf(name, "shard-%d-of-%d.ndjson", &idx, &n); err != nil ||
			name != shardFile(idx, n) || n != count || idx < 0 || idx >= n {
			continue
		}
		scfg := cfg
		scfg.ShardIndex, scfg.ShardCount = idx, n
		graphs, complete, _, err := j.readShard(hash, scfg)
		if err != nil {
			return nil, nil, err
		}
		if !complete {
			if len(graphs) > 0 {
				partial[idx] = graphs
			}
			continue
		}
		got := make(map[expr.GraphKey]expr.GraphResult, len(graphs))
		for _, g := range graphs {
			got[g.Key()] = g
		}
		if done[idx], err = scfg.AssembleShardResult(got); err != nil {
			return nil, nil, fmt.Errorf("distrib: journal %s: %w", name, err)
		}
	}
	return done, partial, nil
}

// readShard reads the journal file of cfg's shard through the strict stream
// reader. It returns the spooled graphs in spool order, whether a valid
// summary frame closes them, and the file's length without its torn tail. A
// missing file, or one whose header line never got written whole, holds no
// graphs.
func (j *Journal) readShard(hash string, cfg expr.SweepConfig) ([]expr.GraphResult, bool, int64, error) {
	name := shardFile(cfg.ShardIndex, cfg.ShardCount)
	data, err := os.ReadFile(filepath.Join(j.dir(hash), name))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, 0, nil
	}
	if err != nil {
		return nil, false, 0, fmt.Errorf("distrib: journal: %w", err)
	}
	data = data[:bytes.LastIndexByte(data, '\n')+1]
	if len(data) == 0 {
		return nil, false, 0, nil
	}
	graphs, complete, err := readSpool(bytes.NewReader(data), hash, cfg)
	if err != nil {
		return nil, false, 0, fmt.Errorf("distrib: journal %s: %w", name, err)
	}
	return graphs, complete, int64(len(data)), nil
}

// readSpool parses one shard's frame stream, requiring the header to name
// the sweep hash, cfg's shard coordinates and its full graph count, and
// every graph frame to carry a distinct graph of the shard. A stream that
// ends before its summary frame is an unfinished shard, not an error.
func readSpool(r io.Reader, hash string, cfg expr.SweepConfig) ([]expr.GraphResult, bool, error) {
	sr, err := textio.NewSweepStreamReader(r)
	if err != nil {
		return nil, false, err
	}
	h := sr.Header()
	if h.SweepHash != hash {
		return nil, false, fmt.Errorf("carries sweep %s, expected %s", h.SweepHash, hash)
	}
	want := cfg.ShardGraphs()
	if h.ShardIndex != cfg.ShardIndex || h.ShardCount != cfg.ShardCount || h.Graphs != len(want) {
		return nil, false, fmt.Errorf("carries shard %d/%d of %d graphs, expected %d/%d of %d",
			h.ShardIndex, h.ShardCount, h.Graphs, cfg.ShardIndex, cfg.ShardCount, len(want))
	}
	pending := make(map[expr.GraphKey]bool, len(want))
	for _, k := range want {
		pending[k] = true
	}
	var graphs []expr.GraphResult
	for {
		g, err := sr.Next()
		switch {
		case err == io.EOF:
			return graphs, true, nil
		case errors.Is(err, textio.ErrTornStream):
			return graphs, false, nil
		case err != nil:
			return nil, false, fmt.Errorf("graph %d: %w", len(graphs), err)
		}
		if !pending[g.Key()] {
			return nil, false, fmt.Errorf("graph %d (%d nodes, %d paths, index %d) is outside the shard or spooled twice",
				len(graphs), g.Nodes, g.Paths, g.Index)
		}
		delete(pending, g.Key())
		graphs = append(graphs, g)
	}
}

// shardSpool is the open journal file of one unfinished shard. Appends are
// serialized and deduplicated by graph key, so concurrent attempts of the
// same shard (a steal race) spool each graph once no matter who yields it
// first — results are deterministic, the duplicate bytes would be identical.
type shardSpool struct {
	mu   sync.Mutex
	f    *os.File // nil once finished or closed
	w    *textio.SweepStreamWriter
	seen map[expr.GraphKey]bool
}

// openShard opens the journal file of cfg's unfinished shard for appending,
// creating it with its header frame if needed. The graphs an earlier run
// spooled are kept, but a torn tail it left is cut off first: appending
// after it would fuse the torn bytes and the next frame into one
// newline-terminated garbage line, and every later load would fail.
func (j *Journal) openShard(hash string, cfg expr.SweepConfig) (*shardSpool, error) {
	if hash == "" {
		return nil, errors.New("distrib: journal: empty sweep hash")
	}
	if err := os.MkdirAll(j.dir(hash), 0o755); err != nil {
		return nil, fmt.Errorf("distrib: journal: %w", err)
	}
	graphs, complete, size, err := j.readShard(hash, cfg)
	if err != nil {
		return nil, err
	}
	if complete {
		return nil, fmt.Errorf("distrib: journal: shard %d/%d is already complete", cfg.ShardIndex, cfg.ShardCount)
	}
	path := filepath.Join(j.dir(hash), shardFile(cfg.ShardIndex, cfg.ShardCount))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("distrib: journal: %w", err)
	}
	s := &shardSpool{f: f, w: textio.ResumeSweepStreamWriter(f, len(graphs)), seen: make(map[expr.GraphKey]bool, len(graphs))}
	for _, g := range graphs {
		s.seen[g.Key()] = true
	}
	err = f.Truncate(size)
	if err == nil && size == 0 {
		s.w = textio.NewSweepStreamWriter(f)
		err = s.w.Header(hash, cfg.ShardIndex, cfg.ShardCount, cfg.ShardSize())
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("distrib: journal: %w", err)
	}
	return s, nil
}

// append spools one streamed graph. A graph already spooled, or any graph
// once the file is finished or closed (a losing steal attempt still
// streaming), is a no-op.
func (s *shardSpool) append(g expr.GraphResult) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.appendLocked(g); err != nil {
		return fmt.Errorf("distrib: journal: %w", err)
	}
	return nil
}

func (s *shardSpool) appendLocked(g expr.GraphResult) error {
	if s.f == nil || s.seen[g.Key()] {
		return nil
	}
	if err := s.w.Graph(g); err != nil {
		return err
	}
	s.seen[g.Key()] = true
	return nil
}

// finish completes the file of a finished shard: it appends the shard's
// graphs not spooled yet, closes the stream with its summary frame, syncs
// the file and closes it. The shard counts as journaled once finish returns
// nil.
func (s *shardSpool) finish(sh *expr.ShardResult) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	for _, g := range sh.Results {
		if err = s.appendLocked(g); err != nil {
			break
		}
	}
	if err == nil {
		err = s.w.Summary()
	}
	if err == nil {
		err = s.f.Sync()
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f = nil
	if err != nil {
		return fmt.Errorf("distrib: journal: %w", err)
	}
	return nil
}

// close releases the file of an unfinished shard; its spooled graphs stay on
// disk for the next run.
func (s *shardSpool) close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}
