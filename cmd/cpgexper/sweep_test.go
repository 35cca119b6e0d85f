package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/expr"
	"repro/internal/httpserver"
	"repro/internal/service"
	"repro/internal/textio"
)

// goldenArgs are the flags selecting the golden sweep (expr.GoldenSweep) as
// deterministic CSV on stdout.
func goldenArgs(extra ...string) []string {
	args := []string{
		"-exp", "sweep",
		"-nodes", "60,80", "-paths", "10,12", "-graphs", "3", "-seed", "7",
		"-zero-times", "-progress=false",
	}
	return append(args, extra...)
}

func readGolden(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile("../../testdata/sweep_golden.csv")
	if err != nil {
		t.Fatalf("reading golden sweep CSV (regenerate with `go run ./scripts/gengolden`): %v", err)
	}
	return string(data)
}

func runGolden(t *testing.T, args []string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return out.String()
}

// TestSweepCSVGolden is the tier-1 acceptance test of the distributed sweep:
// the deterministic CSV of the golden sweep is byte-identical to
// testdata/sweep_golden.csv for the single-process run and for in-process
// coordinated runs with 1, 2 and 3 shards, across worker counts
// {1, 4, GOMAXPROCS}.
func TestSweepCSVGolden(t *testing.T) {
	golden := readGolden(t)
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		w := strconv.Itoa(workers)
		if got := runGolden(t, goldenArgs("-workers", w)); got != golden {
			t.Errorf("single-process CSV (workers=%d) differs from golden:\n--- golden\n%s\n--- got\n%s", workers, golden, got)
		}
		for _, shards := range []int{1, 2, 3} {
			got := runGolden(t, goldenArgs("-workers", w, "-shards", strconv.Itoa(shards)))
			if got != golden {
				t.Errorf("%d-shard CSV (workers=%d) differs from golden:\n--- golden\n%s\n--- got\n%s", shards, workers, golden, got)
			}
		}
	}
}

// TestSweepCSVGoldenHTTP runs the coordinator against the production HTTP
// handler (two in-process cpgserve backends) and checks the CSV against the
// golden file.
func TestSweepCSVGoldenHTTP(t *testing.T) {
	golden := readGolden(t)
	var urls string
	for i := 0; i < 2; i++ {
		srv, err := httpserver.NewServer(httpserver.Options{Service: service.Config{Workers: 2}})
		if err != nil {
			t.Fatalf("httpserver.NewServer: %v", err)
		}
		ts := httptest.NewServer(srv.Routes(nil))
		t.Cleanup(ts.Close)
		if i > 0 {
			urls += ","
		}
		urls += ts.URL
	}
	if got := runGolden(t, goldenArgs("-shards", "3", "-remote", urls)); got != golden {
		t.Errorf("HTTP-sharded CSV differs from golden:\n--- golden\n%s\n--- got\n%s", golden, got)
	}
}

// TestShardTransportFrames pins the one sweep transport at the frame level:
// shard 0/2 of the golden sweep written by -shard 0/2, served by POST
// /v1/sweep and written by a coordinator's -journal is one frame stream —
// byte-identical header and summary lines, and the same graph frames once
// the wall-clock fields are zeroed (graphs arrive in completion order, so
// they are compared as a sorted set).
func TestShardTransportFrames(t *testing.T) {
	var offline bytes.Buffer
	if err := run(goldenArgs("-shard", "0/2"), &offline); err != nil {
		t.Fatalf("run(-shard 0/2): %v", err)
	}

	srv, err := httpserver.NewServer(httpserver.Options{Service: service.Config{Workers: 2}})
	if err != nil {
		t.Fatalf("httpserver.NewServer: %v", err)
	}
	ts := httptest.NewServer(srv.Routes(nil))
	t.Cleanup(ts.Close)
	cfg := expr.GoldenSweep()
	cfg.ShardIndex, cfg.ShardCount = 0, 2
	var req bytes.Buffer
	if err := textio.WriteSweepRequest(&req, textio.EncodeSweepRequest(cfg)); err != nil {
		t.Fatalf("WriteSweepRequest: %v", err)
	}
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", &req)
	if err != nil {
		t.Fatalf("POST /v1/sweep: %v", err)
	}
	served, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/sweep: status %d, %v: %s", resp.StatusCode, err, served)
	}

	dir := t.TempDir()
	runGolden(t, goldenArgs("-shards", "2", "-journal", dir))
	spools, err := filepath.Glob(filepath.Join(dir, "*", "shard-00000-of-00002.ndjson"))
	if err != nil || len(spools) != 1 {
		t.Fatalf("journal holds %v (%v), want one file for shard 0/2", spools, err)
	}
	journaled, err := os.ReadFile(spools[0])
	if err != nil {
		t.Fatal(err)
	}

	want := splitFrames(t, offline.Bytes())
	for name, data := range map[string][]byte{"served": served, "journaled": journaled} {
		got := splitFrames(t, data)
		if got.header != want.header {
			t.Errorf("%s header line differs from -shard stdout:\n%s\nvs\n%s", name, got.header, want.header)
		}
		if got.summary != want.summary {
			t.Errorf("%s summary line differs from -shard stdout:\n%s\nvs\n%s", name, got.summary, want.summary)
		}
		if !slices.Equal(got.graphs, want.graphs) {
			t.Errorf("%s graph frames differ from -shard stdout:\n%s\nvs\n%s", name,
				strings.Join(got.graphs, "\n"), strings.Join(want.graphs, "\n"))
		}
	}
}

// shardFrames is a shard frame stream split into its lines.
type shardFrames struct {
	header, summary string
	// graphs are the graph frame lines with mergeNs and pathSchedNs zeroed,
	// sorted.
	graphs []string
}

var wallClockField = regexp.MustCompile(`"(mergeNs|pathSchedNs)":[^,}]+`)

// splitFrames splits a whole shard frame stream: a header line, graph lines
// and a summary line.
func splitFrames(t *testing.T, data []byte) shardFrames {
	t.Helper()
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) < 2 || !strings.HasPrefix(lines[0], `{"frame":"header"`) ||
		!strings.HasPrefix(lines[len(lines)-1], `{"frame":"summary"`) {
		t.Fatalf("not a whole shard frame stream:\n%s", data)
	}
	f := shardFrames{header: lines[0], summary: lines[len(lines)-1]}
	for _, line := range lines[1 : len(lines)-1] {
		f.graphs = append(f.graphs, wallClockField.ReplaceAllString(line, `"$1":0`))
	}
	slices.Sort(f.graphs)
	return f
}

// TestSweepOfflineShardMerge exercises the offline flow: run every shard
// separately with -shard i/N, save the NDJSON frame streams, recombine them
// with -merge, and compare against the golden CSV. A merge of an incomplete,
// torn, unidentified or mismatched set must fail instead of truncating.
func TestSweepOfflineShardMerge(t *testing.T) {
	golden := readGolden(t)
	dir := t.TempDir()
	var files []string
	for i := 0; i < 2; i++ {
		spec := strconv.Itoa(i) + "/2"
		var out bytes.Buffer
		if err := run(goldenArgs("-shard", spec), &out); err != nil {
			t.Fatalf("run(-shard %s): %v", spec, err)
		}
		name := filepath.Join(dir, "part"+strconv.Itoa(i)+".ndjson")
		if err := os.WriteFile(name, out.Bytes(), 0o644); err != nil {
			t.Fatalf("writing partial: %v", err)
		}
		files = append(files, name)
	}
	if got := runGolden(t, goldenArgs("-merge", files[0]+","+files[1])); got != golden {
		t.Errorf("merged offline CSV differs from golden:\n--- golden\n%s\n--- got\n%s", golden, got)
	}

	// -shard runs exclusively: even with the default -exp all, stdout is a
	// single whole frame stream with no figure text around it.
	var solo bytes.Buffer
	if err := run([]string{"-nodes", "60,80", "-paths", "10,12", "-graphs", "3", "-seed", "7", "-progress=false", "-shard", "0/2"}, &solo); err != nil {
		t.Fatalf("run(-shard with default -exp): %v", err)
	}
	sweepHash, err := textio.SweepHash(textio.EncodeSweepRequest(expr.GoldenSweep()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := textio.ReadShard(&solo, sweepHash, expr.GoldenSweep(), nil); err != nil {
		t.Errorf("-shard stdout must be a bare shard frame stream: %v", err)
	}

	// A torn stream (the summary line lost) and a stream without a sweep
	// hash are both unmergeable.
	data, err := os.ReadFile(files[1])
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	torn := filepath.Join(dir, "torn.ndjson")
	if err := os.WriteFile(torn, []byte(strings.Join(lines[:len(lines)-2], "")), 0o644); err != nil {
		t.Fatal(err)
	}
	anon := filepath.Join(dir, "anon.ndjson")
	hash := regexp.MustCompile(`"sweepHash":"[0-9a-f]+",`)
	if err := os.WriteFile(anon, hash.ReplaceAll(data, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	for file, want := range map[string]string{torn: "torn sweep stream", anon: "carries no sweepHash"} {
		var out bytes.Buffer
		if err := run(goldenArgs("-merge", files[0]+","+file), &out); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("merging %s = %v, want an error containing %q", filepath.Base(file), err, want)
		}
	}

	var out bytes.Buffer
	if err := run(goldenArgs("-merge", files[0]), &out); err == nil {
		t.Errorf("merging an incomplete shard set must fail")
	}
	if err := run(append(goldenArgs("-merge", files[0]+","+files[1]), "-seed", "8"), &out); err == nil {
		t.Errorf("merging partials of a different sweep must fail")
	}
	if err := run(goldenArgs("-shard", "bogus"), &out); err == nil {
		t.Errorf("malformed -shard spec must fail")
	}
	if err := run(goldenArgs("-shard", "2/2"), &out); err == nil {
		t.Errorf("out-of-range -shard spec must fail")
	}
}

// TestSweepFlagValidation covers the new sweep flag edges.
func TestSweepFlagValidation(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "sweep", "-nodes", "x"}, &out); err == nil {
		t.Errorf("malformed -nodes must fail")
	}
	if err := run([]string{"-exp", "sweep", "-paths", "-3"}, &out); err == nil {
		t.Errorf("negative -paths must fail")
	}
	if err := run([]string{"-exp", "sweep", "-nodes", "60,60"}, &out); err == nil {
		t.Errorf("duplicate -nodes must fail")
	}
	if err := run(goldenArgs("-remote", "http://127.0.0.1:1"), &out); err == nil {
		t.Errorf("unreachable remote with no fallback must fail")
	}
}

// lockedBuffer is a bytes.Buffer safe for the coordinator's concurrent log
// lines.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestProgressFalseKeepsFaults pins that -progress=false silences progress
// only: a coordinated sweep against a dead backend still reports the failed
// attempts, the retries and the eviction on stderr.
func TestProgressFalseKeepsFaults(t *testing.T) {
	var log lockedBuffer
	stderr = &log
	defer func() { stderr = os.Stderr }()
	var out bytes.Buffer
	if err := run(goldenArgs("-remote", "http://127.0.0.1:1"), &out); err == nil {
		t.Fatalf("a sweep whose only backend is dead must fail")
	}
	got := log.String()
	for _, want := range []string{"failed on http://127.0.0.1:1", "retrying in", "evicting backend http://127.0.0.1:1"} {
		if !strings.Contains(got, want) {
			t.Errorf("stderr of a -progress=false sweep lacks %q:\n%s", want, got)
		}
	}
}

// TestSweepSeedZeroExplicit pins the CLI end of the seed contract: zero is
// the unset seed, so an explicit `-seed 0` fails before any experiment runs
// instead of silently running the default seed's sweep.
func TestSweepSeedZeroExplicit(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-exp", "sweep", "-nodes", "60,80", "-paths", "10,12", "-graphs", "3", "-zero-times", "-progress=false", "-seed", "0"}, &out)
	if err == nil || !strings.Contains(err.Error(), "-seed must be nonzero") {
		t.Fatalf("-seed 0 must fail naming the flag; got %v", err)
	}
	if out.Len() != 0 {
		t.Fatalf("-seed 0 wrote output:\n%s", out.String())
	}
}

// TestMergeRunsExclusively pins the -merge contract: it renders only the
// sweep output, never the other experiments, even under the default -exp
// all.
func TestMergeRunsExclusively(t *testing.T) {
	dir := t.TempDir()
	var solo bytes.Buffer
	if err := run(goldenArgs("-shard", "0/1"), &solo); err != nil {
		t.Fatalf("run(-shard 0/1): %v", err)
	}
	part := filepath.Join(dir, "part.ndjson")
	if err := os.WriteFile(part, solo.Bytes(), 0o644); err != nil {
		t.Fatalf("writing partial: %v", err)
	}
	var out bytes.Buffer
	if err := run([]string{"-nodes", "60,80", "-paths", "10,12", "-graphs", "3", "-seed", "7", "-zero-times", "-progress=false", "-merge", part}, &out); err != nil {
		t.Fatalf("run(-merge, default -exp): %v", err)
	}
	s := out.String()
	for _, banned := range []string{"Fig. 1", "Table 2", "Optimal schedules"} {
		if strings.Contains(s, banned) {
			t.Errorf("-merge output must not contain %q:\n%s", banned, s)
		}
	}
	if !strings.Contains(s, "Fig. 5") {
		t.Errorf("-merge under -exp all must still render the sweep figures:\n%s", s)
	}
}

// TestProgressFromYield pins where -progress comes from: the sweep's yield.
// A plain sweep and an offline shard (-shard 0/2) write one "sweep: k/N
// graphs" update per graph to stderr, k counting from 1 to N, and the line
// ends after N/N. Stdout is the same as with -progress=false, the shard's
// wall-clock fields aside (one worker keeps its frames in canonical order).
func TestProgressFromYield(t *testing.T) {
	update := regexp.MustCompile(`\rsweep: (\d+)/(\d+) graphs`)
	for _, tc := range []struct {
		name  string
		extra []string
	}{
		{"plain", nil},
		{"shard 0/2", []string{"-shard", "0/2"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := expr.GoldenSweep()
			if tc.extra != nil {
				cfg.ShardIndex, cfg.ShardCount = 0, 2
			}
			graphs := cfg.ShardSize()
			args := goldenArgs(append([]string{"-workers", "1"}, tc.extra...)...)
			quiet := runGolden(t, args)
			var log lockedBuffer
			stderr = &log
			defer func() { stderr = os.Stderr }()
			loud := runGolden(t, append(args, "-progress"))
			if got, want := wallClockField.ReplaceAllString(loud, `"$1":0`), wallClockField.ReplaceAllString(quiet, `"$1":0`); got != want {
				t.Errorf("stdout with -progress differs from -progress=false:\n%s\nvs\n%s", got, want)
			}
			updates := update.FindAllStringSubmatch(log.String(), -1)
			if len(updates) != graphs {
				t.Fatalf("%d progress updates for %d graphs:\n%q", len(updates), graphs, log.String())
			}
			for i, u := range updates {
				if u[1] != strconv.Itoa(i+1) || u[2] != strconv.Itoa(graphs) {
					t.Fatalf("update %d reads %q, want %d/%d", i, u[0], i+1, graphs)
				}
			}
			if last := fmt.Sprintf("sweep: %d/%d graphs\n", graphs, graphs); !strings.Contains(log.String(), last) {
				t.Errorf("the progress line does not end after %d/%d:\n%q", graphs, graphs, log.String())
			}
		})
	}
}
