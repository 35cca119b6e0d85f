// Command benchjson converts the text output of `go test -bench` into a
// stable JSON document, so benchmark results can be committed (see
// BENCH_results.json at the repository root) and compared across commits by
// future tooling.
//
// Usage:
//
//	go test -run=NONE -bench . -benchmem . | go run ./cmd/benchjson -note "..." > BENCH_results.json
//
// Every benchmark line becomes one record: the name (sub-benchmarks keep
// their full slash-separated name), the iteration count and a metric map
// containing ns/op, B/op, allocs/op and any custom b.ReportMetric values
// (deltaM, increase-%, merge-ms, ...). Context lines (goos, goarch, cpu,
// pkg) are captured into the header, together with the host context needed
// to read the numbers: the GOMAXPROCS the benchmarks ran at (the -N suffix
// go test appends to every name, absent when it is 1, and stripped from the
// recorded names) and the number of CPUs of the host. Lines run at
// different GOMAXPROCS (a -cpu list) are rejected, since their names would
// collide once the suffix is stripped.
//
// With -prev <file>, the fresh results are additionally diffed against a
// previous snapshot: every benchmark whose ns/op grew by more than
// -regress-threshold (default 20%) is called out on stderr. Only recordings
// of one host are compared: when the snapshot's cpu or GOMAXPROCS differs
// from the fresh run's, one line names both and the ns/op comparison is
// skipped. The diff is advisory — it never changes the exit code — so CI can
// surface creeping slowdowns without flaking on noisy runners.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Name    string             `json:"name"`
	Runs    int64              `json:"runs"`
	Metrics map[string]float64 `json:"metrics"`
}

// Results is the document benchjson emits.
type Results struct {
	Date       string      `json:"date"`
	GoVersion  string      `json:"go_version"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	CPU        string      `json:"cpu,omitempty"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	NumCPU     int         `json:"num_cpu"`
	Note       string      `json:"note,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	note := flag.String("note", "", "free-text note embedded in the output (e.g. before/after comparison)")
	prev := flag.String("prev", "", "previous results JSON to diff against; ns/op regressions beyond the threshold are warned to stderr (never fails the run)")
	threshold := flag.Float64("regress-threshold", 0.20, "fractional ns/op increase over -prev that triggers a regression warning")
	flag.Parse()

	res := Results{
		Date:      time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Note:      *note,
	}

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			res.CPU = cpu
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		runs, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		name, procs := splitProcSuffix(fields[0])
		if res.GOMAXPROCS == 0 {
			res.GOMAXPROCS = procs
		} else if procs != res.GOMAXPROCS {
			fmt.Fprintf(os.Stderr, "benchjson: benchmark lines ran at GOMAXPROCS %d and %d; record one -cpu value per snapshot\n", res.GOMAXPROCS, procs)
			os.Exit(1)
		}
		b := Benchmark{Name: name, Runs: runs, Metrics: map[string]float64{}}
		// The remainder is a sequence of "<value> <unit>" pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			b.Metrics[fields[i+1]] = v
		}
		res.Benchmarks = append(res.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: reading input: %v\n", err)
		os.Exit(1)
	}
	if len(res.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines found on stdin")
		os.Exit(1)
	}

	if *prev != "" {
		diffAgainst(os.Stderr, *prev, res, *threshold)
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// diffAgainst compares the fresh results against a previous snapshot and
// warns on w about every benchmark whose ns/op grew by more than the
// threshold fraction. It is advisory by design — benchmark noise on shared CI
// runners must not fail the build — so it never touches the exit code; an
// unreadable previous file, or one recorded on another cpu or at another
// GOMAXPROCS, just notes why the comparison was skipped.
func diffAgainst(w io.Writer, path string, cur Results, threshold float64) {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(w, "benchjson: skipping comparison: %v\n", err)
		return
	}
	var old Results
	if err := json.Unmarshal(data, &old); err != nil {
		fmt.Fprintf(w, "benchjson: skipping comparison: parsing %s: %v\n", path, err)
		return
	}
	if old.CPU != cur.CPU || old.GOMAXPROCS != cur.GOMAXPROCS {
		fmt.Fprintf(w, "benchjson: skipping the ns/op comparison: %s was recorded on cpu %q at GOMAXPROCS %d, this run on cpu %q at GOMAXPROCS %d\n",
			path, old.CPU, old.GOMAXPROCS, cur.CPU, cur.GOMAXPROCS)
		return
	}
	prevNs := make(map[string]float64, len(old.Benchmarks))
	for _, b := range old.Benchmarks {
		if ns, ok := b.Metrics["ns/op"]; ok && ns > 0 {
			prevNs[b.Name] = ns
		}
	}
	regressions := 0
	for _, b := range cur.Benchmarks {
		ns, ok := b.Metrics["ns/op"]
		if !ok {
			continue
		}
		oldNs, ok := prevNs[b.Name]
		if !ok {
			continue
		}
		change := (ns - oldNs) / oldNs
		if change > threshold {
			regressions++
			fmt.Fprintf(w, "benchjson: WARNING: %s regressed %.1f%% (%.0f -> %.0f ns/op) vs %s\n",
				b.Name, change*100, oldNs, ns, path)
		}
	}
	if regressions == 0 {
		fmt.Fprintf(w, "benchjson: no ns/op regression beyond %.0f%% vs %s\n", threshold*100, path)
	}
}

// splitProcSuffix splits the -<GOMAXPROCS> suffix go test appends to
// benchmark names ("BenchmarkFoo-8" -> "BenchmarkFoo", 8), which is
// machine-dependent noise in committed names. go test omits the suffix at
// GOMAXPROCS 1.
func splitProcSuffix(name string) (string, int) {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i], n
		}
	}
	return name, 1
}
