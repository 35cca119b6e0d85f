package textio

// This file defines the versioned v1 problem/solution document model: a
// single JSON document bundling the conditional process graph, the target
// architecture and the scheduling options (ProblemDoc), and the matching
// result document (SolutionDoc). The documents are the wire format of the
// cpgserve scheduling server and the on-disk format written by cpggen and
// consumed by cpgsched/cpgsim.
//
// Decoding is strict: unknown fields, unsupported versions, dangling
// processor/bus/condition references, duplicate process names and cyclic
// graphs are all rejected with errors, and a decoded problem re-encodes to
// the same document (lossless round-trip).

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"

	"repro/internal/arch"
	"repro/internal/cond"
	"repro/internal/core"
	"repro/internal/cpg"
	"repro/internal/listsched"
	"repro/internal/table"
)

// ProblemVersion is the document version understood by this package.
const ProblemVersion = "v1"

// OptionsDoc is the JSON representation of the scheduling options of a
// problem document. The string fields use the vocabulary of the cpgsched
// flags; empty fields select the defaults of core.Options.
type OptionsDoc struct {
	// Selection picks the path followed after a back-step: "largest"
	// (default, the paper's rule), "smallest" or "first".
	Selection string `json:"selection,omitempty"`
	// Priority is the list-scheduling priority: "cp" (critical path,
	// default) or "order".
	Priority string `json:"priority,omitempty"`
	// Conflicts selects the conflict resolution: "move" (Theorem 2,
	// default) or "delay".
	Conflicts string `json:"conflicts,omitempty"`
	// Strategy names the per-path scheduling strategy of package listsched
	// ("critical-path" or "tabu"; empty selects the classic critical-path
	// scheduler). Unknown names are rejected by DecodeOptions.
	Strategy string `json:"strategy,omitempty"`
	// TabuIterations and TabuNeighbors tune the "tabu" strategy with the
	// listsched.StrategyParams semantics: 0 selects the defaults, negative
	// iterations disable the improvement loop (critical-path baseline),
	// non-positive neighbors select the default; other strategies ignore
	// them. The values round-trip verbatim.
	TabuIterations int `json:"tabuIterations,omitempty"`
	TabuNeighbors  int `json:"tabuNeighbors,omitempty"`
	// MaxPaths bounds the number of alternative paths (0 = default bound).
	MaxPaths int `json:"maxPaths,omitempty"`
	// Workers bounds the goroutines scheduling the problem's paths
	// (core.Options.Workers). cpgsched honours it; the scheduling service
	// ignores it and runs each problem on one goroutine. It never changes the
	// table, so ProblemHash clears it.
	Workers int `json:"workers,omitempty"`
}

// EncodeOptions renders scheduling options in document form, always spelling
// out the canonical names so a decoded problem re-encodes identically.
func EncodeOptions(o core.Options) *OptionsDoc {
	return &OptionsDoc{
		Selection:      o.PathSelection.String(),
		Priority:       priorityName(o.PathPriority),
		Conflicts:      conflictName(o.ConflictPolicy),
		Strategy:       o.Strategy,
		TabuIterations: o.StrategyParams.TabuIterations,
		TabuNeighbors:  o.StrategyParams.TabuNeighbors,
		MaxPaths:       o.MaxPaths,
		Workers:        o.Workers,
	}
}

func priorityName(p listsched.Priority) string {
	switch p {
	case listsched.PriorityFixedOrder:
		return "order"
	default:
		return "cp"
	}
}

func conflictName(c core.ConflictPolicy) string {
	if c == core.ConflictDelayToLatest {
		return "delay"
	}
	return "move"
}

// ParseSelection parses a path-selection name ("largest", "smallest",
// "first"; "" selects the default).
func ParseSelection(s string) (core.PathSelection, error) {
	switch s {
	case "", "largest", core.SelectLargestDelay.String():
		return core.SelectLargestDelay, nil
	case "smallest", core.SelectSmallestDelay.String():
		return core.SelectSmallestDelay, nil
	case "first":
		return core.SelectFirst, nil
	}
	return 0, fmt.Errorf("textio: unknown path selection %q (want largest, smallest or first)", s)
}

// ParsePriority parses a list-scheduling priority name ("cp", "order"; ""
// selects the default).
func ParsePriority(s string) (listsched.Priority, error) {
	switch s {
	case "", "cp", listsched.PriorityCriticalPath.String():
		return listsched.PriorityCriticalPath, nil
	case "order", listsched.PriorityFixedOrder.String():
		return listsched.PriorityFixedOrder, nil
	}
	return 0, fmt.Errorf("textio: unknown scheduling priority %q (want cp or order)", s)
}

// ParseConflicts parses a conflict-policy name ("move", "delay"; "" selects
// the default).
func ParseConflicts(s string) (core.ConflictPolicy, error) {
	switch s {
	case "", "move", core.ConflictMoveToExisting.String():
		return core.ConflictMoveToExisting, nil
	case "delay", core.ConflictDelayToLatest.String():
		return core.ConflictDelayToLatest, nil
	}
	return 0, fmt.Errorf("textio: unknown conflict policy %q (want move or delay)", s)
}

// ParseStrategy validates a scheduling strategy name against the strategies
// of package listsched ("" selects the default classic scheduler and is
// returned unchanged).
func ParseStrategy(s string) (string, error) {
	if s == "" {
		return "", nil
	}
	if _, ok := listsched.LookupStrategy(s); !ok {
		return "", fmt.Errorf("textio: unknown scheduling strategy %q (known: %s)",
			s, strings.Join(listsched.StrategyNames(), ", "))
	}
	return s, nil
}

// DecodeOptions converts an options document (nil selects every default)
// into core.Options, validating the enumeration names and the strategy name
// and rejecting negative MaxPaths and Workers. The tabu bounds pass through
// verbatim (negative values carry the listsched.StrategyParams semantics),
// so every encodable option value decodes back losslessly.
func DecodeOptions(d *OptionsDoc) (core.Options, error) {
	var o core.Options
	if d == nil {
		return o, nil
	}
	var err error
	if o.PathSelection, err = ParseSelection(d.Selection); err != nil {
		return o, err
	}
	if o.PathPriority, err = ParsePriority(d.Priority); err != nil {
		return o, err
	}
	if o.ConflictPolicy, err = ParseConflicts(d.Conflicts); err != nil {
		return o, err
	}
	if o.Strategy, err = ParseStrategy(d.Strategy); err != nil {
		return o, err
	}
	o.StrategyParams.TabuIterations = d.TabuIterations
	o.StrategyParams.TabuNeighbors = d.TabuNeighbors
	if d.MaxPaths < 0 {
		return o, fmt.Errorf("textio: options.maxPaths must be >= 0; got %d", d.MaxPaths)
	}
	if d.Workers < 0 {
		return o, fmt.Errorf("textio: options.workers must be >= 0 (0 = all CPUs); got %d", d.Workers)
	}
	o.MaxPaths = d.MaxPaths
	o.Workers = d.Workers
	return o, nil
}

// ProblemDoc is the versioned single-document problem format: one JSON
// object bundling the mapped conditional process graph, the target
// architecture and the scheduling options.
type ProblemDoc struct {
	Version    string      `json:"version"`
	Name       string      `json:"name"`
	CondTime   int64       `json:"condTime,omitempty"`
	Elements   []PEDoc     `json:"processingElements"`
	Conditions []CondDoc   `json:"conditions,omitempty"`
	Processes  []ProcDoc   `json:"processes"`
	Edges      []EdgeDoc   `json:"edges"`
	Options    *OptionsDoc `json:"options,omitempty"`
}

// EncodeProblem bundles a graph, its architecture and scheduling options
// into a v1 problem document. Dummy source and sink processes are omitted
// (they are reconstructed on load).
func EncodeProblem(g *cpg.Graph, a *arch.Architecture, opts core.Options) *ProblemDoc {
	doc := &ProblemDoc{
		Version:  ProblemVersion,
		Name:     g.Name(),
		CondTime: a.CondTime,
		Options:  EncodeOptions(opts),
	}
	for _, pe := range a.PEs() {
		doc.Elements = append(doc.Elements, PEDoc{
			Name:        pe.Name,
			Kind:        pe.Kind.String(),
			Speed:       pe.Speed,
			ConnectsAll: pe.ConnectsAll,
		})
	}
	for _, cd := range g.Conditions() {
		doc.Conditions = append(doc.Conditions, CondDoc{
			Name:    cd.Name,
			Decider: g.Process(cd.Decider).Name,
		})
	}
	for _, p := range g.Procs() {
		if p.IsDummy() {
			continue
		}
		peName := ""
		if pe := a.PE(p.PE); pe != nil {
			peName = pe.Name
		}
		doc.Processes = append(doc.Processes, ProcDoc{
			Name: p.Name,
			Kind: p.Kind.String(),
			Exec: p.Exec,
			PE:   peName,
		})
	}
	for _, e := range g.Edges() {
		from, to := g.Process(e.From), g.Process(e.To)
		if from.IsDummy() || to.IsDummy() {
			continue
		}
		ed := EdgeDoc{From: from.Name, To: to.Name}
		if e.HasCond {
			ed.Condition = g.CondName(e.Cond)
			ed.Value = e.CondVal
		}
		doc.Edges = append(doc.Edges, ed)
	}
	return doc
}

// DecodeProblem validates a problem document and rebuilds the in-memory
// model: the finalized graph, the architecture and the scheduling options.
// Unsupported versions, dangling processing-element or condition references,
// duplicate process names and cyclic graphs are rejected.
func DecodeProblem(d *ProblemDoc) (*cpg.Graph, *arch.Architecture, core.Options, error) {
	var zero core.Options
	if err := checkVersion(d); err != nil {
		return nil, nil, zero, err
	}
	opts, err := DecodeOptions(d.Options)
	if err != nil {
		return nil, nil, zero, err
	}
	g, a, err := decodeGraph(d)
	if err != nil {
		return nil, nil, zero, err
	}
	return g, a, opts, nil
}

// WriteProblem writes a problem document as indented JSON.
func WriteProblem(w io.Writer, d *ProblemDoc) error {
	return writeIndented(w, d)
}

// ReadProblem reads a v1 problem document to its end and parses it,
// rejecting unknown fields, unsupported versions and trailing data after
// the document. It only syntax-checks; pass the result to DecodeProblem for
// the semantic validation and model rebuild. A read error, such as the
// *http.MaxBytesError of an over-limit request body, is returned wrapped
// before any parsing. The body is read into pooled memory and parsed by
// parsePlain when it is in the plain form the writers produce; any other
// body goes to readStrict, so every input decodes, or fails with the same
// error, as under encoding/json alone.
func ReadProblem(r io.Reader) (*ProblemDoc, error) {
	b := bodyPool.Get().(*bytes.Buffer)
	defer func() {
		if b.Cap() <= maxPooledJSON {
			bodyPool.Put(b)
		}
	}()
	b.Reset()
	if _, err := b.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("textio: %w", err)
	}
	d := parsePlain(b.Bytes())
	if d == nil {
		d = new(ProblemDoc)
		if err := readStrict(bytes.NewReader(b.Bytes()), d); err != nil {
			return nil, err
		}
	}
	if err := checkVersion(d); err != nil {
		return nil, err
	}
	return d, nil
}

// bodyPool holds the buffers ReadProblem reads documents into.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// checkVersion rejects a document of another version than ProblemVersion.
func checkVersion(d *ProblemDoc) error {
	if d.Version != ProblemVersion {
		return fmt.Errorf("textio: unsupported problem version %q (this build understands %q)", d.Version, ProblemVersion)
	}
	return nil
}

// requireEOF rejects trailing data after a decoded document — otherwise two
// concatenated documents would be silently truncated to the first.
func requireEOF(dec *json.Decoder) error {
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("textio: trailing data after document")
	}
	return nil
}

// readStrict decodes one JSON document into v, rejecting unknown fields and
// trailing data — the decoding discipline shared by every versioned reader.
func readStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("textio: %w", err)
	}
	return requireEOF(dec)
}

// ProblemHash returns the content hash identifying a problem for caching:
// the sha256 of the canonical JSON encoding with options.workers cleared,
// because the worker count never changes the produced schedule table. Two
// problems with the same hash produce byte-identical solutions. The
// canonical encoding is the bytes json.Marshal writes, written by
// appendProblem into pooled memory: the hash equals memo.HashJSON's of the
// document with its workers cleared.
func ProblemHash(d *ProblemDoc) (string, error) {
	return problemHash(d, false)
}

// ProblemShapeHash returns the hash of the problem's structural shape: the
// canonical document with options.workers cleared (like ProblemHash) and
// additionally every process execution time zeroed. Two problems share a
// shape hash exactly when they differ at most in τ times. Conditions, edges,
// mappings, processing elements, the broadcast time and every deterministic
// option all stay in the hash. No serving code calls it: the benchmark's
// tests use it to check that their edits are τ-only, and ROADMAP item 4's
// benchmark change deletes it.
func ProblemShapeHash(d *ProblemDoc) (string, error) {
	return problemHash(d, true)
}

// problemHash hashes the canonical document of d, without execution times
// when shape is set.
func problemHash(d *ProblemDoc, shape bool) (string, error) {
	b := bufPool.Get().(*[]byte)
	defer func() {
		if cap(*b) <= maxPooledJSON {
			bufPool.Put(b)
		}
	}()
	doc, err := appendProblem((*b)[:0], d, shape)
	*b = doc
	if err != nil {
		return "", fmt.Errorf("textio: %w", err)
	}
	sum := sha256.Sum256(doc)
	return hex.EncodeToString(sum[:]), nil
}

// SolutionPathDoc is the per-alternative-path part of a solution document.
type SolutionPathDoc struct {
	Label        string `json:"label"`
	OptimalDelay int64  `json:"optimalDelay"`
	TableDelay   int64  `json:"tableDelay"`
}

// SolutionStatsDoc summarises the deterministic merge statistics plus the
// run-dependent wall-clock timings (nanoseconds).
type SolutionStatsDoc struct {
	Paths             int   `json:"paths"`
	BackSteps         int   `json:"backSteps"`
	Conflicts         int   `json:"conflicts"`
	ConflictsResolved int   `json:"conflictsResolved"`
	Locks             int   `json:"locks"`
	Columns           int   `json:"columns"`
	Entries           int   `json:"entries"`
	PathSchedulingNs  int64 `json:"pathSchedulingNs"`
	MergeNs           int64 `json:"mergeNs"`
	ValidationNs      int64 `json:"validationNs"`
}

// CacheDoc reports how the serving cache treated a request.
type CacheDoc struct {
	// Hit is true when this solution was served from the memo cache.
	Hit bool `json:"hit"`
	// Hits and Misses are the service-wide cache counters after the
	// request.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// ProblemHash is the content hash keying the cache entry.
	ProblemHash string `json:"problemHash"`
}

// SolutionDoc is the versioned result document of one scheduling run.
type SolutionDoc struct {
	Version         string            `json:"version"`
	Name            string            `json:"name"`
	DeltaM          int64             `json:"deltaM"`
	DeltaMax        int64             `json:"deltaMax"`
	IncreasePercent float64           `json:"increasePercent"`
	Deterministic   bool              `json:"deterministic"`
	Violations      []string          `json:"violations,omitempty"`
	Paths           []SolutionPathDoc `json:"paths"`
	Table           *TableDoc         `json:"table"`
	// TableText is the text rendering of the schedule table, byte-identical
	// to Table.Render on the in-process result (the format of Table 1 of
	// the paper).
	TableText string           `json:"tableText"`
	Stats     SolutionStatsDoc `json:"stats"`
	Cache     *CacheDoc        `json:"cache,omitempty"`
}

// EncodeSolution converts a scheduling result into its v1 document form,
// the document WriteSolution writes to files. The server writes the same
// document's compact JSON straight from the result (AppendSolution).
func EncodeSolution(res *core.Result) *SolutionDoc {
	g := res.Graph
	d := &SolutionDoc{
		Version:         ProblemVersion,
		Name:            g.Name(),
		DeltaM:          res.DeltaM,
		DeltaMax:        res.DeltaMax,
		IncreasePercent: res.IncreasePercent(),
		Deterministic:   res.Deterministic(),
		Table:           EncodeTable(g, res.Table),
		TableText:       res.Table.Render(table.RenderOptions{Namer: g.CondName, RowName: res.RowName}),
	}
	for _, v := range res.Violations {
		d.Violations = append(d.Violations, v.String())
	}
	for _, p := range res.Paths {
		d.Paths = append(d.Paths, SolutionPathDoc{
			Label:        p.Label.Format(g.CondName),
			OptimalDelay: p.OptimalDelay,
			TableDelay:   p.TableDelay,
		})
	}
	s := res.Stats
	d.Stats = SolutionStatsDoc{
		Paths:             s.Paths,
		BackSteps:         s.BackSteps,
		Conflicts:         s.Conflicts,
		ConflictsResolved: s.ConflictsResolved,
		Locks:             s.Locks,
		Columns:           s.Columns,
		Entries:           s.Entries,
		PathSchedulingNs:  int64(s.PathSchedulingTime),
		MergeNs:           int64(s.MergeTime),
		ValidationNs:      int64(s.ValidationTime),
	}
	return d
}

// WriteSolution writes a solution document as indented JSON.
func WriteSolution(w io.Writer, d *SolutionDoc) error {
	return writeIndented(w, d)
}

// ParseConds parses a comma-separated condition assignment such as
// "C=1,K=0" into a cube using the graph's condition names.
func ParseConds(g *cpg.Graph, spec string) (cond.Cube, error) {
	label := cond.True()
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return cond.Cube{}, fmt.Errorf("textio: malformed condition assignment %q", part)
		}
		name := strings.TrimSpace(kv[0])
		var id cond.Cond = cond.None
		for _, cd := range g.Conditions() {
			if cd.Name == name {
				id = cd.ID
			}
		}
		if id == cond.None {
			return cond.Cube{}, fmt.Errorf("textio: unknown condition %q", name)
		}
		var v bool
		switch strings.TrimSpace(kv[1]) {
		case "1", "true", "T":
			v = true
		case "0", "false", "F":
			v = false
		default:
			return cond.Cube{}, fmt.Errorf("textio: malformed condition value %q", kv[1])
		}
		var ok bool
		label, ok = label.With(id, v)
		if !ok {
			return cond.Cube{}, fmt.Errorf("textio: contradictory assignment for condition %q", name)
		}
	}
	return label, nil
}
