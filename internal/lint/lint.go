// Package lint implements the four project-specific static analyzers behind
// cmd/cpglint. Each analyzer machine-enforces an invariant that earlier PRs
// protected only by golden tests and review discipline:
//
//   - detmap: no iteration over a Go map may feed an order-sensitive output
//     (appends to result slices, writers, encoders) without a sort between
//     collection and emission. Map range order is randomized per run, so a
//     violation here is exactly the class of bug that breaks the
//     byte-identical Fig. 1/5/6 tables and sharded-sweep merges.
//   - strictdecode: every JSON decode in the document/transport packages must
//     go through textio's readStrict helper, so unknown fields and trailing
//     data are always rejected. A stray json.Unmarshal reintroduces lenient
//     decoding that the versioned v1 API was built to forbid. The problem
//     reader's byte parser (textio's parsePlain) keeps the invariant: it
//     builds no decoder, accepts only the exact keys of each document type,
//     and passes every input it does not accept to readStrict.
//   - ctxthread: exported functions in the long-running packages that spawn
//     goroutines, or loop over context-aware work, must accept and propagate
//     a context.Context. Dropping ctx makes cancellation dead-end mid-request.
//   - nowallclock: the deterministic core must not read wall-clock time, the
//     global math/rand source, or the environment. Reproducibility means the
//     same inputs give the same bytes on every machine, every run.
//
// Findings can be suppressed with a directive comment on the offending line
// or the line directly above it:
//
//	//lint:allow <analyzer> <reason>
//
// The reason is mandatory; an allow without one is itself reported. The
// directive is deliberately loud in review — every use documents why an
// invariant does not apply at that site.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/atomic"
	"golang.org/x/tools/go/analysis/passes/copylock"
	"golang.org/x/tools/go/analysis/passes/loopclosure"
	"golang.org/x/tools/go/analysis/passes/lostcancel"
)

// Analyzers returns the full cpglint suite: the four project-specific
// analyzers plus the bundled standard passes (copylock, lostcancel,
// loopclosure, atomic) and the sortslice port. nilness is deliberately
// absent: it needs go/ssa, which the offline toolchain does not vendor.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		DetMap,
		StrictDecode,
		CtxThread,
		NoWallClock,
		SortSlice,
		atomic.Analyzer,
		copylock.Analyzer,
		loopclosure.Analyzer,
		lostcancel.Analyzer,
	}
}

// pkgScope is a comma-separated set of package names an analyzer applies to,
// wired to a -<analyzer>.pkgs flag so callers can widen or narrow the net.
// Scoping is by package name, not import path, so the analyzers work
// unchanged on testdata fixtures and on the real tree.
type pkgScope struct {
	names map[string]bool
}

func newPkgScope(csv string) *pkgScope {
	s := &pkgScope{}
	_ = s.Set(csv)
	return s
}

func (s *pkgScope) Set(csv string) error {
	s.names = make(map[string]bool)
	for _, n := range strings.Split(csv, ",") {
		if n = strings.TrimSpace(n); n != "" {
			s.names[n] = true
		}
	}
	return nil
}

func (s *pkgScope) String() string {
	if s == nil || len(s.names) == 0 {
		return ""
	}
	names := make([]string, 0, len(s.names))
	for n := range s.names {
		names = append(names, n)
	}
	// Sorted for a stable flag default in -help output.
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return strings.Join(names, ",")
}

func (s *pkgScope) has(pkg *types.Package) bool {
	return s.names[pkg.Name()]
}

// allowDirectives indexes the //lint:allow comments of one pass for a single
// analyzer. A directive suppresses findings on its own line and on the line
// directly below it (the "comment above the statement" placement).
type allowDirectives struct {
	lines map[string]map[int]bool // filename -> line numbers suppressed
}

// newAllowDirectives scans every file of the pass for //lint:allow directives
// naming the given analyzer. Directives with a missing reason are reported
// immediately — an allow is only acceptable when it documents why.
func newAllowDirectives(pass *analysis.Pass, analyzer string) *allowDirectives {
	a := &allowDirectives{lines: make(map[string]map[int]bool)}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name, reason, ok := parseAllow(c.Text)
				if !ok || name != analyzer {
					continue
				}
				pos := pass.Fset.Position(c.Pos())
				if reason == "" {
					pass.Reportf(c.Pos(), "lint:allow %s needs a reason (//lint:allow %s <why the invariant does not apply here>)", name, name)
					continue
				}
				m := a.lines[pos.Filename]
				if m == nil {
					m = make(map[int]bool)
					a.lines[pos.Filename] = m
				}
				m[pos.Line] = true
				m[pos.Line+1] = true
			}
		}
	}
	return a
}

// parseAllow splits a "//lint:allow <analyzer> <reason>" comment. ok is false
// for comments that are not allow directives at all.
func parseAllow(text string) (analyzer, reason string, ok bool) {
	const prefix = "//lint:allow"
	if !strings.HasPrefix(text, prefix) {
		return "", "", false
	}
	rest := strings.TrimSpace(strings.TrimPrefix(text, prefix))
	// A nested "//" starts a comment about the directive (testdata uses this
	// for want expectations), not part of the reason.
	rest, _, _ = strings.Cut(rest, "//")
	analyzer, reason, _ = strings.Cut(strings.TrimSpace(rest), " ")
	return analyzer, strings.TrimSpace(reason), analyzer != ""
}

// allowed reports whether a finding at pos is suppressed by a directive.
func (a *allowDirectives) allowed(pass *analysis.Pass, pos token.Pos) bool {
	p := pass.Fset.Position(pos)
	return a.lines[p.Filename][p.Line]
}

// reportf emits a diagnostic unless an allow directive covers it.
func reportf(pass *analysis.Pass, allows *allowDirectives, pos token.Pos, format string, args ...any) {
	if allows.allowed(pass, pos) {
		return
	}
	pass.Report(analysis.Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// isTestFile reports whether f is a _test.go file. The four project
// analyzers skip tests: the invariants protect production output, while
// tests legitimately decode responses leniently, measure wall-clock time and
// spawn goroutines from Test functions.
func isTestFile(pass *analysis.Pass, f *ast.File) bool {
	tf := pass.Fset.File(f.Pos())
	return tf != nil && strings.HasSuffix(tf.Name(), "_test.go")
}

// isPkgFunc reports whether the called object is the package-level function
// pkgPath.name (e.g. "time".Now).
func isPkgFunc(obj types.Object, pkgPath, name string) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	if _, ok := obj.(*types.Func); !ok {
		return false
	}
	return obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// calleeObject resolves the object a call expression invokes, seeing through
// parentheses. Returns nil for calls through function values or builtins.
func calleeObject(pass *analysis.Pass, call *ast.CallExpr) types.Object {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return pass.TypesInfo.Uses[fn]
	case *ast.SelectorExpr:
		return pass.TypesInfo.Uses[fn.Sel]
	}
	return nil
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// hasContextParam reports whether sig accepts a context.Context anywhere.
func hasContextParam(sig *types.Signature) bool {
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}
