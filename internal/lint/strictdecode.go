package lint

import (
	"go/ast"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// defaultStrictDecodePkgs are the packages that parse external JSON: the
// versioned document codecs and the two transport layers built on them.
const defaultStrictDecodePkgs = "textio,httpserver,distrib"

// defaultStrictDecodeExcept are the functions allowed to construct decoders:
// textio's readStrict, which sets DisallowUnknownFields and owns the
// trailing-data check. It decodes whole documents and, line by line, the
// frames of the NDJSON sweep stream. ReadProblem tries a byte parser first
// (parsePlain), which needs no exception: it builds no decoder, accepts only
// the exact keys of each document type with nothing after the document, and
// passes every input it does not accept to readStrict.
const defaultStrictDecodeExcept = "readStrict"

var (
	strictDecodeScope  = newPkgScope(defaultStrictDecodePkgs)
	strictDecodeExcept = defaultStrictDecodeExcept
)

// StrictDecode flags json.Unmarshal and json.NewDecoder calls in the
// document/transport packages that bypass textio's strict helper readStrict
// (whole documents, and each line of an NDJSON frame stream). The helper is
// the only place that sets DisallowUnknownFields and enforces the
// trailing-data check; any other decode path silently reintroduces lenient
// parsing of wire input, which the v1 API contract forbids.
var StrictDecode = &analysis.Analyzer{
	Name: "strictdecode",
	Doc: "flag JSON decoding that bypasses the shared strict decode helpers\n\n" +
		"Scoped by package name via -strictdecode.pkgs (default " + defaultStrictDecodePkgs + ").",
	Run: runStrictDecode,
}

func init() {
	StrictDecode.Flags.Var(strictDecodeScope, "pkgs", "comma-separated package names to check")
	StrictDecode.Flags.StringVar(&strictDecodeExcept, "except", strictDecodeExcept,
		"comma-separated functions allowed to construct decoders (the strict helpers themselves)")
}

// strictDecodeExceptSet parses the -except flag into a membership set.
func strictDecodeExceptSet() map[string]bool {
	set := map[string]bool{}
	for _, name := range strings.Split(strictDecodeExcept, ",") {
		if name = strings.TrimSpace(name); name != "" {
			set[name] = true
		}
	}
	return set
}

func runStrictDecode(pass *analysis.Pass) (any, error) {
	if !strictDecodeScope.has(pass.Pkg) {
		return nil, nil
	}
	allows := newAllowDirectives(pass, "strictdecode")
	except := strictDecodeExceptSet()
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if except[fn.Name.Name] && fn.Recv == nil {
				continue // the helpers are where the decoders are allowed to live
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				obj := calleeObject(pass, call)
				switch {
				case isPkgFunc(obj, "encoding/json", "Unmarshal"):
					reportf(pass, allows, call.Pos(),
						"json.Unmarshal bypasses %s: unknown fields and trailing data go undetected; decode wire input through %s (strictdecode)",
						strictDecodeExcept, strictDecodeExcept)
				case isPkgFunc(obj, "encoding/json", "NewDecoder"):
					reportf(pass, allows, call.Pos(),
						"json.NewDecoder outside %s: decoders built here skip DisallowUnknownFields and the trailing-data check (strictdecode)",
						strictDecodeExcept)
				}
				return true
			})
		}
	}
	return nil, nil
}
