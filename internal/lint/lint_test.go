package lint

import (
	"path/filepath"
	"testing"

	"repro/internal/lint/linttest"
)

// TestDetMap runs the analyzer over an in-scope fixture (flagged and allowed
// patterns side by side) and an out-of-scope package with the same code that
// must stay silent.
func TestDetMap(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "src", "detmap", "cond"), DetMap)
	linttest.Run(t, filepath.Join("testdata", "src", "detmap", "obs"), DetMap)
	linttest.Run(t, filepath.Join("testdata", "src", "detmap", "outside"), DetMap)
}

func TestStrictDecode(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "src", "strictdecode", "textio"), StrictDecode)
	linttest.Run(t, filepath.Join("testdata", "src", "strictdecode", "other"), StrictDecode)
}

func TestCtxThread(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "src", "ctxthread", "core"), CtxThread)
	linttest.Run(t, filepath.Join("testdata", "src", "ctxthread", "other"), CtxThread)
}

func TestNoWallClock(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "src", "nowallclock", "gen"), NoWallClock)
	linttest.Run(t, filepath.Join("testdata", "src", "nowallclock", "obs"), NoWallClock)
	linttest.Run(t, filepath.Join("testdata", "src", "nowallclock", "other"), NoWallClock)
}

func TestSortSlice(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "src", "sortslice", "a"), SortSlice)
}

func TestParseAllow(t *testing.T) {
	cases := []struct {
		text, analyzer, reason string
		ok                     bool
	}{
		{"//lint:allow detmap keys re-sorted by caller", "detmap", "keys re-sorted by caller", true},
		{"//lint:allow nowallclock", "nowallclock", "", true},
		{"//lint:allow nowallclock // trailing note", "nowallclock", "", true},
		{"// regular comment", "", "", false},
		{"//lint:allow", "", "", false},
	}
	for _, c := range cases {
		analyzer, reason, ok := parseAllow(c.text)
		if analyzer != c.analyzer || reason != c.reason || ok != c.ok {
			t.Errorf("parseAllow(%q) = %q, %q, %v; want %q, %q, %v",
				c.text, analyzer, reason, ok, c.analyzer, c.reason, c.ok)
		}
	}
}

// TestAnalyzersComplete pins the suite shipped by cmd/cpglint: four custom
// analyzers, the sortslice port, and the four bundled standard passes.
func TestAnalyzersComplete(t *testing.T) {
	want := map[string]bool{
		"detmap": true, "strictdecode": true, "ctxthread": true, "nowallclock": true,
		"sortslice": true, "atomic": true, "copylocks": true, "loopclosure": true, "lostcancel": true,
	}
	got := Analyzers()
	if len(got) != len(want) {
		t.Fatalf("Analyzers() returned %d analyzers, want %d", len(got), len(want))
	}
	for _, a := range got {
		if !want[a.Name] {
			t.Errorf("unexpected analyzer %q in suite", a.Name)
		}
	}
}
