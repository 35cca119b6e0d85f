package core

// Hooks for the external tests (package core_test), which can build the
// worked example of package expr.
var (
	CheckReuseRule = checkReuseRule
	StrategyCorpus = strategyCorpus
)

type ReuseCounts = reuseCounts
