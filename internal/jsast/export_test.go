package jsast

// The parent commit's lexer (reference_lexer_test.go) and the comparison
// against it, exported to package jsast_test, whose oracle tests import the
// script corpus and so cannot live inside the package.
var (
	ReferenceTokenize = referenceTokenize
	MatchesReference  = matchesReference
)
