package nfa

// MooreMismatch and DeterminizeMismatch expose the differential checks to
// this directory's external tests, which reach the corpus through packages
// importing nfa.
var (
	MooreMismatch       = mooreMismatch
	DeterminizeMismatch = determinizeMismatch
)
