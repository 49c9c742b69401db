package nfa

// MooreMismatch exposes the Moore differential check to this directory's
// external tests, which reach the corpus through packages importing nfa.
var MooreMismatch = mooreMismatch
