package nfa

import (
	"runtime"
	"testing"
)

// TestKeyDistinguishes: structurally different machines must get different
// keys — labels, seam tags, and start/final placement all count.
func TestKeyDistinguishes(t *testing.T) {
	pairs := []struct {
		name string
		a, b *NFA
	}{
		{"labels", Literal("ab"), Literal("ac")},
		{"length", Literal("ab"), Literal("abc")},
		{"tags", ConcatTagged(Literal("a"), Literal("b"), 1), ConcatTagged(Literal("a"), Literal("b"), 2)},
		{"tag-vs-plain", ConcatTagged(Literal("a"), Literal("b"), 1), Concat(Literal("a"), Literal("b"))},
		{"empty-vs-eps", Empty(), Epsilon()},
	}
	for _, p := range pairs {
		if p.a.Key() == p.b.Key() {
			t.Errorf("%s: distinct machines share a key", p.name)
		}
	}
}

// TestKeyStableAcrossRuns extends the serialize-determinism regression:
// rebuilding the pipeline machine from scratch must reproduce the key
// bit-for-bit, run after run. The exact key relies on this: a machine
// rebuilt from the same inputs must hit the entry its twin stored.
func TestKeyStableAcrossRuns(t *testing.T) {
	want := buildPipelineMachine().Key()
	if want == "" {
		t.Fatal("empty key")
	}
	for i := 1; i < 20; i++ {
		if got := buildPipelineMachine().Key(); got != want {
			t.Fatalf("run %d key differs:\n--- run 0 ---\n%s\n--- run %d ---\n%s", i, want, i, got)
		}
	}
}

// TestKeyGOMAXPROCSInvariant pins the key against scheduler parallelism:
// construction and serialization must be sequential and deterministic
// regardless of GOMAXPROCS.
func TestKeyGOMAXPROCSInvariant(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	k1 := buildPipelineMachine().Key()
	runtime.GOMAXPROCS(4)
	k4 := buildPipelineMachine().Key()
	if k1 != k4 {
		t.Fatalf("key depends on GOMAXPROCS:\n--- 1 ---\n%s\n--- 4 ---\n%s", k1, k4)
	}
}

// TestKeyRoundTrip: the key is the machine's wire format, and parsing it
// back yields the same key.
func TestKeyRoundTrip(t *testing.T) {
	m := buildPipelineMachine()
	key := m.Key()
	if key != m.Marshal() {
		t.Fatal("key is not the machine's serialization")
	}
	back, err := Unmarshal(key)
	if err != nil {
		t.Fatalf("key is not a valid serialization: %v", err)
	}
	if got := back.Key(); got != key {
		t.Fatalf("key changed across a round trip:\n--- before ---\n%s\n--- after ---\n%s", key, got)
	}
}
