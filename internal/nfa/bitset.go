package nfa

import (
	"math/bits"
	"sync/atomic"
)

// stateSet is a bitset over machine state ids: state s lives at bit s&63 of
// word s>>6. Word-at-a-time union and emptiness are what let membership, the
// on-the-fly subset walks (Accepts, ShortestWitness, Enumerate) and the
// reachability kernels run at memory speed; the earlier []bool
// representation walked one state per loop iteration. DeterminizeB keeps
// sorted state lists instead: its cost follows the size of each subset, not
// the width of the machine.
type stateSet []uint64

// newStateSet returns an empty set with capacity for numStates states.
func newStateSet(numStates int) stateSet {
	return make(stateSet, (numStates+63)>>6)
}

func (s stateSet) add(i int)           { s[i>>6] |= 1 << (uint(i) & 63) }
func (s stateSet) contains(i int) bool { return s[i>>6]&(1<<(uint(i)&63)) != 0 }

func (s stateSet) isEmpty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// unionWith ors t into s, reporting whether s gained any state. Both sets
// must have the same capacity.
func (s stateSet) unionWith(t stateSet) bool {
	changed := false
	for i, w := range t {
		if w&^s[i] != 0 {
			changed = true
			s[i] |= w
		}
	}
	return changed
}

// forEach calls fn with every member in ascending order.
func (s stateSet) forEach(fn func(state int)) {
	for wi, w := range s {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &= w - 1
			fn(wi<<6 | b)
		}
	}
}

// ecloCache memoizes per-state ε-closures of an immutable machine. Entries
// fill lazily under the same atomic.Pointer discipline as NFA.key:
// concurrent solves over a shared (interned) machine may race to compute a
// closure, but every racer computes the same value, so last-store-wins is
// sound. The cache is allocated once at Build time and shared by every
// zero-copy view of the machine, so a closure computed through one view is
// visible to all of them.
type ecloCache struct {
	sets []atomic.Pointer[stateSet]
}

func newEcloCache(numStates int) *ecloCache {
	return &ecloCache{sets: make([]atomic.Pointer[stateSet], numStates)}
}

// seamMemo memoizes the seam-free transition structure derived from a
// machine (see NFA.seamFree). Like ecloCache it is allocated at Build time
// and shared by views: the memoized machine's own start/final are
// irrelevant — Induce and DropSeams always re-aim it through a view.
type seamMemo struct {
	p atomic.Pointer[NFA]
}
