// Package solvecache is the solver's memoization subsystem: a
// cost-accounted LRU keyed by exact machine serializations, an interning
// table that dedups identical automata in memory, and a singleflight layer
// that collapses concurrent identical requests onto one solve.
//
// Keys are derived exclusively from exact forms (nfa.NFA.Key, the
// machine's full serialization, and the depgraph component descriptions
// built on it), never from pointers or bare state ids, so a key equality
// always witnesses identical machines — a cache hit can substitute for a
// solve but never confuse two systems. Partial or degraded results are
// never stored: the cache holds only complete, verified answers (see
// DESIGN.md §10).
package solvecache

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"
)

// Config bounds a Cache. The zero value selects the defaults; a negative
// value disables the corresponding bound.
type Config struct {
	// MaxEntries caps the number of cached values (default 4096).
	MaxEntries int
	// MaxBytes caps the total accounted cost of cached values
	// (default 64 MiB).
	MaxBytes int64
}

// Defaults for Config's zero values.
const (
	DefaultMaxEntries = 4096
	DefaultMaxBytes   = 64 << 20
)

func (c Config) withDefaults() Config {
	if c.MaxEntries == 0 {
		c.MaxEntries = DefaultMaxEntries
	}
	if c.MaxBytes == 0 {
		c.MaxBytes = DefaultMaxBytes
	}
	return c
}

// Stats is a point-in-time snapshot of cache effectiveness counters.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Puts      uint64 `json:"puts"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
}

type entry struct {
	key  string
	val  any
	cost int64
}

// Cache is a thread-safe, cost-accounted LRU. A nil *Cache is inert: Get
// always misses, Put discards, and Stats is zero — callers thread an
// optional cache without nil checks, mirroring the budget package's
// nil-receiver contract.
type Cache struct {
	mu    sync.Mutex
	cfg   Config
	ll    *list.List // front = most recently used; values are *entry
	items map[string]*list.Element
	bytes int64
	stats Stats
}

// New returns a Cache bounded by cfg.
func New(cfg Config) *Cache {
	return &Cache{
		cfg:   cfg.withDefaults(),
		ll:    list.New(),
		items: make(map[string]*list.Element),
	}
}

// Get returns the value cached under key, marking it most recently used.
func (c *Cache) Get(key string) (any, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	c.stats.Hits++
	c.ll.MoveToFront(el)
	return el.Value.(*entry).val, true
}

// Put stores val under key with the given accounted cost (bytes, by
// convention approximated as serialized size). A value whose cost alone
// exceeds the byte budget is not stored. Storing under an existing key
// replaces the old value.
func (c *Cache) Put(key string, val any, cost int64) {
	if c == nil {
		return
	}
	if cost < 0 {
		cost = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cfg.MaxBytes > 0 && cost > c.cfg.MaxBytes {
		return
	}
	if el, ok := c.items[key]; ok {
		e := el.Value.(*entry)
		c.bytes += cost - e.cost
		e.val, e.cost = val, cost
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&entry{key: key, val: val, cost: cost})
		c.bytes += cost
	}
	c.stats.Puts++
	c.evictLocked()
}

// evictLocked drops least-recently-used entries until both bounds hold.
func (c *Cache) evictLocked() {
	over := func() bool {
		if c.cfg.MaxEntries > 0 && c.ll.Len() > c.cfg.MaxEntries {
			return true
		}
		return c.cfg.MaxBytes > 0 && c.bytes > c.cfg.MaxBytes
	}
	for over() {
		el := c.ll.Back()
		if el == nil {
			return
		}
		e := el.Value.(*entry)
		c.ll.Remove(el)
		delete(c.items, e.key)
		c.bytes -= e.cost
		c.stats.Evictions++
	}
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.ll.Len()
	s.Bytes = c.bytes
	return s
}

// Key builds a collision-resistant cache key from a domain tag and a
// sequence of canonical parts: the hex SHA-256 of the length-prefixed
// concatenation. The length prefixes make the encoding injective, so two
// distinct part sequences can never alias. The domain tag ("component",
// "freevar", "response", …) keeps key spaces of different layers disjoint
// inside one shared Cache.
func Key(domain string, parts ...string) string {
	h := sha256.New()
	var lenBuf [8]byte
	write := func(s string) {
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(s)))
		h.Write(lenBuf[:])
		h.Write([]byte(s))
	}
	write(domain)
	for _, p := range parts {
		write(p)
	}
	return domain + ":" + hex.EncodeToString(h.Sum(nil))
}
