// Package memo provides two small caching building blocks: a mutex-protected
// LRU map keyed by content hashes, which the scheduling service's memo of
// solved problems is (NewLRU), and a canonical-JSON content hash, which
// textio's problem and sweep hashes are (HashJSON).
//
// A long-running scheduling server sees the same problem documents over and
// over (retries, re-submissions, design-space loops). Keying by content hash
// instead of identity makes the reuse visible across requests and clients
// that rebuilt the same problem from JSON.
package memo

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
)

// HashJSON returns the sha256 hex digest of the canonical JSON encoding of v.
// Values hashed this way must marshal deterministically (structs and slices,
// no maps with more than one key), which holds for every document type of
// this repository.
func HashJSON(v any) (string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("memo: hashing: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// LRU is a bounded least-recently-used cache from string keys (typically
// content hashes) to values. The zero value is not usable; call NewLRU.
// All methods are safe for concurrent use.
type LRU[V any] struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List // front = most recently used
	entries map[string]*list.Element

	hits   atomic.Int64
	misses atomic.Int64
}

type lruEntry[V any] struct {
	key   string
	value V
}

// NewLRU returns an LRU holding at most capacity entries; capacity <= 0
// disables the cache (every Get misses, Add is a no-op).
func NewLRU[V any](capacity int) *LRU[V] {
	return &LRU[V]{
		cap:     capacity,
		ll:      list.New(),
		entries: make(map[string]*list.Element),
	}
}

// Get returns the cached value for key and marks it most recently used.
func (l *LRU[V]) Get(key string) (V, bool) {
	var zero V
	if l.cap <= 0 {
		l.misses.Add(1)
		return zero, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	el, ok := l.entries[key]
	if !ok {
		l.misses.Add(1)
		return zero, false
	}
	l.ll.MoveToFront(el)
	l.hits.Add(1)
	return el.Value.(*lruEntry[V]).value, true
}

// Add stores value under key, evicting the least recently used entry when the
// cache is full. Adding an existing key refreshes its value and recency.
func (l *LRU[V]) Add(key string, value V) {
	if l.cap <= 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if el, ok := l.entries[key]; ok {
		el.Value.(*lruEntry[V]).value = value
		l.ll.MoveToFront(el)
		return
	}
	l.entries[key] = l.ll.PushFront(&lruEntry[V]{key: key, value: value})
	for l.ll.Len() > l.cap {
		oldest := l.ll.Back()
		l.ll.Remove(oldest)
		delete(l.entries, oldest.Value.(*lruEntry[V]).key)
	}
}

// Len returns the number of cached entries.
func (l *LRU[V]) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ll.Len()
}

// Hits returns the number of Get calls served from the cache.
func (l *LRU[V]) Hits() int64 { return l.hits.Load() }

// Misses returns the number of Get calls that missed.
func (l *LRU[V]) Misses() int64 { return l.misses.Load() }
